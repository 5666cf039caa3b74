//! Heap footprint of the simulator on the `doacross-sim` population.
//!
//! Runs the `perfbench` `doacross-sim` loop set (7 Fig. 5 DOACROSS
//! loops, 6 kernels, 8 Livermore loops) at its 10k iterations and pins:
//!
//! * the live-heap peak of `simulate_sequential` over any one loop. The
//!   baseline core's unit pools once kept a hash-map entry for every
//!   cycle ever issued on and peaked at 31.6 MiB here; the sliding
//!   window keeps only the cycles at or after the current dispatch;
//! * the allocations `simulate_spmt` makes over the whole population on
//!   the TMS schedules. Building a fresh arrival map and fresh
//!   per-thread buffers for every thread once cost 1.87M allocations
//!   here; reusing them leaves the per-loop setup and the store log.
//!
//! The binary installs its own counting global allocator and holds one
//! test, so nothing else allocates while the simulator runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tms_core::cost::CostModel;
use tms_core::{schedule_tms, TmsConfig};
use tms_ddg::Ddg;
use tms_machine::{ArchParams, MachineModel};
use tms_sim::{simulate_sequential, simulate_spmt, SimConfig};
use tms_workloads::{doacross_suite, kernels, livermore_suite};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout
// and only updates counters besides.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grow(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The `doacross-sim` iteration count.
const ITERS: u64 = 10_000;

/// Live-heap peak bound of one sequential run, in bytes: 6 MiB (the
/// per-cycle hash maps peaked at 31.6 MiB).
const SEQ_PEAK_MAX: usize = 6 << 20;

/// Allocation bound of the SpMT runs over the population: per-thread
/// maps and buffers made 1,868,965, the reused ones make under 2,000.
/// The runs simulate ~210k threads, so one allocation per thread
/// breaks the bound.
const SPMT_ALLOCS_MAX: usize = 50_000;

fn population() -> Vec<Ddg> {
    doacross_suite(0x1CC9_2008)
        .into_iter()
        .map(|l| l.ddg)
        .chain(kernels::all_kernels())
        .chain(livermore_suite())
        .collect()
}

#[test]
fn simulator_heap_stays_within_its_budget_on_doacross_sim() {
    let machine = MachineModel::icpp2008();
    let arch = ArchParams::with_ncore(4);
    let model = CostModel::new(arch.costs, 4);
    let cfg = SimConfig::icpp2008(ITERS);
    let loops = population();
    assert_eq!(loops.len(), 21);
    let schedules: Vec<_> = loops
        .iter()
        .map(|ddg| {
            schedule_tms(ddg, &machine, &model, &TmsConfig::default())
                .expect("TMS schedules")
                .schedule
        })
        .collect();

    let mut seq_peak = (0, "");
    for ddg in &loops {
        let base = LIVE.load(Ordering::Relaxed);
        PEAK.store(base, Ordering::Relaxed);
        let out = simulate_sequential(ddg, &machine, &cfg);
        let peak = PEAK.load(Ordering::Relaxed) - base;
        drop(out);
        if peak > seq_peak.0 {
            seq_peak = (peak, ddg.name());
        }
    }

    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    for (ddg, schedule) in loops.iter().zip(&schedules) {
        drop(simulate_spmt(ddg, schedule, &cfg));
    }
    let spmt_allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;

    eprintln!(
        "doacross-sim at {ITERS} iterations: sequential live-heap peak {} B ({}), \
         SpMT {spmt_allocs} allocations",
        seq_peak.0, seq_peak.1
    );
    assert!(
        seq_peak.0 <= SEQ_PEAK_MAX,
        "sequential live-heap peak {} B on {} exceeds {SEQ_PEAK_MAX} B",
        seq_peak.0,
        seq_peak.1
    );
    assert!(
        spmt_allocs <= SPMT_ALLOCS_MAX,
        "{spmt_allocs} SpMT allocations exceed {SPMT_ALLOCS_MAX}"
    );
}
