//! Memory footprint of the warm-started TMS search.
//!
//! The warm search keeps one decision log per II row (see
//! `tms_core::warm`). This test pins how much heap those logs cost on
//! the specfp loop with the heaviest logs, lucas#5 (generator seed
//! `0x7315_2008`, the `perfbench` `specfp-compile` population), under
//! the default configuration: the live-heap peak of one search, and the
//! number of allocations it makes. Before the logs were laid out as
//! flat arenas the search peaked at 37.1 MiB live and made 1.72M
//! allocations on this loop.
//!
//! The binary installs its own counting global allocator and holds one
//! test, so nothing else allocates while the search runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tms_core::cost::CostModel;
use tms_core::{schedule_tms, TmsConfig};
use tms_machine::{ArchParams, MachineModel};
use tms_workloads::specfp_profiles;

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

/// Live-heap peak bound, in bytes: 18 MiB (the row-per-step layout
/// peaked at 37.1 MiB).
const PEAK_MAX: usize = 18 << 20;
/// Allocation bound: a quarter of the row-per-step layout's 1.72M.
const ALLOCS_MAX: usize = 1_720_000 / 4;

#[test]
fn warm_search_on_lucas_5_stays_within_its_heap_budget() {
    let ddg = specfp_profiles()
        .iter()
        .find(|p| p.name == "lucas")
        .expect("lucas profile")
        .generate(0x7315_2008)
        .swap_remove(5);
    assert_eq!(ddg.name(), "lucas#5");
    let machine = MachineModel::icpp2008();
    let arch = ArchParams::with_ncore(4);
    let model = CostModel::new(arch.costs, 4);
    let cfg = TmsConfig::default();
    assert!(cfg.warm_start, "the default search is the warm one");

    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    let result = schedule_tms(&ddg, &machine, &model, &cfg).expect("lucas#5 schedules");
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let peak = PEAK.load(Ordering::Relaxed) - base;
    drop(result);

    eprintln!("lucas#5 warm search: live-heap peak {peak} B, {allocs} allocations");
    assert!(
        peak <= PEAK_MAX,
        "live-heap peak {peak} B exceeds {PEAK_MAX} B"
    );
    assert!(
        allocs <= ALLOCS_MAX,
        "{allocs} allocations exceed {ALLOCS_MAX}"
    );
}
