//! Determinism of the per-loop parallel paths.
//!
//! The TMS search itself is serial; parallelism lives one level up, in
//! the per-loop fan-out of sweeps and benches (`tms_core::par::par_map`).
//! Scheduling a population at any worker count is contracted to be
//! **bit-identical** to scheduling it serially. These tests pin that
//! contract over the kernel suite plus a seeded fuzzed population, and
//! over the whole `tms-verify` report.

use tms_core::cost::CostModel;
use tms_core::par::{par_map, Parallelism};
use tms_core::{schedule_tms, TmsConfig, TmsResult};
use tms_ddg::{Ddg, InstId};
use tms_machine::{ArchParams, MachineModel};
use tms_verify::fuzz::fuzz_ddgs;
use tms_verify::sweep::{run_sweep, SweepConfig};
use tms_workloads::kernels;

fn population() -> Vec<Ddg> {
    let mut pop = kernels::all_kernels();
    pop.push(kernels::maybe_aliasing_update(1.0));
    pop.extend(fuzz_ddgs(50, 0xD0_2008));
    pop
}

fn tms_with(ddg: &Ddg, cfg: &TmsConfig) -> Option<TmsResult> {
    let machine = MachineModel::icpp2008();
    let arch = ArchParams::icpp2008();
    let model = CostModel::new(arch.costs, arch.ncore);
    schedule_tms(ddg, &machine, &model, cfg).ok()
}

/// Everything the search decided, including its accounting and the
/// schedule itself.
fn fingerprint(ddg: &Ddg, r: &TmsResult) -> impl PartialEq + std::fmt::Debug {
    let times: Vec<i64> = (0..ddg.num_insts())
        .map(|i| r.schedule.time(InstId(i as u32)))
        .collect();
    (
        (
            r.ii,
            r.c_delay_threshold,
            r.p_max.to_bits(),
            r.cost_key,
            r.fell_back_to_sms,
        ),
        (r.attempts, r.rejected_candidates, r.rejects.len()),
        (r.mii, r.ldp, times),
    )
}

/// Fingerprints of every loop of `pop`, scheduled one loop per item
/// on `jobs` workers.
fn fingerprints_at(
    pop: &[Ddg],
    jobs: Parallelism,
) -> Vec<Option<impl PartialEq + std::fmt::Debug>> {
    par_map(jobs, pop, |_, ddg| {
        tms_with(ddg, &TmsConfig::default()).map(|r| fingerprint(ddg, &r))
    })
}

#[test]
fn tms_search_is_identical_at_one_and_four_workers() {
    let pop = population();
    let serial = fingerprints_at(&pop, Parallelism::Serial);
    let par = fingerprints_at(&pop, Parallelism::Jobs(4));
    for ((ddg, s), p) in pop.iter().zip(&serial).zip(&par) {
        assert_eq!(s, p, "{}: jobs=4 diverged from jobs=1", ddg.name());
    }
}

#[test]
fn tms_search_is_identical_at_awkward_worker_counts() {
    // 3 workers never divide the 12 loops' costs evenly; 16 exceeds
    // the item count, so the pool is capped at one worker per loop.
    let pop: Vec<Ddg> = population().into_iter().take(12).collect();
    let baseline = fingerprints_at(&pop, Parallelism::Serial);
    for jobs in [3, 16] {
        let got = fingerprints_at(&pop, Parallelism::Jobs(jobs));
        for ((ddg, b), g) in pop.iter().zip(&baseline).zip(&got) {
            assert_eq!(b, g, "{}: jobs={jobs} diverged", ddg.name());
        }
    }
}

/// The warm-start attempt cache (on by default) must leave every
/// fingerprint unchanged: same schedules, same accounting, with and
/// without the cache.
#[test]
fn warm_cache_leaves_fingerprints_unchanged() {
    for ddg in &population() {
        let [warm, cold] = [true, false].map(|warm_start| {
            let cfg = TmsConfig {
                warm_start,
                ..TmsConfig::default()
            };
            tms_with(ddg, &cfg).map(|r| fingerprint(ddg, &r))
        });
        assert_eq!(
            warm,
            cold,
            "{}: warm cache changed the fingerprint",
            ddg.name()
        );
    }
}

#[test]
fn verify_sweep_report_is_identical_at_one_and_four_workers() {
    let cfg = SweepConfig {
        fuzz: 12,
        specfp_cap: 2,
        no_sim: true,
        quick: true,
        jobs: Parallelism::Serial,
        ..Default::default()
    };
    let serial = run_sweep(&cfg).report.to_json();
    let par = run_sweep(&SweepConfig {
        jobs: Parallelism::Jobs(4),
        ..cfg
    })
    .report
    .to_json();
    assert_eq!(serial, par, "verify report diverged between worker counts");
}
