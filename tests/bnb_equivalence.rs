//! Branch-and-bound ≡ exhaustive search.
//!
//! The pruned TMS search (`TmsConfig { prune: true, .. }`, the
//! default) is contracted to return the **same resolution** as the
//! exhaustive cost-ordered sweep: identical schedule, identical
//! accepted `(II, C_delay, P_max)`, identical realised cost key,
//! identical fallback decision. Only the accounting may differ — the
//! pruned search dispatches fewer attempts and reports what it skipped
//! in `TmsResult::pruned`. These properties are pinned over the kernel
//! suite plus a seeded fuzzed population.

use tms_core::cost::CostModel;
use tms_core::par::{par_map, Parallelism};
use tms_core::{schedule_tms, TmsConfig, TmsResult};
use tms_ddg::{Ddg, InstId};
use tms_machine::{ArchParams, MachineModel};
use tms_verify::fuzz::fuzz_ddgs;
use tms_workloads::kernels;

fn population() -> Vec<Ddg> {
    let mut pop = kernels::all_kernels();
    pop.push(kernels::maybe_aliasing_update(1.0));
    pop.extend(fuzz_ddgs(40, 0xB4B_2008));
    pop
}

fn tms_at(ddg: &Ddg, prune: bool) -> Option<TmsResult> {
    let machine = MachineModel::icpp2008();
    let arch = ArchParams::icpp2008();
    let model = CostModel::new(arch.costs, arch.ncore);
    let cfg = TmsConfig {
        prune,
        ..TmsConfig::default()
    };
    schedule_tms(ddg, &machine, &model, &cfg).ok()
}

/// The *resolution* of a search — everything except the
/// attempts/pruned accounting, which branch-and-bound is allowed (and
/// expected) to shrink.
fn resolution(ddg: &Ddg, r: &TmsResult) -> impl PartialEq + std::fmt::Debug {
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
        (r.mii, r.ldp, times),
    )
}

#[test]
fn pruned_search_resolves_identically_to_exhaustive() {
    let mut pruned_somewhere = false;
    for ddg in &population() {
        let bnb = tms_at(ddg, true);
        let exh = tms_at(ddg, false);
        match (&bnb, &exh) {
            (Some(b), Some(e)) => {
                assert_eq!(
                    resolution(ddg, b),
                    resolution(ddg, e),
                    "{}: pruning changed the resolution",
                    ddg.name()
                );
                // Accounting invariants: the exhaustive sweep never
                // prunes; branch-and-bound only ever *removes*
                // dispatched attempts, and when nothing was prunable it
                // must replay the exhaustive attempt sequence exactly.
                assert_eq!(e.pruned, 0, "{}: exhaustive search pruned", ddg.name());
                assert!(
                    b.attempts <= e.attempts,
                    "{}: pruning added attempts ({} > {})",
                    ddg.name(),
                    b.attempts,
                    e.attempts
                );
                if b.pruned == 0 {
                    assert_eq!(
                        b.attempts,
                        e.attempts,
                        "{}: attempts diverged without any pruning",
                        ddg.name()
                    );
                }
                // Both searches walk the same candidate order, so up
                // to the resolution point every index is either
                // dispatched or pruned: the pruned search can be
                // behind by at most what it skipped.
                assert!(
                    b.attempts + b.pruned >= e.attempts,
                    "{}: attempts {} + pruned {} cannot cover exhaustive {}",
                    ddg.name(),
                    b.attempts,
                    b.pruned,
                    e.attempts
                );
                pruned_somewhere |= b.pruned > 0;
            }
            (None, None) => {}
            _ => panic!(
                "{}: schedulability differs between pruned and exhaustive",
                ddg.name()
            ),
        }
    }
    assert!(
        pruned_somewhere,
        "branch-and-bound never fired on the whole population — the cuts are dead code"
    );
}

/// The pruned search, fanned out one loop per item, resolves and
/// accounts identically at one and four workers.
#[test]
fn pruned_search_is_identical_at_one_and_four_workers() {
    let pop = population();
    let run = |jobs| {
        par_map(jobs, &pop, |_, ddg| {
            tms_at(ddg, true).map(|r| {
                (
                    format!("{:?}", resolution(ddg, &r)),
                    (r.attempts, r.pruned, r.lost_to_baseline, r.budget_cut),
                )
            })
        })
    };
    let serial = run(Parallelism::Serial);
    let par = run(Parallelism::Jobs(4));
    for ((ddg, s), p) in pop.iter().zip(&serial).zip(&par) {
        assert_eq!(s, p, "{}: jobs=4 pruned search diverged", ddg.name());
    }
}

fn tms_warm(ddg: &Ddg, warm_start: bool) -> Option<TmsResult> {
    let machine = MachineModel::icpp2008();
    let arch = ArchParams::icpp2008();
    let model = CostModel::new(arch.costs, arch.ncore);
    let cfg = TmsConfig {
        warm_start,
        ..TmsConfig::default()
    };
    schedule_tms(ddg, &machine, &model, &cfg).ok()
}

/// Resolution *and* the full search accounting: warm-started replay is
/// contracted to change nothing observable, down to the attempt counts
/// and the retained rejection records.
fn full_fingerprint(ddg: &Ddg, r: &TmsResult) -> impl PartialEq + std::fmt::Debug {
    let rejects: Vec<(u32, u32, u64, usize)> = r
        .rejects
        .iter()
        .map(|c| (c.ii, c.c_delay, c.p_max.to_bits(), c.diagnostics.len()))
        .collect();
    (
        format!("{:?}", resolution(ddg, r)),
        (
            r.attempts,
            r.pruned,
            r.rejected_candidates,
            r.lost_to_baseline,
            r.budget_cut,
        ),
        rejects,
    )
}

/// Warm-started attempts — same-II decision-log replay *and* the
/// cross-II guide that seeds a new II row from the nearest smaller one
/// — must be byte-identical to the cold path: schedules, accounting,
/// and rejection records alike.
#[test]
fn warm_start_is_byte_identical_to_cold() {
    for ddg in &population() {
        let warm = tms_warm(ddg, true);
        let cold = tms_warm(ddg, false);
        match (&warm, &cold) {
            (Some(w), Some(c)) => {
                assert_eq!(
                    full_fingerprint(ddg, w),
                    full_fingerprint(ddg, c),
                    "{}: warm start diverged from cold",
                    ddg.name()
                );
            }
            (None, None) => {}
            _ => panic!(
                "{}: schedulability differs between warm and cold",
                ddg.name()
            ),
        }
    }
}

/// Warm replay composes with tight degradation budgets: a `Fail` step
/// validated under new knobs must reproduce the cold engine's failure
/// (and its ejection-budget accounting) exactly, so budget cuts land on
/// the identical attempt. The tightest budgets cut mid-II-row, which
/// makes the next run's first attempt at the following II a pure
/// cross-II-guided one — the cross-II path is budget-composed too.
#[test]
fn warm_start_composes_with_budgets() {
    let machine = MachineModel::icpp2008();
    let arch = ArchParams::icpp2008();
    let model = CostModel::new(arch.costs, arch.ncore);
    for ddg in population().iter().take(16) {
        for budget in [1usize, 4, 9] {
            let run = |warm_start: bool| {
                let cfg = TmsConfig {
                    warm_start,
                    attempt_budget: Some(budget),
                    ..TmsConfig::default()
                };
                schedule_tms(ddg, &machine, &model, &cfg).ok().map(|r| {
                    let fp = full_fingerprint(ddg, &r);
                    (fp, r.degraded.is_some())
                })
            };
            assert_eq!(
                run(true),
                run(false),
                "{}: budget={budget} diverged between warm and cold",
                ddg.name()
            );
        }
    }
}

/// The warm cache must actually fire on this population — steps
/// replayed is observable through the `tms.reuse.*` counters.
#[test]
fn warm_start_replays_steps_somewhere() {
    let machine = MachineModel::icpp2008();
    let arch = ArchParams::icpp2008();
    let model = CostModel::new(arch.costs, arch.ncore);
    let trace = tms_trace::Trace::enabled();
    for ddg in &population() {
        let _ = tms_core::tms::schedule_tms_traced(
            ddg,
            &machine,
            &model,
            &TmsConfig::default(),
            &trace,
        );
    }
    let metrics = trace.metrics();
    let replayed = metrics.counters.get("tms.reuse.steps-replayed").copied();
    assert!(
        replayed.is_some_and(|n| n > 0),
        "warm-start replay never fired over the whole population (steps-replayed={replayed:?}) \
         — the cache is dead code"
    );
}

/// The cross-II guide must also fire on this population: a fresh II row
/// seeds from the nearest smaller one and rebuilds ≥ 1 window from the
/// transferred carried-free facts, observable as
/// `tms.reuse.cross-ii-steps-replayed`. Equivalence alone would hold
/// vacuously if every guide died on its first step; this pins the
/// optimisation as live code.
#[test]
fn cross_ii_guide_replays_steps_somewhere() {
    let machine = MachineModel::icpp2008();
    let arch = ArchParams::icpp2008();
    let model = CostModel::new(arch.costs, arch.ncore);
    let trace = tms_trace::Trace::enabled();
    for ddg in &population() {
        let _ = tms_core::tms::schedule_tms_traced(
            ddg,
            &machine,
            &model,
            &TmsConfig::default(),
            &trace,
        );
    }
    let metrics = trace.metrics();
    let attempts = metrics.counters.get("tms.reuse.cross-ii-attempts").copied();
    let steps = metrics
        .counters
        .get("tms.reuse.cross-ii-steps-replayed")
        .copied();
    assert!(
        steps.is_some_and(|n| n > 0),
        "cross-II guide never rebuilt a window over the whole population \
         (cross-ii-steps-replayed={steps:?}, cross-ii-attempts={attempts:?}) — the carryover \
         is dead code"
    );
    assert!(
        attempts.is_some_and(|n| n > 0),
        "cross-ii-attempts counter missing or zero while steps replayed"
    );
}

/// Degradation budgets compose with pruning: the budget caps
/// *dispatched* attempts, so a pruned search under a tight budget gets
/// further through the candidate space than the exhaustive one — but
/// both report the cut deterministically, run after run.
#[test]
fn budgets_compose_with_pruning_deterministically() {
    let machine = MachineModel::icpp2008();
    let arch = ArchParams::icpp2008();
    let model = CostModel::new(arch.costs, arch.ncore);
    for ddg in population().iter().take(16) {
        for budget in [1usize, 4, 9] {
            let run = || {
                let cfg = TmsConfig {
                    prune: true,
                    attempt_budget: Some(budget),
                    ..TmsConfig::default()
                };
                schedule_tms(ddg, &machine, &model, &cfg).ok().map(|r| {
                    (
                        resolution(ddg, &r),
                        r.attempts,
                        r.pruned,
                        r.budget_cut,
                        r.degraded.is_some(),
                    )
                })
            };
            let first = run();
            assert_eq!(
                first,
                run(),
                "{}: budget={budget} diverged between runs",
                ddg.name()
            );
            if let Some((_, attempts, _, budget_cut, degraded)) = &first {
                assert!(*attempts <= budget, "{}: budget overrun", ddg.name());
                assert_eq!(budget_cut, degraded, "{}: unreported cut", ddg.name());
            }
        }
    }
}
