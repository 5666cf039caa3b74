//! Scheduling-throughput benchmark: serial vs parallel TMS over each
//! workload family, plus a serial-vs-parallel run of the full
//! verification sweep.
//!
//! This is the perf counterpart of the determinism guarantees: the
//! per-loop fan-out ([`tms_core::par::par_map`]) changes *wall-clock
//! only*, so this benchmark reports
//! loops/second and speedup per family and asserts (in
//! `verify_sweep.reports_identical`) that the verification report is
//! byte-for-byte the same at both worker counts. The `sched-throughput`
//! binary writes the result to `results/bench_sched.json`.

use crate::config::ExperimentConfig;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;
use tms_core::cost::CostModel;
use tms_core::par::{par_map, Parallelism};
use tms_core::{schedule_tms, schedule_tms_traced, TmsConfig};
use tms_ddg::Ddg;
use tms_trace::Trace;
use tms_verify::fuzz::fuzz_ddgs;
use tms_verify::sweep::{run_sweep, SweepConfig};
use tms_workloads::{doacross_suite, kernels, livermore_suite, specfp_profiles};

/// Knobs of one throughput run.
#[derive(Debug, Clone)]
pub struct ThroughputConfig {
    /// Worker threads for the parallel passes (0 = all cores).
    pub jobs: Parallelism,
    /// Master seed for workload and fuzz generation.
    pub seed: u64,
    /// Fuzzed DDGs in the `fuzz` family.
    pub fuzz: usize,
    /// Smoke mode: tiny populations, one timing pass — a CI-friendly
    /// sanity run, not a measurement.
    pub smoke: bool,
}

impl Default for ThroughputConfig {
    fn default() -> Self {
        ThroughputConfig {
            jobs: Parallelism::Auto,
            seed: 0x7315_2008,
            fuzz: 150,
            smoke: false,
        }
    }
}

/// One family's serial vs parallel timing.
#[derive(Debug, Clone, Serialize)]
pub struct FamilyThroughput {
    /// Workload family name.
    pub family: String,
    /// Loops scheduled.
    pub loops: usize,
    /// Serial wall-clock (seconds).
    pub serial_s: f64,
    /// Parallel wall-clock (seconds).
    pub parallel_s: f64,
    /// `serial_s / parallel_s`.
    pub speedup: f64,
    /// Loops per second, serial.
    pub loops_per_sec_serial: f64,
    /// Loops per second, parallel.
    pub loops_per_sec_parallel: f64,
}

/// Serial vs parallel timing of the full verification sweep, plus the
/// determinism check the parallelism is contracted to uphold.
#[derive(Debug, Clone, Serialize)]
pub struct SweepThroughput {
    /// Serial sweep wall-clock (seconds).
    pub serial_s: f64,
    /// Parallel sweep wall-clock (seconds).
    pub parallel_s: f64,
    /// `serial_s / parallel_s`.
    pub speedup: f64,
    /// Whether the two sweeps' JSON reports are byte-identical.
    pub reports_identical: bool,
}

/// Disabled-tracing cost check: the same loop population scheduled
/// serially through the un-instrumented entry point
/// ([`schedule_tms`]), through the instrumented one with a disabled
/// [`Trace`], and with tracing enabled. The first two run identical
/// code up to one pointer-null check per recording site, so
/// `disabled_overhead` must sit within measurement noise of 1.0 —
/// `sched-throughput` asserts it (< 2% expected; the gate is
/// deliberately looser to absorb machine jitter).
#[derive(Debug, Clone, Serialize)]
pub struct TraceOverhead {
    /// Loops scheduled per pass.
    pub loops: usize,
    /// Timing passes per variant (best-of).
    pub reps: usize,
    /// Best wall-clock via `schedule_tms` (seconds).
    pub baseline_s: f64,
    /// Best wall-clock via `schedule_tms_traced` + disabled sink.
    pub disabled_trace_s: f64,
    /// Best wall-clock via `schedule_tms_traced` + enabled sink.
    pub enabled_trace_s: f64,
    /// `disabled_trace_s / baseline_s` — 1.0 means tracing-off is free.
    pub disabled_overhead: f64,
}

/// Aggregated wall-clock of one scheduler phase over the traced pass.
#[derive(Debug, Clone, Serialize)]
pub struct PhaseStat {
    /// Phase name (the `tms.phase.` timer suffix: `order`, `ldp`,
    /// `sms_baseline`, `frames`, `place`, `verify`).
    pub phase: String,
    /// Times the phase timer fired.
    pub calls: u64,
    /// Total wall-clock across all calls (seconds).
    pub total_s: f64,
    /// Share of the summed per-phase time (0..1).
    pub share: f64,
    /// Median per-call wall-clock (nanoseconds, from the timer's
    /// power-of-two histogram — an upper bucket bound, not an exact
    /// order statistic).
    pub p50_ns: u64,
    /// 95th-percentile per-call wall-clock (nanoseconds, same caveat).
    pub p95_ns: u64,
}

/// Where scheduling time goes: one dedicated traced pass over the
/// specfp family (separate from the timing passes, which run
/// un-instrumented), with every `tms.phase.*` timer aggregated. Shares
/// answer "which phase do I optimise next" without a profiler.
#[derive(Debug, Clone, Serialize)]
pub struct PhaseBreakdown {
    /// Family the traced pass scheduled.
    pub family: String,
    /// Loops in the pass.
    pub loops: usize,
    /// Per-phase totals, in descending `total_s` order.
    pub phases: Vec<PhaseStat>,
}

/// Chrome-exporter micro-benchmark: render a synthetic population of
/// span + counter events to the `trace_event` JSON and report the
/// sustained rate. This is the path `fix per-event allocations` claims
/// to have sped up — the numbers keep it honest.
#[derive(Debug, Clone, Serialize)]
pub struct RenderBench {
    /// Events in the synthetic trace (half spans, half counters).
    pub events: usize,
    /// Timing passes (best-of).
    pub reps: usize,
    /// Best render wall-clock (seconds).
    pub render_s: f64,
    /// `events / render_s`.
    pub events_per_sec: f64,
    /// Rendered document size (bytes).
    pub bytes: usize,
}

/// The `results/bench_sched.json` payload.
#[derive(Debug, Clone, Serialize)]
pub struct ThroughputReport {
    /// Worker threads the parallel passes used.
    pub jobs: usize,
    /// `std::thread::available_parallelism()` on the machine that ran
    /// the benchmark — speedup is bounded by this, whatever `jobs` says.
    pub available_parallelism: usize,
    /// Whether the parallel-vs-serial speedup columns mean anything on
    /// this host. On a single-core machine the "parallel" pass is the
    /// serial path plus thread-pool overhead, so `speedup < 1` is the
    /// expected shape, not a regression — consumers (and the perf
    /// gate) must skip speedup comparisons when this is false.
    pub speedup_meaningful: bool,
    /// True when this was a smoke run (timings not meaningful).
    pub smoke: bool,
    /// Master seed of the run.
    pub seed: u64,
    /// Per-family timings.
    pub families: Vec<FamilyThroughput>,
    /// Totals across families.
    pub total: FamilyThroughput,
    /// The verification-sweep comparison.
    pub verify_sweep: SweepThroughput,
    /// Per-phase scheduler time breakdown (dedicated traced pass).
    pub phase_breakdown: PhaseBreakdown,
    /// Disabled-tracing cost comparison.
    pub trace_overhead: TraceOverhead,
    /// Chrome-exporter render micro-benchmark.
    pub render_bench: RenderBench,
}

fn family_populations(cfg: &ThroughputConfig) -> Vec<(String, Vec<Ddg>)> {
    let specfp_cap = if cfg.smoke { 2 } else { 6 };
    let mut specfp: Vec<Ddg> = Vec::new();
    for p in specfp_profiles() {
        specfp.extend(p.generate(cfg.seed).into_iter().take(specfp_cap));
    }
    let mut fams = vec![
        ("kernels".to_string(), kernels::all_kernels()),
        ("livermore".to_string(), livermore_suite()),
        (
            "doacross".to_string(),
            doacross_suite(cfg.seed)
                .into_iter()
                .map(|l| l.ddg)
                .collect(),
        ),
        ("specfp".to_string(), specfp),
        (
            "fuzz".to_string(),
            fuzz_ddgs(if cfg.smoke { 12 } else { cfg.fuzz }, cfg.seed),
        ),
    ];
    if cfg.smoke {
        for (_, loops) in &mut fams {
            loops.truncate(6);
        }
    }
    fams
}

/// Schedule every loop of `ddgs` with TMS under the given worker count,
/// returning the wall-clock seconds. The schedules themselves are
/// discarded (through [`black_box`] so the work is not optimised away).
fn time_family(ddgs: &[Ddg], jobs: Parallelism, cfg: &ExperimentConfig) -> f64 {
    let machine = cfg.machine();
    let arch = cfg.arch();
    let model = CostModel::new(arch.costs, arch.ncore);
    let tms_cfg = TmsConfig::default();
    let t0 = Instant::now();
    let results = par_map(jobs, ddgs, |_, ddg| {
        schedule_tms(ddg, &machine, &model, &tms_cfg)
            .map(|r| (r.ii, r.cost_key))
            .ok()
    });
    black_box(results);
    t0.elapsed().as_secs_f64()
}

fn ratio(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

/// One serial traced pass over `ddgs`, aggregating every `tms.phase.*`
/// timer. Runs apart from the timing passes so instrumentation cost
/// never leaks into the throughput numbers.
fn measure_phase_breakdown(family: &str, ddgs: &[Ddg], exp: &ExperimentConfig) -> PhaseBreakdown {
    let machine = exp.machine();
    let arch = exp.arch();
    let model = CostModel::new(arch.costs, arch.ncore);
    let tms_cfg = TmsConfig::default();
    let trace = Trace::enabled();
    for ddg in ddgs {
        black_box(
            schedule_tms_traced(ddg, &machine, &model, &tms_cfg, &trace)
                .map(|r| (r.ii, r.cost_key))
                .ok(),
        );
    }
    let timers = trace.timers_with_prefix("tms.phase.");
    let total_ns: u64 = timers.iter().map(|(_, h)| h.sum).sum();
    let mut phases: Vec<PhaseStat> = timers
        .into_iter()
        .map(|(name, h)| PhaseStat {
            phase: name.strip_prefix("tms.phase.").unwrap_or(&name).to_string(),
            calls: h.count,
            total_s: h.sum as f64 / 1e9,
            share: ratio(h.sum as f64, total_ns as f64),
            p50_ns: h.p50(),
            p95_ns: h.p95(),
        })
        .collect();
    phases.sort_by(|a, b| b.total_s.total_cmp(&a.total_s).then(a.phase.cmp(&b.phase)));
    PhaseBreakdown {
        family: family.to_string(),
        loops: ddgs.len(),
        phases,
    }
}

/// Measure the disabled-tracing overhead on `ddgs`, serial, best-of-
/// `reps` per variant. Variants are interleaved (b, d, e, b, d, e, …)
/// so slow drift in machine load hits all three alike.
fn measure_trace_overhead(ddgs: &[Ddg], reps: usize, exp: &ExperimentConfig) -> TraceOverhead {
    let machine = exp.machine();
    let arch = exp.arch();
    let model = CostModel::new(arch.costs, arch.ncore);
    let tms_cfg = TmsConfig::default();
    let time_pass = |trace: Option<&Trace>| {
        let t0 = Instant::now();
        for ddg in ddgs {
            let r = match trace {
                None => schedule_tms(ddg, &machine, &model, &tms_cfg),
                Some(t) => schedule_tms_traced(ddg, &machine, &model, &tms_cfg, t),
            };
            black_box(r.map(|r| (r.ii, r.cost_key)).ok());
        }
        t0.elapsed().as_secs_f64()
    };
    let disabled = Trace::disabled();
    let (mut baseline_s, mut disabled_s, mut enabled_s) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..reps.max(1) {
        baseline_s = baseline_s.min(time_pass(None));
        disabled_s = disabled_s.min(time_pass(Some(&disabled)));
        let enabled = Trace::enabled();
        enabled_s = enabled_s.min(time_pass(Some(&enabled)));
    }
    TraceOverhead {
        loops: ddgs.len(),
        reps: reps.max(1),
        baseline_s,
        disabled_trace_s: disabled_s,
        enabled_trace_s: enabled_s,
        disabled_overhead: ratio(disabled_s, baseline_s),
    }
}

/// Time the Chrome exporter on a synthetic trace of `events` records
/// (alternating virtual-time spans and counter samples, realistic arg
/// shapes), best-of-`reps`.
fn measure_render(events: usize, reps: usize) -> RenderBench {
    let trace = Trace::enabled();
    for i in 0..events as u64 {
        if i % 2 == 0 {
            trace.event_at(
                "sim.vthread",
                || format!("t{i}"),
                i % 8,
                i * 3,
                2,
                || {
                    vec![
                        ("thread", i.to_string()),
                        ("commit_end", (i * 3 + 2).to_string()),
                    ]
                },
            );
        } else {
            trace.counter_sample(
                "sim.vcounter",
                || "sim.prune.log_len".to_string(),
                0,
                i * 3,
                i % 13,
            );
        }
    }
    let mut render_s = f64::INFINITY;
    let mut bytes = 0usize;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let json = trace.chrome_json();
        render_s = render_s.min(t0.elapsed().as_secs_f64());
        bytes = json.len();
        black_box(json);
    }
    RenderBench {
        events,
        reps: reps.max(1),
        render_s,
        events_per_sec: ratio(events as f64, render_s),
        bytes,
    }
}

/// Run the whole benchmark.
pub fn run(cfg: &ThroughputConfig) -> ThroughputReport {
    let exp = ExperimentConfig::default();
    let fams = family_populations(cfg);
    let mut families = Vec::new();
    let (mut tot_loops, mut tot_serial, mut tot_parallel) = (0usize, 0.0f64, 0.0f64);
    for (name, ddgs) in &fams {
        // Parallel first, then serial: the first pass also warms the
        // workload generation caches out of the comparison.
        let parallel_s = time_family(ddgs, cfg.jobs, &exp);
        let serial_s = time_family(ddgs, Parallelism::Serial, &exp);
        tot_loops += ddgs.len();
        tot_serial += serial_s;
        tot_parallel += parallel_s;
        families.push(FamilyThroughput {
            family: name.clone(),
            loops: ddgs.len(),
            serial_s,
            parallel_s,
            speedup: ratio(serial_s, parallel_s),
            loops_per_sec_serial: ratio(ddgs.len() as f64, serial_s),
            loops_per_sec_parallel: ratio(ddgs.len() as f64, parallel_s),
        });
    }
    let total = FamilyThroughput {
        family: "total".to_string(),
        loops: tot_loops,
        serial_s: tot_serial,
        parallel_s: tot_parallel,
        speedup: ratio(tot_serial, tot_parallel),
        loops_per_sec_serial: ratio(tot_loops as f64, tot_serial),
        loops_per_sec_parallel: ratio(tot_loops as f64, tot_parallel),
    };

    // The verification sweep, serial vs parallel, with the reports
    // compared byte-for-byte — the determinism contract, enforced on
    // every benchmark run.
    let sweep_cfg = SweepConfig {
        seed: cfg.seed,
        fuzz: if cfg.smoke { 8 } else { 60 },
        specfp_cap: if cfg.smoke { 1 } else { 3 },
        no_sim: true,
        quick: true,
        jobs: Parallelism::Serial,
        ..Default::default()
    };
    let t0 = Instant::now();
    let serial_report = run_sweep(&sweep_cfg).report.to_json();
    let sweep_serial_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let parallel_report = run_sweep(&SweepConfig {
        jobs: cfg.jobs,
        ..sweep_cfg
    })
    .report
    .to_json();
    let sweep_parallel_s = t0.elapsed().as_secs_f64();

    // Per-phase breakdown on the heaviest family (specfp — it
    // dominates total scheduling time), traced apart from the timing
    // passes above.
    let phase_breakdown = {
        let (name, ddgs) = fams
            .iter()
            .find(|(name, _)| name == "specfp")
            .expect("specfp family always present");
        measure_phase_breakdown(name, ddgs, &exp)
    };

    // Disabled-tracing cost on the two hand-written families (stable
    // populations; large enough to time, small enough to repeat).
    let mut overhead_pop: Vec<Ddg> = kernels::all_kernels();
    if !cfg.smoke {
        overhead_pop.extend(livermore_suite());
    }
    let trace_overhead = measure_trace_overhead(&overhead_pop, if cfg.smoke { 1 } else { 3 }, &exp);
    let render_bench = if cfg.smoke {
        measure_render(2_000, 1)
    } else {
        measure_render(50_000, 3)
    };

    let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    ThroughputReport {
        jobs: cfg.jobs.workers(),
        available_parallelism,
        speedup_meaningful: available_parallelism > 1,
        smoke: cfg.smoke,
        seed: cfg.seed,
        families,
        total,
        verify_sweep: SweepThroughput {
            serial_s: sweep_serial_s,
            parallel_s: sweep_parallel_s,
            speedup: ratio(sweep_serial_s, sweep_parallel_s),
            reports_identical: serial_report == parallel_report,
        },
        phase_breakdown,
        trace_overhead,
        render_bench,
    }
}

/// Human-readable rendering of the report.
pub fn render(r: &ThroughputReport) -> String {
    let mut out = format!(
        "sched-throughput: jobs={} available={}{}{}\n\
         {:>10} {:>6} {:>9} {:>9} {:>8} {:>12} {:>12}\n",
        r.jobs,
        r.available_parallelism,
        if r.smoke { " (smoke)" } else { "" },
        if r.speedup_meaningful {
            ""
        } else {
            " (single core: speedup columns not meaningful)"
        },
        "family",
        "loops",
        "serial_s",
        "par_s",
        "speedup",
        "loops/s(1)",
        "loops/s(N)",
    );
    for f in r.families.iter().chain(std::iter::once(&r.total)) {
        out.push_str(&format!(
            "{:>10} {:>6} {:>9.3} {:>9.3} {:>7.2}x {:>12.1} {:>12.1}\n",
            f.family,
            f.loops,
            f.serial_s,
            f.parallel_s,
            f.speedup,
            f.loops_per_sec_serial,
            f.loops_per_sec_parallel,
        ));
    }
    out.push_str(&format!(
        "verify sweep: serial {:.3}s parallel {:.3}s ({:.2}x), reports identical: {}\n",
        r.verify_sweep.serial_s,
        r.verify_sweep.parallel_s,
        r.verify_sweep.speedup,
        r.verify_sweep.reports_identical,
    ));
    let phases = r
        .phase_breakdown
        .phases
        .iter()
        .map(|p| {
            format!(
                "{} {:.1}% ({:.3}s/{}, p50 {}ns p95 {}ns)",
                p.phase,
                p.share * 100.0,
                p.total_s,
                p.calls,
                p.p50_ns,
                p.p95_ns
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    out.push_str(&format!(
        "phase breakdown ({}, {} loops): {}\n",
        r.phase_breakdown.family, r.phase_breakdown.loops, phases,
    ));
    out.push_str(&format!(
        "trace overhead ({} loops, best of {}): baseline {:.3}s, \
         disabled {:.3}s ({:.3}x), enabled {:.3}s\n",
        r.trace_overhead.loops,
        r.trace_overhead.reps,
        r.trace_overhead.baseline_s,
        r.trace_overhead.disabled_trace_s,
        r.trace_overhead.disabled_overhead,
        r.trace_overhead.enabled_trace_s,
    ));
    out.push_str(&format!(
        "chrome render ({} events, best of {}): {:.3}s, {:.0} events/s, {} bytes\n",
        r.render_bench.events,
        r.render_bench.reps,
        r.render_bench.render_s,
        r.render_bench.events_per_sec,
        r.render_bench.bytes,
    ));
    out
}

/// Serialize and write the report, creating parent directories.
pub fn write(report: &ThroughputReport, path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let json = serde_json::to_string_pretty(report).expect("report serialises");
    std::fs::write(path, json + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_consistent_report() {
        let report = run(&ThroughputConfig {
            jobs: Parallelism::Jobs(2),
            smoke: true,
            ..Default::default()
        });
        assert_eq!(report.jobs, 2);
        assert!(report.smoke);
        assert_eq!(
            report.speedup_meaningful,
            report.available_parallelism > 1,
            "speedup_meaningful must mirror the host's core count"
        );
        if !report.speedup_meaningful {
            assert!(render(&report).contains("single core"));
        }
        assert_eq!(report.families.len(), 5);
        assert_eq!(
            report.total.loops,
            report.families.iter().map(|f| f.loops).sum::<usize>()
        );
        assert!(
            report.verify_sweep.reports_identical,
            "parallel sweep diverged from serial"
        );
        assert_eq!(report.phase_breakdown.family, "specfp");
        assert!(report.phase_breakdown.loops > 0);
        assert!(
            !report.phase_breakdown.phases.is_empty(),
            "no tms.phase.* timers fired in the traced pass"
        );
        let share_sum: f64 = report.phase_breakdown.phases.iter().map(|p| p.share).sum();
        assert!(
            (share_sum - 1.0).abs() < 1e-9,
            "phase shares must partition the total ({share_sum})"
        );
        for p in &report.phase_breakdown.phases {
            assert!(
                p.p50_ns <= p.p95_ns,
                "{}: p50 {} exceeds p95 {}",
                p.phase,
                p.p50_ns,
                p.p95_ns
            );
            assert!(
                p.calls == 0 || p.p95_ns > 0,
                "{}: fired but p95 is 0",
                p.phase
            );
        }
        for name in ["order", "ldp", "place", "verify"] {
            assert!(
                report
                    .phase_breakdown
                    .phases
                    .iter()
                    .any(|p| p.phase == name),
                "phase {name} missing from the breakdown"
            );
        }
        assert!(report.trace_overhead.loops > 0);
        assert!(report.trace_overhead.baseline_s > 0.0);
        assert!(report.trace_overhead.disabled_overhead > 0.0);
        assert!(report.render_bench.events > 0);
        assert!(report.render_bench.bytes > 0);
        assert!(report.render_bench.events_per_sec > 0.0);
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"verify_sweep\""));
        assert!(json.contains("\"phase_breakdown\""));
        assert!(json.contains("\"trace_overhead\""));
        assert!(json.contains("\"render_bench\""));
        assert!(render(&report).contains("phase breakdown"));
        assert!(render(&report).contains("trace overhead"));
        assert!(render(&report).contains("chrome render"));
    }
}
