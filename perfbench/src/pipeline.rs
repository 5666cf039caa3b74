//! The compile → simulate pipeline workloads (`specfp-compile`,
//! `doacross-sim`).
//!
//! Per loop: SMS baseline → TMS search → `verify_schedule` on both
//! schedules → codegen + post-pass on both → SpMT simulation of both →
//! sequential reference. Every loop of one pass shares one span id.
//! Whole passes over the population repeat until the window is over,
//! and every pass must reproduce the first pass's counts exactly.
//!
//! The loop bodies are the paper's fixed populations (generated from
//! the same seeds as `results/bench_sched.json` and `results/fig5.json`);
//! the workload seed selects the address streams, and with them the
//! dependence-aliasing draws, that the simulator runs them on.

use crate::spans::{chrome_json, LayerTable, Spans};
use crate::{
    at_ref_speed, geomean, median, peak_rss_mb, percentile, thread_cpu_s, time_setup, write_file,
    Metrics, ProbeLog, Report, RunOptions,
};
use std::time::Instant;
use tms_core::cost::CostModel;
use tms_core::diagnostics::{verify_schedule, VerifyLimits};
use tms_core::schedule::Schedule;
use tms_core::{schedule_sms, schedule_tms_traced, CommPlan, PipelinedLoop, TmsConfig};
use tms_ddg::Ddg;
use tms_machine::{mii, ArchParams, MachineModel};
use tms_sim::{simulate_sequential, simulate_spmt_traced, SimConfig};
use tms_trace::Trace;
use tms_workloads::{doacross_suite, kernels, livermore_suite, specfp_profiles};

/// Loops per specfp benchmark profile (the `bench_sched.json`
/// population: 6 per profile, 77 loops).
const SPECFP_PER_PROFILE: usize = 6;

/// The paper's simulated iteration count (Fig. 4).
const SPECFP_ITERS: u64 = 400;

/// Iterations for `doacross-sim`: simulation takes about 68% of the
/// pipeline's wall time, and ten passes (the 200 samples p95 needs) fit
/// in a 30 s window. The TMS search costs a fixed ~1 s per pass, so 80%
/// simulation would need 40–50 s runs.
const DOACROSS_ITERS: u64 = 10_000;

/// Generator seed of the specfp population (`sched_throughput`'s).
const SPECFP_GEN_SEED: u64 = 0x7315_2008;

/// Generator seed of the DOACROSS suite (the paper experiments').
const DOACROSS_GEN_SEED: u64 = 0x1CC9_2008;

/// Cores of the simulated SpMT system (the paper's quad-core).
const NCORE: u32 = 4;

/// Loop-latency samples a run needs so that ten lie beyond its p95.
const MIN_SAMPLES: usize = 200;

/// Which loop population a pipeline workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Population {
    /// The first 6 loops of each specfp profile.
    Specfp,
    /// The 7 Fig. 5 DOACROSS loops + 6 kernels + 8 Livermore loops.
    Doacross,
}

impl Population {
    /// The workload that runs this population.
    pub fn workload(self) -> crate::Workload {
        match self {
            Population::Specfp => crate::Workload::SpecfpCompile,
            Population::Doacross => crate::Workload::DoacrossSim,
        }
    }

    fn iterations(self) -> u64 {
        match self {
            Population::Specfp => SPECFP_ITERS,
            Population::Doacross => DOACROSS_ITERS,
        }
    }

    /// Generate the population, or `cap` loops spread evenly over it.
    pub fn generate(self, cap: Option<usize>) -> Vec<Ddg> {
        let loops: Vec<Ddg> = match self {
            Population::Specfp => specfp_profiles()
                .iter()
                .flat_map(|p| {
                    p.generate(SPECFP_GEN_SEED)
                        .into_iter()
                        .take(SPECFP_PER_PROFILE)
                })
                .collect(),
            Population::Doacross => doacross_suite(DOACROSS_GEN_SEED)
                .into_iter()
                .map(|l| l.ddg)
                .chain(kernels::all_kernels())
                .chain(livermore_suite())
                .collect(),
        };
        match cap {
            Some(cap) if cap < loops.len() => {
                let stride = loops.len() / cap.max(1);
                loops.into_iter().step_by(stride).take(cap).collect()
            }
            _ => loops,
        }
    }
}

/// Everything a loop's pipeline run produces that must repeat exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoopCounts {
    /// TMS attempts dispatched.
    pub attempts: u64,
    /// TMS candidates pruned without dispatch.
    pub pruned: u64,
    /// TMS fell back to the SMS schedule.
    pub fell_back: bool,
    /// II of the SMS schedule.
    pub sms_ii: u32,
    /// MII of the loop.
    pub mii: u32,
    /// `verify_schedule` diagnostics over both schedules.
    pub violations: u64,
    /// Instances the generated code executes, both schedules.
    pub instances: u64,
    /// Post-pass communications, both schedules.
    pub comms: u64,
    /// SpMT cycles of the SMS schedule.
    pub sms_cycles: u64,
    /// SpMT cycles of the TMS schedule.
    pub tms_cycles: u64,
    /// Sequential reference cycles.
    pub seq_cycles: u64,
    /// Misspeculations over both SpMT runs.
    pub misspeculations: u64,
    /// Squashed cycles over both SpMT runs.
    pub squashed_cycles: u64,
    /// SpMT memory images differing from the sequential one.
    pub image_mismatches: u64,
}

/// Fixed configuration shared by every loop of a run.
struct Setup {
    machine: MachineModel,
    arch: ArchParams,
    model: CostModel,
    tms: TmsConfig,
    sim: SimConfig,
}

impl Setup {
    fn new(seed: u64, n_iter: u64) -> Setup {
        let arch = ArchParams::with_ncore(NCORE);
        Setup {
            machine: MachineModel::icpp2008(),
            model: CostModel::new(arch.costs, NCORE),
            tms: TmsConfig::default(),
            sim: SimConfig {
                arch: arch.clone(),
                n_iter,
                seed,
                model_caches: true,
                detect_violations: true,
                collect_trace: false,
            },
            arch,
        }
    }
}

/// One loop through the pipeline.
struct LoopRun {
    counts: LoopCounts,
    tms_s: f64,
    checks: u64,
    failures: Vec<String>,
}

/// Generate code for `schedule` and check it executes every instance
/// exactly once. Returns `(instances, communications)`.
fn codegen(ddg: &Ddg, schedule: &Schedule, n_iter: u64, failures: &mut Vec<String>) -> (u64, u64) {
    let code = PipelinedLoop::generate(ddg, schedule);
    let plan = CommPlan::build(ddg, schedule);
    let instances = code.total_instances(n_iter);
    let want = n_iter * ddg.num_insts() as u64;
    if instances != want {
        failures.push(format!(
            "{}: codegen emits {instances} instances, want {want}",
            ddg.name()
        ));
    }
    (instances, plan.communications.len() as u64)
}

/// Between two layer calls of a loop: time the host probe if one is
/// due, so that a long loop's host speed is sampled inside it.
fn probe_between(spans: &mut Spans, log: &mut ProbeLog, id: u64) {
    if log.due() {
        spans.scope("probe", id, || log.probe());
    }
}

fn run_loop(
    s: &Setup,
    ddg: &Ddg,
    id: u64,
    spans: &mut Spans,
    trace: &Trace,
    log: &mut ProbeLog,
) -> LoopRun {
    let name = ddg.name();
    let mut c = LoopCounts {
        mii: mii(ddg, &s.machine),
        ..LoopCounts::default()
    };
    let mut failures = Vec::new();
    let fail = |failures: &mut Vec<String>, msg: String| failures.push(format!("{name}: {msg}"));

    let sms = match spans.scope("sms", id, || schedule_sms(ddg, &s.machine)) {
        Ok(r) => r.schedule,
        Err(e) => {
            fail(&mut failures, format!("SMS failed: {e:?}"));
            return LoopRun {
                counts: c,
                tms_s: 0.0,
                checks: 1,
                failures,
            };
        }
    };
    c.sms_ii = sms.ii();
    probe_between(spans, log, id);

    let t = Instant::now();
    let tms = spans.scope("tms", id, || {
        schedule_tms_traced(ddg, &s.machine, &s.model, &s.tms, trace)
    });
    let tms_s = t.elapsed().as_secs_f64();
    probe_between(spans, log, id);
    let tms = match tms {
        Ok(r) => r,
        Err(e) => {
            fail(&mut failures, format!("TMS failed: {e:?}"));
            return LoopRun {
                counts: c,
                tms_s,
                checks: 2,
                failures,
            };
        }
    };
    c.attempts = tms.attempts as u64;
    c.pruned = tms.pruned as u64;
    c.fell_back = tms.fell_back_to_sms;

    // Both schedules must hold every invariant; TMS under the
    // thresholds it was accepted with (as `tms-verify` checks it).
    let min_stages = (tms.ldp as u32).div_ceil(tms.ii.max(1)).max(1);
    let tms_limits = VerifyLimits {
        c_delay: Some(tms.c_delay_threshold),
        p_max: Some(tms.p_max),
        max_stages: (!tms.fell_back_to_sms).then_some(min_stages + s.tms.max_extra_stages),
    };
    let diags = spans.scope("verify", id, || {
        let mut d = verify_schedule(
            ddg,
            &sms,
            &s.machine,
            &s.arch.costs,
            &VerifyLimits::default(),
        );
        d.extend(verify_schedule(
            ddg,
            &tms.schedule,
            &s.machine,
            &s.arch.costs,
            &tms_limits,
        ));
        d
    });
    c.violations = diags.len() as u64;
    if let Some(d) = diags.first() {
        fail(
            &mut failures,
            format!("{} schedule violation(s), first: {d}", diags.len()),
        );
    }

    probe_between(spans, log, id);
    let n_iter = s.sim.n_iter;
    spans.scope("codegen", id, || {
        for sched in [&sms, &tms.schedule] {
            let (inst, comms) = codegen(ddg, sched, n_iter, &mut failures);
            c.instances += inst;
            c.comms += comms;
        }
    });

    probe_between(spans, log, id);
    let seq = spans.scope("sim.seq", id, || {
        simulate_sequential(ddg, &s.machine, &s.sim)
    });
    c.seq_cycles = seq.total_cycles;
    for (tag, sched) in [("SMS", &sms), ("TMS", &tms.schedule)] {
        probe_between(spans, log, id);
        let out = spans.scope("sim.spmt", id, || {
            simulate_spmt_traced(ddg, sched, &s.sim, trace)
        });
        if tag == "SMS" {
            c.sms_cycles = out.stats.total_cycles;
        } else {
            c.tms_cycles = out.stats.total_cycles;
        }
        c.misspeculations += out.stats.misspeculations;
        c.squashed_cycles += out.stats.squashed_cycles;
        if out.memory_image != seq.memory_image {
            c.image_mismatches += 1;
            fail(
                &mut failures,
                format!("{tag} SpMT memory image differs from sequential"),
            );
        }
    }
    if c.sms_cycles == 0 || c.tms_cycles == 0 || c.seq_cycles == 0 {
        fail(
            &mut failures,
            "a simulation reported zero cycles".to_string(),
        );
    }
    // Checks: SMS, TMS, verify, codegen ×2, images ×2, cycles.
    LoopRun {
        counts: c,
        tms_s,
        checks: 8,
        failures,
    }
}

/// Result of one pass over the population.
struct Pass {
    counts: Vec<LoopCounts>,
    latencies_ms: Vec<f64>,
    /// Per loop, the host probe time around it (ms).
    host_ms: Vec<f64>,
    max_tms_s: f64,
    wall_s: f64,
    /// On-CPU time of the pass's thread.
    cpu_s: f64,
}

impl Pass {
    /// The pass's loop latencies summed, each scaled to the reference
    /// host speed (ms).
    fn scaled_ms(&self) -> f64 {
        self.latencies_ms
            .iter()
            .zip(&self.host_ms)
            .map(|(&ms, &probe)| at_ref_speed(ms, probe))
            .sum()
    }
}

fn run_pass(
    s: &Setup,
    loops: &[Ddg],
    spans: &mut Spans,
    trace: &Trace,
    reference: Option<&[LoopCounts]>,
    report: &mut Report,
) -> Pass {
    let (start, cpu) = (Instant::now(), thread_cpu_s());
    let mut pass = Pass {
        counts: Vec::with_capacity(loops.len()),
        latencies_ms: Vec::with_capacity(loops.len()),
        host_ms: Vec::with_capacity(loops.len()),
        max_tms_s: 0.0,
        wall_s: 0.0,
        cpu_s: 0.0,
    };
    // A host probe before the first loop, after every loop, and between
    // the layer calls of a long loop; a loop's latency leaves out the
    // probes inside it.
    let mut log = ProbeLog::new();
    let mut stretches = Vec::with_capacity(loops.len());
    log.probe();
    for (i, ddg) in loops.iter().enumerate() {
        let id = i as u64;
        let (t, t0, spent) = (Instant::now(), log.now(), log.spent_s());
        let root = spans.begin("loop", id);
        let mut run = run_loop(s, ddg, id, spans, trace, &mut log);
        spans.end(root);
        let busy_s = t.elapsed().as_secs_f64() - (log.spent_s() - spent);
        pass.latencies_ms.push(busy_s * 1e3);
        stretches.push((t0, log.now()));
        log.probe();
        pass.max_tms_s = pass.max_tms_s.max(run.tms_s);
        if let Some(reference) = reference {
            run.checks += 1;
            if reference[i] != run.counts {
                run.failures
                    .push(format!("{}: counts differ from the first pass", ddg.name()));
            }
        }
        report.operation(run.checks, run.failures);
        pass.counts.push(run.counts);
    }
    pass.host_ms = stretches
        .iter()
        .map(|&(t0, t1)| log.around(t0, t1))
        .collect();
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.cpu_s = thread_cpu_s() - cpu;
    pass
}

/// Pass totals of the deterministic counts.
fn totals(counts: &[LoopCounts]) -> LoopCounts {
    let mut t = LoopCounts::default();
    for c in counts {
        t.attempts += c.attempts;
        t.pruned += c.pruned;
        t.violations += c.violations;
        t.instances += c.instances;
        t.comms += c.comms;
        t.sms_cycles += c.sms_cycles;
        t.tms_cycles += c.tms_cycles;
        t.seq_cycles += c.seq_cycles;
        t.misspeculations += c.misspeculations;
        t.squashed_cycles += c.squashed_cycles;
        t.image_mismatches += c.image_mismatches;
    }
    t
}

/// Geomeans over loops of SMS÷TMS and sequential÷TMS SpMT cycles.
fn speedups(counts: &[LoopCounts]) -> (f64, f64) {
    let ok = |c: &&LoopCounts| c.tms_cycles > 0 && c.sms_cycles > 0 && c.seq_cycles > 0;
    let vs_sms: Vec<f64> = counts
        .iter()
        .filter(ok)
        .map(|c| c.sms_cycles as f64 / c.tms_cycles as f64)
        .collect();
    let vs_seq: Vec<f64> = counts
        .iter()
        .filter(ok)
        .map(|c| c.seq_cycles as f64 / c.tms_cycles as f64)
        .collect();
    (geomean(&vs_sms), geomean(&vs_seq))
}

/// Per pass, the wall time, the thread's on-CPU share and the median
/// host probe, and the run's unscaled figures, so that a slow run can
/// be told apart from a slow host.
fn unscaled_note(passes: &[Pass], loops: usize) -> String {
    let show = |f: &dyn Fn(&Pass) -> f64, prec: usize| -> String {
        passes
            .iter()
            .map(|p| format!("{:.prec$}", f(p)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let mut raw: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    let p50 = percentile(&mut raw, 50.0).unwrap_or(0.0);
    let p95 = percentile(&mut raw, 95.0).unwrap_or(0.0);
    format!(
        "pass wall times (s): {}\npass on-CPU share: {}\npass median host probe (ms): {}\n\
         unscaled: {:.3} loops/s (median pass), loop p50 {p50:.3} ms, p95 {p95:.3} ms\n",
        show(&|p| p.wall_s, 3),
        show(&|p| p.cpu_s / p.wall_s, 3),
        show(&|p| median(&mut p.host_ms.clone()), 3),
        loops as f64 / median(&mut walls),
    )
}

/// Run a pipeline workload.
pub fn run(pop: Population, opts: &RunOptions) -> Result<Report, String> {
    // Set-up: input generation, timed over many repetitions.
    let (setup_s, loops) = time_setup(|| pop.generate(opts.cap));
    if loops.is_empty() {
        return Err("empty loop population".to_string());
    }
    let s = Setup::new(opts.seed, opts.iterations.unwrap_or(pop.iterations()));
    let mut report = Report::default();
    let origin = Instant::now();
    let off = Trace::disabled();
    let mut quiet = Spans::new(false, origin, 0);

    // The first pass fixes the reference counts every later pass must
    // reproduce.
    let first = run_pass(&s, &loops, &mut quiet, &off, None, &mut report);
    let reference = first.counts.clone();
    let t = totals(&reference);
    let (vs_sms, vs_seq) = speedups(&reference);
    report.counts = vec![
        ("loops", loops.len() as f64),
        (
            "workloads.insts",
            loops.iter().map(|d| d.num_insts() as f64).sum(),
        ),
        ("tms.attempts", t.attempts as f64),
        ("tms.pruned", t.pruned as f64),
        (
            "sim.cycles",
            (t.sms_cycles + t.tms_cycles + t.seq_cycles) as f64,
        ),
        ("sim.misspeculations", t.misspeculations as f64),
        ("codegen.instances", t.instances as f64),
        ("postpass.comms", t.comms as f64),
        ("speedup_vs_sms", vs_sms),
        ("speedup_vs_seq", vs_seq),
    ];

    if !opts.trace {
        let mut passes = vec![first];
        while origin.elapsed().as_secs_f64() < opts.seconds
            || passes.len() * loops.len() < MIN_SAMPLES
        {
            passes.push(run_pass(
                &s,
                &loops,
                &mut quiet,
                &off,
                Some(&reference),
                &mut report,
            ));
        }
        // Every loop latency scaled to the reference host speed by the
        // probes around it, gathered per loop over the passes.
        let mut per_loop = vec![Vec::with_capacity(passes.len()); loops.len()];
        for p in &passes {
            for (i, (&ms, &probe)) in p.latencies_ms.iter().zip(&p.host_ms).enumerate() {
                per_loop[i].push(at_ref_speed(ms, probe));
            }
        }
        let mut lat: Vec<f64> = per_loop.iter().flatten().copied().collect();
        // A pass at the reference speed: every loop at its median scaled
        // latency, so a loop that ran while the host was slow does not
        // move it.
        let pass_ms: f64 = per_loop.iter_mut().map(|v| median(v)).sum();
        let rate = loops.len() as f64 / (pass_ms / 1e3);
        report.notes.push(unscaled_note(&passes, loops.len()));
        let n = lat.len();
        let mut m = Metrics::default();
        m.set("setup_s", setup_s);
        m.set_n("loops_per_s", rate, n);
        m.set_n("req_per_s", rate, n);
        m.latency("loop_ms_p50", "loop_ms_p95", &mut lat)?;
        m.latency("req_ms_p50", "req_ms_p95", &mut lat)?;
        m.set("speedup_vs_sms", vs_sms);
        m.set("speedup_vs_seq", vs_seq);
        m.set("peak_rss_mb", peak_rss_mb("self")?);
        report.metrics = m.end_to_end()?;
        return Ok(report);
    }

    // Traced run: alternate untraced and traced passes over the same
    // inputs; the per-layer numbers come from the traced passes.
    let mut spans = Spans::new(true, origin, 0);
    let trace = Trace::enabled();
    // Tracing overhead compares the passes' latencies scaled to the
    // reference host speed, so that the host's drift between the two
    // kinds of pass does not show as overhead.
    let (mut plain_ms, mut plain_n) = (first.scaled_ms(), 1usize);
    let (mut traced_ms, mut traced_n) = (0.0, 0usize);
    let mut max_tms_s: f64 = 0.0;
    let mut probes_ms = Vec::new();
    loop {
        let p = run_pass(
            &s,
            &loops,
            &mut spans,
            &trace,
            Some(&reference),
            &mut report,
        );
        traced_ms += p.scaled_ms();
        traced_n += 1;
        probes_ms.extend(p.host_ms);
        max_tms_s = max_tms_s.max(p.max_tms_s);
        if origin.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
        let p = run_pass(&s, &loops, &mut quiet, &off, Some(&reference), &mut report);
        plain_ms += p.scaled_ms();
        plain_n += 1;
    }
    let mut table = LayerTable::default();
    table.add(&spans);
    let per = |v: f64| v / traced_n as f64;
    let cnt = |name: &str| per(trace.counter(name) as f64);

    let mut lm = Metrics::default();
    lm.set("workloads.gen_s", setup_s);
    lm.set(
        "workloads.insts",
        loops.iter().map(|d| d.num_insts() as f64).sum(),
    );
    lm.set("sms.busy_s", per(table.total_s("sms")));
    let ii_ratio: Vec<f64> = reference
        .iter()
        .map(|c| c.sms_ii as f64 / c.mii.max(1) as f64)
        .collect();
    lm.set(
        "sms.ii_over_mii",
        ii_ratio.iter().sum::<f64>() / ii_ratio.len() as f64,
    );
    let tms_busy = per(table.total_s("tms"));
    lm.set("tms.busy_s", tms_busy);
    lm.set("tms.calls", loops.len() as f64);
    lm.set("tms.attempts", t.attempts as f64);
    lm.set(
        "tms.accept_ratio",
        loops.len() as f64 / t.attempts.max(1) as f64,
    );
    lm.set("tms.pruned", t.pruned as f64);
    lm.set(
        "tms.fallbacks",
        reference.iter().filter(|c| c.fell_back).count() as f64,
    );
    lm.set("tms.max_loop_s", max_tms_s);
    let replayed = cnt("tms.reuse.steps-replayed");
    let executed = cnt("tms.reuse.steps-executed");
    lm.set("tms.steps_replayed", replayed);
    lm.set("tms.steps_executed", executed);
    lm.set(
        "tms.replay_ratio",
        replayed / (replayed + executed).max(1.0),
    );
    let place_s = trace.timer_stats("tms.phase.place").map_or(0, |h| h.sum) as f64 * 1e-9;
    lm.set(
        "tms.place_share",
        per(place_s) / tms_busy.max(f64::MIN_POSITIVE),
    );
    lm.set("verify.busy_s", per(table.total_s("verify")));
    lm.set("verify.violations", t.violations as f64);
    lm.set("codegen.busy_s", per(table.total_s("codegen")));
    lm.set("codegen.instances", t.instances as f64);
    lm.set("postpass.comms", t.comms as f64);
    let spmt_s = per(table.total_s("sim.spmt"));
    let seq_s = per(table.total_s("sim.seq"));
    let cycles = (t.sms_cycles + t.tms_cycles + t.seq_cycles) as f64;
    lm.set("sim.spmt_busy_s", spmt_s);
    lm.set("sim.seq_busy_s", seq_s);
    lm.set("sim.cycles", cycles);
    lm.set(
        "sim.cycles_per_s",
        cycles / (spmt_s + seq_s).max(f64::MIN_POSITIVE),
    );
    lm.set("sim.misspeculations", t.misspeculations as f64);
    lm.set(
        "sim.squash_ratio",
        t.squashed_cycles as f64 / (t.sms_cycles + t.tms_cycles).max(1) as f64,
    );
    lm.set("sim.image_mismatches", t.image_mismatches as f64);
    lm.set(
        "trace.overhead_frac",
        (traced_ms / traced_n as f64) / (plain_ms / plain_n as f64) - 1.0,
    );
    lm.set("host.probe_ms", median(&mut probes_ms));
    report.metrics = lm.per_layer()?;
    report.notes.push(table.render(&format!(
        "per-layer self time over {traced_n} traced pass(es) of {} loops",
        loops.len()
    )));
    let path = opts
        .out_dir
        .join(format!("{}.trace.json", pop.workload().name()));
    write_file(&path, &chrome_json(&[(1, &spans)]))?;
    report
        .notes
        .push(format!("chrome trace: {}\n", path.display()));
    Ok(report)
}
