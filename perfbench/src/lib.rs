//! End-to-end benchmark of the TMS reproduction: compile → simulate →
//! serve, with per-layer attribution.
//!
//! Three workloads drive the repository's layers through their public
//! entry points (see `perfbench/README.md` for the metric table):
//!
//! * [`Workload::SpecfpCompile`] — the 77 specfp-calibrated loops
//!   through SMS → TMS → verify → codegen/postpass → SpMT simulation of
//!   both schedules → sequential reference, at the paper's 400
//!   iterations. The TMS search dominates.
//! * [`Workload::DoacrossSim`] — the same pipeline on the Fig. 5
//!   DOACROSS loops plus the kernels and Livermore loops, at enough
//!   iterations that the simulator dominates.
//! * [`Workload::TmsdMixed`] — a `tmsd` daemon in a child process,
//!   driven in a closed loop over loopback TCP by a seeded stream of
//!   hot-set repeats (cache hits) and fresh fuzzed loops (misses).
//!
//! An untraced run gives the end-to-end metrics; a traced run
//! (`--trace 1`) wraps every layer call in a [`spans::Spans`] span,
//! passes an enabled [`tms_trace::Trace`] into the `*_traced` entry
//! points, and reports per-layer metrics plus the tracing overhead.

pub mod pipeline;
pub mod serve;
pub mod spans;

use std::fmt::Write as _;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SMS → TMS → verify → codegen → simulate on the specfp loops.
    SpecfpCompile,
    /// The same pipeline, simulator-heavy, on the DOACROSS, kernel and
    /// Livermore loops.
    DoacrossSim,
    /// A `tmsd` daemon under a mixed hit/miss request stream.
    TmsdMixed,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::SpecfpCompile,
        Workload::DoacrossSim,
        Workload::TmsdMixed,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SpecfpCompile => "specfp-compile",
            Workload::DoacrossSim => "doacross-sim",
            Workload::TmsdMixed => "tmsd-mixed",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Sample count behind a percentile or rate (shown, not emitted).
    pub samples: Option<usize>,
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted (loops through the pipeline, or requests).
    pub attempted: u64,
    /// Operations with at least one failed correctness check.
    pub failed: u64,
    /// Individual correctness checks made.
    pub checks: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Deterministic work counts, shown beside the timings.
    pub counts: Vec<(&'static str, f64)>,
    /// Human-readable sections (self-time tables and the like).
    pub notes: Vec<String>,
}

/// At most this many failure descriptions are kept.
const FAILURE_LOG_CAP: usize = 16;

impl Report {
    /// Record one operation's checks; `failures` empty means it passed.
    pub fn operation(&mut self, checks: u64, failures: Vec<String>) {
        self.attempted += 1;
        self.checks += checks;
        if !failures.is_empty() {
            self.failed += 1;
            for f in failures {
                if self.failures.len() < FAILURE_LOG_CAP {
                    self.failures.push(f);
                }
            }
        }
    }

    /// Fraction of attempted operations that failed.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// True when every check passed and something was attempted.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// Human-readable summary: every metric by name with its unit,
    /// then the deterministic counts and notes.
    pub fn render(&self, workload: Workload, seed: u64, traced: bool) -> String {
        let mut out = String::new();
        let mode = if traced { "traced" } else { "untraced" };
        let _ = writeln!(out, "== {} (seed {seed}, {mode}) ==", workload.name());
        for m in &self.metrics {
            let _ = match m.samples {
                Some(n) => writeln!(
                    out,
                    "{:<28} {:>14.6} {:<6} (n={n})",
                    m.name, m.value, m.unit
                ),
                None => writeln!(out, "{:<28} {:>14.6} {}", m.name, m.value, m.unit),
            };
        }
        let _ = writeln!(
            out,
            "{:<28} {:>14.6} ratio ({} of {} operations, {} checks)",
            "failed_frac",
            self.failed_frac(),
            self.failed,
            self.attempted,
            self.checks
        );
        if !self.counts.is_empty() {
            let _ = writeln!(out, "-- deterministic counts --");
            for (name, v) in &self.counts {
                let _ = writeln!(out, "{name:<28} {v}");
            }
        }
        for note in &self.notes {
            out.push_str(note);
        }
        for f in &self.failures {
            let _ = writeln!(out, "FAILED: {f}");
        }
        out
    }

    /// The single-line JSON result (the last line of standard output).
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    r#""{}":{{"value":{},"unit":"{}"}}"#,
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// splitmix64: the benchmark's own seeded stream (input selection
/// only; the program under test never sees it).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded from `seed` and a per-use `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` ≥ 1).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Nearest-rank percentile of `samples` (sorted in place), or `None`
/// when fewer than ten samples lie beyond it.
pub fn percentile(samples: &mut [f64], pct: f64) -> Option<f64> {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < 10 {
        return None;
    }
    Some(samples[rank - 1])
}

/// Median of `samples` (sorted in place); 0 when empty.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Geometric mean of positive ratios; 0 when empty.
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 0.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// one) in MiB, read from procfs.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kib / 1024.0)
}

/// Least time one block of set-up repetitions takes.
const SETUP_BLOCK_S: f64 = 0.25;

/// Blocks timed for a set-up figure.
const SETUP_BLOCKS: usize = 5;

/// Time between host probes while a set-up step repeats.
const SETUP_PROBE_EVERY_S: f64 = 0.025;

/// Time a set-up step: repeat `step` in blocks of at least
/// [`SETUP_BLOCK_S`] seconds of its own run time (and at least one
/// call), timing the host probe every [`SETUP_PROBE_EVERY_S`] of it;
/// take the mean time per call in each block, scaled to the reference
/// host speed by the probes around the block, and return the median
/// over [`SETUP_BLOCKS`] blocks together with the last call's output. A
/// short step is timed over many calls, so timer and scheduler noise
/// stay small beside it.
pub fn time_setup<T>(mut step: impl FnMut() -> T) -> (f64, T) {
    let mut per_call = Vec::with_capacity(SETUP_BLOCKS);
    let mut last = None;
    let mut log = ProbeLog::new();
    for _ in 0..SETUP_BLOCKS {
        let (t0, mut busy, mut next_probe, mut calls) = (log.now(), 0.0, 0.0, 0u32);
        while calls == 0 || busy < SETUP_BLOCK_S {
            if busy >= next_probe {
                log.probe();
                next_probe += SETUP_PROBE_EVERY_S;
            }
            let t = std::time::Instant::now();
            last = Some(step());
            busy += t.elapsed().as_secs_f64();
            calls += 1;
        }
        log.probe();
        per_call.push(at_ref_speed(
            busy / f64::from(calls),
            log.around(t0, log.now()),
        ));
    }
    let out = last.expect("every block makes at least one call");
    (median(&mut per_call), out)
}

/// Host probes within this long of a stretch of work count towards the
/// host speed it ran at. The host's speed moves over seconds, while a
/// single probe also carries millisecond jitter of its own; the median
/// over this window keeps the first and drops the second.
const PROBE_WINDOW_S: f64 = 0.25;

/// Least time between two host probes that [`ProbeLog::due`] asks for
/// inside a stretch of work.
const PROBE_EVERY_S: f64 = 0.1;

/// Host probes timed next to the work, each with the time it started.
#[derive(Debug, Clone)]
pub struct ProbeLog {
    start: std::time::Instant,
    probes: Vec<(f64, f64)>,
    /// Seconds spent inside probes so far.
    spent_s: f64,
    /// When the last probe ended, on the log's clock.
    last_end: f64,
}

impl Default for ProbeLog {
    fn default() -> ProbeLog {
        ProbeLog::new()
    }
}

impl ProbeLog {
    /// An empty log whose clock starts now.
    pub fn new() -> ProbeLog {
        ProbeLog {
            start: std::time::Instant::now(),
            probes: Vec::new(),
            spent_s: 0.0,
            last_end: 0.0,
        }
    }

    /// Seconds on the log's clock.
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Time the host probe now and record it.
    pub fn probe(&mut self) {
        let t = self.now();
        self.probes.push((t, host_probe_ms()));
        self.last_end = self.now();
        self.spent_s += self.last_end - t;
    }

    /// True when [`PROBE_EVERY_S`] has passed since the last probe, so
    /// that long work gets probes inside it, too.
    pub fn due(&self) -> bool {
        self.now() - self.last_end >= PROBE_EVERY_S
    }

    /// Seconds spent inside probes so far (to take out of the time of
    /// the work around them).
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }

    /// The host probe time (ms) around the stretch of work from `t0` to
    /// `t1` on the log's clock: the median of the probes that started
    /// within [`PROBE_WINDOW_S`] of it or inside it. Work bracketed by a
    /// probe on each side always has both in its window.
    pub fn around(&self, t0: f64, t1: f64) -> f64 {
        let lo = self
            .probes
            .partition_point(|&(t, _)| t < t0 - PROBE_WINDOW_S);
        let hi = self
            .probes
            .partition_point(|&(t, _)| t <= t1 + PROBE_WINDOW_S);
        median(
            &mut self.probes[lo..hi]
                .iter()
                .map(|&(_, ms)| ms)
                .collect::<Vec<_>>(),
        )
    }
}

/// On-CPU time of the calling thread in seconds, from
/// `/proc/thread-self/schedstat` (0 where that file is missing). Beside
/// the wall time it shows whether a slow stretch was time off the CPU
/// or the CPU itself running slower.
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 * 1e-9)
}

/// Milliseconds a fixed reference kernel takes: it formats a seeded
/// table into text, parses it back, and groups, sums and sorts the
/// records in a hash map, a B-tree and a vector. It runs through a broad
/// spread of library code in fresh heap allocations, as the program
/// does, but shares no code with the program under test, so no change
/// to the program moves it. Timed next to the work, it shows how fast
/// the host ran at that moment.
pub fn host_probe_ms() -> f64 {
    use std::collections::{BTreeMap, HashMap};
    const LINES: u64 = 1000;
    let t = std::time::Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut doc = String::new();
    for i in 0..LINES {
        let (a, b) = (rnd(), rnd());
        let _ = writeln!(
            doc,
            "{:>6} n{} {:x} {:.3} {:?}",
            i,
            a % 997,
            b & 0xFFFF,
            (a % 10_000) as f64 / 7.0,
            (b % 3, (a % 5) as u8)
        );
    }
    let mut groups: HashMap<String, Vec<u64>> = HashMap::new();
    let mut sums: BTreeMap<String, f64> = BTreeMap::new();
    for line in doc.lines() {
        let mut f = line.split_whitespace();
        let mut field = || f.next().unwrap_or("0");
        let i: u64 = field().parse().unwrap_or(0);
        let name = field().to_uppercase();
        let h = u64::from_str_radix(field(), 16).unwrap_or(0);
        let v: f64 = field().parse().unwrap_or(0.0);
        let rest = [field(), field()].join(" ").replace(['(', ')', ','], "");
        let digits = rest.chars().filter(|c| c.is_ascii_digit()).count() as u64;
        groups.entry(name.clone()).or_default().push(i ^ h ^ digits);
        *sums.entry(name).or_insert(0.0) += v;
    }
    let mut keys: Vec<(&String, &Vec<u64>)> = groups.iter().collect();
    keys.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(b.0)));
    std::hint::black_box(keys.len() as f64 + sums.values().sum::<f64>());
    t.elapsed().as_secs_f64() * 1e3
}

/// The probe time the pipelines' timings are scaled to. On the 2-vCPU
/// Xeon VM whose runs set the bounds the probe takes 0.6–2 ms, about
/// 1 ms at its usual speed, so the scaled figures read as that host's
/// milliseconds.
pub const REF_PROBE_MS: f64 = 1.0;

/// Scale a time measured while the host probe took `probe_ms` to the
/// host speed at which the probe takes [`REF_PROBE_MS`]. The host's
/// speed moves by a factor of two over seconds to minutes; the probe,
/// timed next to the work, slows down with it nearly in proportion, so
/// the scaled time moves with the program and much less with the host.
pub fn at_ref_speed(t: f64, probe_ms: f64) -> f64 {
    t * REF_PROBE_MS / probe_ms
}

/// Worker threads / connections the benchmark may use: at most two,
/// and never more than the machine's hardware threads.
pub fn lanes() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
        .clamp(1, 2)
}

/// End-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("loops_per_s", "1/s"),
    ("loop_ms_p50", "ms"),
    ("loop_ms_p95", "ms"),
    ("req_per_s", "1/s"),
    ("req_ms_p50", "ms"),
    ("req_ms_p95", "ms"),
    ("speedup_vs_sms", "ratio"),
    ("speedup_vs_seq", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run reports, with their units. A
/// layer a workload does not drive reports 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("workloads.gen_s", "s"),
    ("workloads.insts", "count"),
    ("sms.busy_s", "s"),
    ("sms.ii_over_mii", "ratio"),
    ("tms.busy_s", "s"),
    ("tms.calls", "count"),
    ("tms.attempts", "count"),
    ("tms.accept_ratio", "ratio"),
    ("tms.pruned", "count"),
    ("tms.fallbacks", "count"),
    ("tms.max_loop_s", "s"),
    ("tms.steps_replayed", "count"),
    ("tms.steps_executed", "count"),
    ("tms.replay_ratio", "ratio"),
    ("tms.place_share", "ratio"),
    ("verify.busy_s", "s"),
    ("verify.violations", "count"),
    ("codegen.busy_s", "s"),
    ("codegen.instances", "count"),
    ("postpass.comms", "count"),
    ("sim.spmt_busy_s", "s"),
    ("sim.seq_busy_s", "s"),
    ("sim.cycles", "count"),
    ("sim.cycles_per_s", "1/s"),
    ("sim.misspeculations", "count"),
    ("sim.squash_ratio", "ratio"),
    ("sim.image_mismatches", "count"),
    ("daemon.parse_busy_s", "s"),
    ("daemon.hit_process_ms_p50", "ms"),
    ("daemon.miss_process_ms_p50", "ms"),
    ("daemon.wire_ms_p50", "ms"),
    ("daemon.hit_wire_ms_p50", "ms"),
    ("daemon.miss_wire_ms_p50", "ms"),
    ("daemon.hit_ratio", "ratio"),
    ("daemon.batch_size_mean", "count"),
    ("daemon.queue_depth_max", "count"),
    ("daemon.shed", "count"),
    ("daemon.errors", "count"),
    ("trace.overhead_frac", "ratio"),
    ("host.probe_ms", "ms"),
];

/// Metric values collected by a run, emitted in the order (and with
/// the units) of [`END_TO_END`] or [`PER_LAYER`].
#[derive(Debug, Default)]
pub struct Metrics(std::collections::BTreeMap<&'static str, (f64, Option<usize>)>);

impl Metrics {
    /// Set one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, (value, None));
    }

    /// Set one metric measured over `n` samples.
    pub fn set_n(&mut self, name: &'static str, value: f64, n: usize) {
        self.0.insert(name, (value, Some(n)));
    }

    /// Set the `p50`/`p95` pair of latency metrics, or fail when the
    /// samples leave fewer than ten beyond p95.
    pub fn latency(
        &mut self,
        p50: &'static str,
        p95: &'static str,
        samples_ms: &mut [f64],
    ) -> Result<(), String> {
        let n = samples_ms.len();
        let hi = percentile(samples_ms, 95.0)
            .ok_or_else(|| format!("{p95}: {n} samples leave fewer than ten beyond p95"))?;
        let mid = percentile(samples_ms, 50.0).ok_or_else(|| format!("{p50}: {n} samples"))?;
        self.set_n(p50, mid, n);
        self.set_n(p95, hi, n);
        Ok(())
    }

    fn emit(
        &self,
        list: &[(&'static str, &'static str)],
        missing: Option<f64>,
    ) -> Result<Vec<Metric>, String> {
        list.iter()
            .map(|&(name, unit)| {
                let (value, samples) = match (self.0.get(name), missing) {
                    (Some(&v), _) => v,
                    (None, Some(v)) => (v, None),
                    (None, None) => return Err(format!("{name} was not measured")),
                };
                if !value.is_finite() {
                    return Err(format!("{name} is not a finite number ({value})"));
                }
                Ok(Metric {
                    name,
                    value,
                    unit,
                    samples,
                })
            })
            .collect()
    }

    /// Every [`END_TO_END`] metric; each must have been set.
    pub fn end_to_end(&self) -> Result<Vec<Metric>, String> {
        self.emit(&END_TO_END, None)
    }

    /// Every [`PER_LAYER`] metric, 0 for layers this workload skips.
    pub fn per_layer(&self) -> Result<Vec<Metric>, String> {
        debug_assert!(
            self.0.keys().all(|k| PER_LAYER.iter().any(|(n, _)| n == k)),
            "a per-layer metric is missing from PER_LAYER"
        );
        self.emit(&PER_LAYER, Some(0.0))
    }
}

/// Write `text` to `path`, creating its directory.
pub fn write_file(path: &std::path::Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Options shared by every workload run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workload seed: selects the generated inputs.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Where the traced run writes its Chrome trace and self-time table.
    pub out_dir: std::path::PathBuf,
    /// At most this many loops per pipeline population, spread evenly
    /// over it (tests use a few so that runs stay short; the run and its
    /// metrics are otherwise the same). `None` runs the whole population.
    pub cap: Option<usize>,
    /// Simulated iterations per loop on the pipelines, in place of the
    /// workload's own count (tests use fewer). `None` keeps the
    /// workload's count.
    pub iterations: Option<u64>,
    /// The executable whose `serve` mode runs the `tmsd` daemon (this
    /// benchmark's own binary).
    pub daemon_exe: std::path::PathBuf,
}

/// Run one workload.
pub fn run(workload: Workload, opts: &RunOptions) -> Result<Report, String> {
    match workload {
        Workload::SpecfpCompile => pipeline::run(pipeline::Population::Specfp, opts),
        Workload::DoacrossSim => pipeline::run(pipeline::Population::Doacross, opts),
        Workload::TmsdMixed => serve::run(opts),
    }
}
