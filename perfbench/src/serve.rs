//! The `tmsd-mixed` workload: a `tmsd` daemon under a seeded mix of
//! cache hits and misses.
//!
//! The daemon runs in a child process (this binary's `serve` mode:
//! `tms_daemon::serve`, memory-only cache, at most [`lanes`] worker
//! jobs). The client is this process: [`lanes`] connections, one
//! thread each, one request in flight per connection (closed loop),
//! `TCP_NODELAY` on every socket, each request line sent with one
//! write. The hot set — every kernel and Livermore loop at each
//! `ncore` in [`NCORES`] — is warmed into the cache during set-up, so
//! the hit/miss split of a seed's stream is fixed: each round of
//! [`ROUND`] requests holds [`FRESH_PER_ROUND`] fresh fuzzed loops
//! (misses) and hot-set repeats (hits) in a seeded order.

use crate::spans::{chrome_json, LayerTable, Spans};
use crate::{
    geomean, host_probe_ms, lanes, median, peak_rss_mb, percentile, write_file, Metrics, Report,
    Rng, RunOptions,
};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tms_core::diagnostics::{verify_schedule, VerifyLimits};
use tms_core::schedule::Schedule;
use tms_core::schedule_sms;
use tms_daemon::{parse_request, DaemonConfig, Engine, Request};
use tms_ddg::Ddg;
use tms_machine::{ArchParams, MachineModel};
use tms_sim::{simulate_sequential, simulate_spmt, SimConfig};
use tms_trace::{MetricsSnapshot, Trace};
use tms_verify::fuzz::fuzz_spec;
use tms_workloads::{generate_loop, kernels, livermore_suite};

/// Core counts of the hot set.
pub const NCORES: [u32; 3] = [2, 4, 8];
/// Requests per round of the stream.
pub const ROUND: u64 = 100;
/// Fresh fuzzed loops (cache misses) per round.
pub const FRESH_PER_ROUND: u64 = 20;
/// Round-trip samples a run needs so that ten lie beyond its p95.
pub const MIN_SAMPLES: u64 = 200;
/// Iterations simulated when checking the served hot-set kernels.
const SIM_ITERS: u64 = 400;
/// Fuzz seed of the fresh loops. They are one fixed population, in
/// every stream: the seed orders them among the hot-set repeats. The
/// daemon's peak memory is set by the most memory-hungry loop it
/// schedules, so fresh loops drawn per seed made `peak_rss_mb` follow
/// the seed (10.4–16.5 MB over ten seeds) rather than the daemon.
const FUZZ_SEED: u64 = 0x7D5D;
/// Set-ups timed for `setup_s` (each starts a daemon and warms the hot
/// set, so fewer than the pipelines' input-only set-ups).
const SETUP_REPS: usize = 3;
/// Longest a client waits for one reply before declaring the daemon
/// stuck.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One line-oriented client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
    reply: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("read timeout: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            out: Vec::new(),
            reply: String::new(),
        })
    }

    /// Send one request line (a single write) and read its reply.
    fn call(&mut self, line: &str) -> Result<&str, String> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer
            .write_all(&self.out)
            .map_err(|e| format!("send: {e}"))?;
        self.reply.clear();
        match self.reader.read_line(&mut self.reply) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) => Ok(self.reply.trim_end()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// The daemon child process; killed and reaped on drop if still alive.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    /// Start a daemon; `traced` turns its `Trace` on.
    fn start(exe: &Path, traced: bool) -> Result<Daemon, String> {
        let child = Command::new(exe)
            .args(["serve", "--jobs", &lanes().to_string(), "--trace"])
            .arg(if traced { "1" } else { "0" })
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        // From here on an early return drops (kills and reaps) the child.
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let out = daemon
            .child
            .stdout
            .take()
            .ok_or("daemon has no stdout pipe")?;
        let mut first = String::new();
        BufReader::new(out)
            .read_line(&mut first)
            .map_err(|e| format!("read daemon address: {e}"))?;
        daemon.addr = first
            .trim()
            .parse()
            .map_err(|e| format!("bad daemon address {first:?}: {e}"))?;
        Ok(daemon)
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// Ask the daemon to shut down and wait for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let mut conn = Conn::open(self.addr)?;
        let reply = conn.call(r#"{"id":0,"verb":"shutdown"}"#)?.to_string();
        drop(conn);
        let status = self.child.wait().map_err(|e| format!("wait daemon: {e}"))?;
        if !reply.contains(r#""shutdown":true"#) || !status.success() {
            return Err(format!("daemon shutdown: reply {reply:?}, exit {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The daemon side, run in the child process; `traced` turns its
/// `Trace` (and with it the `metrics` verb's counters) on.
pub fn serve_daemon(jobs: usize, traced: bool) -> Result<(), String> {
    let cfg = DaemonConfig {
        jobs: tms_core::Parallelism::from_jobs(jobs),
        ..DaemonConfig::default()
    };
    let trace = if traced {
        Trace::enabled()
    } else {
        Trace::disabled()
    };
    tms_daemon::serve(&cfg, trace, |addr| {
        let mut out = std::io::stdout();
        let _ = writeln!(out, "{addr}");
        let _ = out.flush();
    })
}

/// One hot-set request: a loop at one core count.
struct Hot {
    ddg: Ddg,
    ncore: u32,
    /// The request body after the id: `"ncore":N,"ddg":{...}`.
    body: String,
}

fn hot_set() -> Result<Vec<Hot>, String> {
    let mut out = Vec::new();
    for ddg in kernels::all_kernels().into_iter().chain(livermore_suite()) {
        let json = serde_json::to_string(&ddg).map_err(|e| format!("serialise DDG: {e}"))?;
        for ncore in NCORES {
            out.push(Hot {
                body: format!(r#""ncore":{ncore},"ddg":{json}"#),
                ddg: ddg.clone(),
                ncore,
            });
        }
    }
    Ok(out)
}

/// One position of the request stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Item {
    /// A repeat of hot-set entry `k` (a cache hit).
    Hot(usize),
    /// Fresh fuzzed loop with this fuzz index (a cache miss).
    Fresh(u64),
}

/// The seeded request stream: round `r` is a seeded shuffle of
/// [`FRESH_PER_ROUND`] fresh loops and hot-set repeats.
pub struct Stream {
    seed: u64,
    hot: Vec<Hot>,
}

impl Stream {
    /// The stream of `seed`: generates and serialises the hot set.
    pub fn new(seed: u64) -> Result<Stream, String> {
        Ok(Stream {
            seed,
            hot: hot_set()?,
        })
    }

    /// The items of round `r`.
    pub fn round(&self, r: u64) -> Vec<Item> {
        let mut rng = Rng::new(self.seed, r + 1);
        let mut items: Vec<Item> = (0..ROUND)
            .map(|j| {
                if j < FRESH_PER_ROUND {
                    Item::Fresh(r * FRESH_PER_ROUND + j)
                } else {
                    Item::Hot(rng.below(self.hot.len() as u64) as usize)
                }
            })
            .collect();
        for i in (1..items.len()).rev() {
            items.swap(i, rng.below(i as u64 + 1) as usize);
        }
        items
    }

    /// The fuzzed loop behind a fresh item.
    pub fn fresh_ddg(&self, index: u64) -> Ddg {
        generate_loop(&fuzz_spec(index, FUZZ_SEED))
    }

    /// The wire line of stream position `i`.
    fn line(&self, i: u64, item: Item) -> Result<String, String> {
        Ok(match item {
            Item::Hot(k) => format!(r#"{{"id":{i},{}}}"#, self.hot[k].body),
            Item::Fresh(f) => {
                let json = serde_json::to_string(&self.fresh_ddg(f))
                    .map_err(|e| format!("serialise DDG: {e}"))?;
                format!(r#"{{"id":{i},"ncore":4,"ddg":{json}}}"#)
            }
        })
    }
}

/// The `result` payload of an `ok` reply to request `id`, byte for
/// byte.
fn result_of(reply: &str, id: u64) -> Result<&str, String> {
    let head = format!(r#"{{"id":{id},"status":"ok","#);
    if !reply.starts_with(&head) {
        return Err(format!("request {id}: not an ok reply: {}", clip(reply)));
    }
    let at = reply
        .find(r#","result":"#)
        .ok_or_else(|| format!("request {id}: reply has no result"))?;
    Ok(&reply[at + 10..reply.len() - 1])
}

fn clip(s: &str) -> &str {
    &s[..s.len().min(160)]
}

/// Hands out stream positions to the connection threads; stops only at
/// a round boundary once the window is over.
struct Dispatcher {
    state: Mutex<(u64, Vec<Item>, bool)>,
    first: u64,
    start: Instant,
    seconds: f64,
}

impl Dispatcher {
    fn new(first_round: u64, seconds: f64) -> Dispatcher {
        Dispatcher {
            state: Mutex::new((first_round * ROUND, Vec::new(), false)),
            first: first_round * ROUND,
            start: Instant::now(),
            seconds,
        }
    }

    fn next(&self, stream: &Stream) -> Option<(u64, Item)> {
        let mut st = self
            .state
            .lock()
            .expect("dispatcher lock poisoned by a client panic");
        let (next, plan, done) = &mut *st;
        if *done {
            return None;
        }
        if *next % ROUND == 0 {
            let sent = *next - self.first;
            if self.start.elapsed().as_secs_f64() >= self.seconds && sent >= MIN_SAMPLES {
                *done = true;
                return None;
            }
            *plan = stream.round(*next / ROUND);
        }
        let i = *next;
        *next += 1;
        Some((i, plan[(i % ROUND) as usize]))
    }

    /// The end of the dispatched range.
    fn end(&self) -> u64 {
        self.state
            .lock()
            .expect("dispatcher lock poisoned by a client panic")
            .0
    }
}

/// One request as the client saw it.
struct Sample {
    i: u64,
    item: Item,
    rtt_ms: f64,
    failure: Option<String>,
    /// Fresh replies, kept for the post-window kernel check.
    reply: Option<String>,
}

/// One connection's closed loop.
fn drive(
    conn: &mut Conn,
    disp: &Dispatcher,
    stream: &Stream,
    expected: &[String],
    spans: &mut Spans,
) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    while let Some((i, item)) = disp.next(stream) {
        let line = stream.line(i, item)?;
        let span = spans.begin("request", i);
        let t = Instant::now();
        let reply = conn.call(&line)?;
        let rtt_ms = t.elapsed().as_secs_f64() * 1e3;
        spans.end(span);
        let mut sample = Sample {
            i,
            item,
            rtt_ms,
            failure: None,
            reply: None,
        };
        match (result_of(reply, i), item) {
            (Err(e), _) => sample.failure = Some(e),
            (Ok(r), Item::Hot(k)) if r != expected[k] => {
                sample.failure = Some(format!("request {i}: hot reply differs from warm-up bytes"))
            }
            (Ok(_), Item::Hot(_)) => {}
            (Ok(_), Item::Fresh(_)) => sample.reply = Some(reply.to_string()),
        }
        out.push(sample);
    }
    Ok(out)
}

/// Run one window of the stream over fresh connections.
fn window(
    addr: SocketAddr,
    disp: &Dispatcher,
    stream: &Stream,
    expected: &[String],
    traced: bool,
    origin: Instant,
) -> Result<(Vec<Sample>, f64, Vec<Spans>), String> {
    let mut conns = (0..lanes())
        .map(|_| Conn::open(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let results: Vec<Result<(Vec<Sample>, Spans), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(tid, conn)| {
                s.spawn(move || {
                    let mut spans = Spans::new(traced, origin, tid as u32);
                    drive(conn, disp, stream, expected, &mut spans).map(|v| (v, spans))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    let mut spans = Vec::new();
    for r in results {
        let (v, sp) = r?;
        samples.extend(v);
        spans.push(sp);
    }
    samples.sort_by_key(|s| s.i);
    Ok((samples, wall_s, spans))
}

/// The daemon's live counters, via the `metrics` verb.
fn daemon_metrics(addr: SocketAddr) -> Result<MetricsSnapshot, String> {
    let mut conn = Conn::open(addr)?;
    let reply = conn.call(r#"{"id":1,"verb":"metrics"}"#)?;
    let v: Value = serde_json::from_str(reply).map_err(|e| format!("metrics reply: {e}"))?;
    let snap = v.get("snapshot").ok_or("metrics reply has no snapshot")?;
    let text = serde_json::to_string(snap).map_err(|e| e.to_string())?;
    MetricsSnapshot::from_json(&text)
}

/// Start a daemon and warm the hot set into its cache. Returns the
/// daemon and each hot entry's result bytes.
fn start_warm(exe: &Path, stream: &Stream, traced: bool) -> Result<(Daemon, Vec<String>), String> {
    let daemon = Daemon::start(exe, traced)?;
    let mut conn = Conn::open(daemon.addr)?;
    let mut results = Vec::with_capacity(stream.hot.len());
    for (k, h) in stream.hot.iter().enumerate() {
        let id = k as u64;
        let reply = conn.call(&format!(r#"{{"id":{id},{}}}"#, h.body))?;
        results.push(result_of(reply, id)?.to_string());
    }
    Ok((daemon, results))
}

/// Check a served kernel against its loop: it must deserialise and
/// pass `verify_schedule` under the thresholds it was accepted with.
/// Returns the kernel.
fn check_kernel(ddg: &Ddg, ncore: u32, result: &str) -> Result<Schedule, String> {
    let name = ddg.name();
    let v: Value = serde_json::from_str(result).map_err(|e| format!("{name}: result JSON: {e}"))?;
    let field = |k: &str| v.get(k).ok_or_else(|| format!("{name}: result lacks {k}"));
    let kernel: Schedule = serde_json::from_value(field("kernel")?)
        .map_err(|e| format!("{name}: kernel does not deserialise: {e}"))?;
    let c_delay = field("c_delay_threshold")?
        .as_u64()
        .ok_or("c_delay_threshold")? as u32;
    let p_max = field("p_max")?.as_f64().ok_or("p_max")?;
    let fell_back = field("fell_back_to_sms")?
        .as_bool()
        .ok_or("fell_back_to_sms")?;
    let ldp = field("ldp")?.as_i64().ok_or("ldp")?;
    let ii = kernel.ii().max(1);
    let limits = VerifyLimits {
        c_delay: Some(c_delay),
        p_max: Some(p_max),
        max_stages: (!fell_back).then_some(
            (ldp as u32).div_ceil(ii).max(1) + tms_core::TmsConfig::default().max_extra_stages,
        ),
    };
    let machine = MachineModel::icpp2008();
    let costs = ArchParams::with_ncore(ncore).costs;
    let diags = verify_schedule(ddg, &kernel, &machine, &costs, &limits);
    if let Some(d) = diags.first() {
        return Err(format!(
            "{name} (ncore {ncore}): served kernel violates: {d}"
        ));
    }
    Ok(kernel)
}

/// Cycle counts of one served hot kernel against its baselines.
struct SimCheck {
    sms: u64,
    tms: u64,
    seq: u64,
    misspeculations: u64,
    squashed: u64,
    image_ok: bool,
}

fn simulate_hot(
    h: &Hot,
    kernel: &Schedule,
    seed: u64,
    spans: &mut Spans,
    id: u64,
) -> Result<SimCheck, String> {
    let machine = MachineModel::icpp2008();
    let sim = SimConfig {
        arch: ArchParams::with_ncore(h.ncore),
        n_iter: SIM_ITERS,
        seed,
        model_caches: true,
        detect_violations: true,
        collect_trace: false,
    };
    let sms = spans
        .scope("sms", id, || schedule_sms(&h.ddg, &machine))
        .map_err(|e| format!("{}: SMS failed: {e:?}", h.ddg.name()))?;
    let seq = spans.scope("sim.seq", id, || {
        simulate_sequential(&h.ddg, &machine, &sim)
    });
    let a = spans.scope("sim.spmt", id, || {
        simulate_spmt(&h.ddg, &sms.schedule, &sim)
    });
    let b = spans.scope("sim.spmt", id, || simulate_spmt(&h.ddg, kernel, &sim));
    Ok(SimCheck {
        sms: a.stats.total_cycles,
        tms: b.stats.total_cycles,
        seq: seq.total_cycles,
        misspeculations: a.stats.misspeculations + b.stats.misspeculations,
        squashed: a.stats.squashed_cycles + b.stats.squashed_cycles,
        image_ok: a.memory_image == seq.memory_image && b.memory_image == seq.memory_image,
    })
}

/// Counter delta between two daemon snapshots.
fn delta(a: &MetricsSnapshot, b: &MetricsSnapshot, name: &str) -> f64 {
    let get = |s: &MetricsSnapshot| s.counters.get(name).copied().unwrap_or(0);
    get(b).saturating_sub(get(a)) as f64
}

/// Run the `tmsd-mixed` workload.
pub fn run(opts: &RunOptions) -> Result<Report, String> {
    let origin = Instant::now();
    // The host probe before the set-up and after each window tells a
    // slow host apart from a slow daemon.
    let mut probes_ms = vec![host_probe_ms()];
    // Set-up, timed several times: generate the inputs, start an
    // untraced daemon, warm the hot set. Every warm-up must serve the
    // same bytes.
    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut live: Option<(Daemon, Vec<String>, Stream)> = None;
    let mut report = Report::default();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let stream = Stream::new(opts.seed)?;
        gen_s.push(t.elapsed().as_secs_f64());
        let (daemon, expected) = start_warm(&opts.daemon_exe, &stream, false)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some((old, old_expected, _)) = live.take() {
            old.stop()?;
            let mut failures = Vec::new();
            if old_expected != expected {
                failures.push("warm-up results differ between daemon instances".to_string());
            }
            report.operation(1, failures);
        }
        live = Some((daemon, expected, stream));
    }
    let (daemon, expected, stream) = live.ok_or("no set-up ran")?;
    let setup_s = median(&mut setup_s);
    let gen_s = median(&mut gen_s);

    // Untraced window (the whole run, or its first half when traced),
    // served by the untraced daemon.
    let plain_secs = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let disp = Dispatcher::new(0, plain_secs);
    let (plain, plain_wall, _) = window(daemon.addr, &disp, &stream, &expected, false, origin)?;
    probes_ms.push(host_probe_ms());
    let rss = daemon.peak_rss_mb()?;
    daemon.stop()?;
    // Traced window: the rest of the stream, served by a daemon with its
    // trace on and warmed the same way, so that the two windows differ
    // in tracing, on both sides of the socket.
    let mut traced_run = None;
    if opts.trace {
        let (daemon, warm) = start_warm(&opts.daemon_exe, &stream, true)?;
        let mut failures = Vec::new();
        if warm != expected {
            failures.push("traced daemon's warm-up differs from the untraced one".to_string());
        }
        report.operation(1, failures);
        let before = daemon_metrics(daemon.addr)?;
        let disp = Dispatcher::new(disp.end() / ROUND, opts.seconds / 2.0);
        let (samples, wall, spans) = window(daemon.addr, &disp, &stream, &expected, true, origin)?;
        let after = daemon_metrics(daemon.addr)?;
        probes_ms.push(host_probe_ms());
        daemon.stop()?;
        traced_run = Some((samples, wall, spans, before, after));
    }

    // Post-window checks: every fresh kernel verifies; every hot kernel
    // verifies and simulates to the sequential memory image.
    let mut post = Spans::new(opts.trace, origin, 0);
    let check_samples = |samples: &[Sample], report: &mut Report, post: &mut Spans| {
        for s in samples {
            let mut failures: Vec<String> = s.failure.iter().cloned().collect();
            if let (Item::Fresh(f), Some(reply)) = (s.item, &s.reply) {
                let ddg = stream.fresh_ddg(f);
                let r = result_of(reply, s.i)
                    .and_then(|r| post.scope("verify", s.i, || check_kernel(&ddg, 4, r)));
                if let Err(e) = r {
                    failures.push(e);
                }
            }
            report.operation(2, failures);
        }
    };
    check_samples(&plain, &mut report, &mut post);
    let mut sims = Vec::with_capacity(stream.hot.len());
    for (k, h) in stream.hot.iter().enumerate() {
        let id = k as u64;
        let checked = post
            .scope("verify", id, || check_kernel(&h.ddg, h.ncore, &expected[k]))
            .and_then(|kernel| simulate_hot(h, &kernel, opts.seed, &mut post, id));
        let failures = match checked {
            Ok(sc) if sc.image_ok => {
                sims.push(sc);
                vec![]
            }
            Ok(_) => vec![format!(
                "{}: SpMT memory image differs from sequential",
                h.ddg.name()
            )],
            Err(e) => vec![e],
        };
        report.operation(2, failures);
    }
    let vs_sms = geomean(
        &sims
            .iter()
            .map(|c| c.sms as f64 / c.tms as f64)
            .collect::<Vec<_>>(),
    );
    let vs_seq = geomean(
        &sims
            .iter()
            .map(|c| c.seq as f64 / c.tms as f64)
            .collect::<Vec<_>>(),
    );
    let hits = plain
        .iter()
        .filter(|s| matches!(s.item, Item::Hot(_)))
        .count();
    report.counts = vec![
        ("requests", plain.len() as f64),
        ("hot_set", stream.hot.len() as f64),
        ("daemon.hit_ratio", hits as f64 / plain.len().max(1) as f64),
        (
            "sim.cycles",
            sims.iter().map(|c| (c.sms + c.tms + c.seq) as f64).sum(),
        ),
        ("speedup_vs_sms", vs_sms),
        ("speedup_vs_seq", vs_seq),
    ];
    let shown: Vec<String> = probes_ms.iter().map(|p| format!("{p:.2}")).collect();
    report.notes.push(format!(
        "host probe before set-up and after each window (ms): {}\n",
        shown.join(" ")
    ));

    let Some((traced, traced_wall, client_spans, before, after)) = traced_run else {
        let n = plain.len();
        let rate = n as f64 / plain_wall;
        let mut rtt: Vec<f64> = plain.iter().map(|s| s.rtt_ms).collect();
        let mut m = Metrics::default();
        m.set("setup_s", setup_s);
        m.set_n("loops_per_s", rate, n);
        m.set_n("req_per_s", rate, n);
        m.latency("loop_ms_p50", "loop_ms_p95", &mut rtt)?;
        m.latency("req_ms_p50", "req_ms_p95", &mut rtt)?;
        m.set("speedup_vs_sms", vs_sms);
        m.set("speedup_vs_seq", vs_seq);
        m.set("peak_rss_mb", rss);
        report.metrics = m.end_to_end()?;
        return Ok(report);
    };
    check_samples(&traced, &mut report, &mut post);

    // In-process replay of the traced window's stream: time
    // `parse_request` and `Engine::process` on the same requests, after
    // the same warm-up, and require the same reply bytes.
    let engine = Engine::new(&DaemonConfig::default(), Trace::enabled());
    for h in &stream.hot {
        let Ok(Request::Schedule(req)) = parse_request(&format!(r#"{{"id":0,{}}}"#, h.body)) else {
            return Err(format!(
                "{}: hot request does not parse in process",
                h.ddg.name()
            ));
        };
        engine.process(&req);
    }
    let mut replay = Spans::new(true, origin, 0);
    let (mut parse_s, mut hit_ms, mut miss_ms) = (0.0, Vec::new(), Vec::new());
    let (mut wire_all, mut wire_hit, mut wire_miss) = (Vec::new(), Vec::new(), Vec::new());
    for s in &traced {
        let line = stream.line(s.i, s.item)?;
        let t = Instant::now();
        let req = replay.scope("daemon.parse", s.i, || parse_request(&line));
        let t_parse = t.elapsed().as_secs_f64();
        let Ok(Request::Schedule(req)) = req else {
            return Err(format!("request {}: does not parse in process", s.i));
        };
        let t = Instant::now();
        let reply = replay.scope("daemon.process", s.i, || engine.process(&req));
        let t_proc = t.elapsed().as_secs_f64();
        parse_s += t_parse;
        let inproc_ms = (t_parse + t_proc) * 1e3;
        let wire = s.rtt_ms - inproc_ms;
        wire_all.push(wire);
        let same = match (s.item, &s.reply) {
            (Item::Hot(k), _) => result_of(&reply, s.i).is_ok_and(|r| r == expected[k]),
            (Item::Fresh(_), Some(wire_reply)) => &reply == wire_reply,
            (Item::Fresh(_), None) => true,
        };
        report.operation(
            1,
            if same {
                vec![]
            } else {
                vec![format!("request {}: in-process reply differs", s.i)]
            },
        );
        match s.item {
            Item::Hot(_) => {
                hit_ms.push(t_proc * 1e3);
                wire_hit.push(wire);
            }
            Item::Fresh(_) => {
                miss_ms.push(t_proc * 1e3);
                wire_miss.push(wire);
            }
        }
    }
    let p50 = |v: &mut Vec<f64>| percentile(v, 50.0).unwrap_or_else(|| median(v));

    let mut table = LayerTable::default();
    for sp in client_spans.iter().chain([&post, &replay]) {
        table.add(sp);
    }
    let mut lm = Metrics::default();
    lm.set("workloads.gen_s", gen_s);
    lm.set(
        "workloads.insts",
        stream.hot.iter().map(|h| h.ddg.num_insts() as f64).sum(),
    );
    lm.set("sms.busy_s", table.total_s("sms"));
    lm.set("verify.busy_s", table.total_s("verify"));
    let e = engine.trace.metrics();
    let ec = |name: &str| e.counters.get(name).copied().unwrap_or(0) as f64;
    let attempts = ec("tms.attempts");
    let misses = miss_ms.len() as f64;
    // The daemon calls the TMS search itself; its busy time is the sum
    // of the search's own phase timers.
    let phase_s = |prefix: &str| -> f64 {
        engine
            .trace
            .timers_with_prefix(prefix)
            .iter()
            .map(|(_, h)| h.sum as f64 * 1e-9)
            .sum()
    };
    let tms_busy = phase_s("tms.phase");
    lm.set("tms.busy_s", tms_busy);
    lm.set(
        "tms.place_share",
        phase_s("tms.phase.place") / tms_busy.max(f64::MIN_POSITIVE),
    );
    lm.set("tms.calls", misses);
    lm.set("tms.attempts", attempts);
    lm.set("tms.accept_ratio", misses / attempts.max(1.0));
    let (replayed, executed) = (
        ec("tms.reuse.steps-replayed"),
        ec("tms.reuse.steps-executed"),
    );
    lm.set("tms.steps_replayed", replayed);
    lm.set("tms.steps_executed", executed);
    lm.set(
        "tms.replay_ratio",
        replayed / (replayed + executed).max(1.0),
    );
    let spmt_s = table.total_s("sim.spmt");
    let seq_s = table.total_s("sim.seq");
    let cycles: f64 = sims.iter().map(|c| (c.sms + c.tms + c.seq) as f64).sum();
    lm.set("sim.spmt_busy_s", spmt_s);
    lm.set("sim.seq_busy_s", seq_s);
    lm.set("sim.cycles", cycles);
    lm.set(
        "sim.cycles_per_s",
        cycles / (spmt_s + seq_s).max(f64::MIN_POSITIVE),
    );
    lm.set(
        "sim.misspeculations",
        sims.iter().map(|c| c.misspeculations as f64).sum(),
    );
    lm.set(
        "sim.squash_ratio",
        sims.iter().map(|c| c.squashed as f64).sum::<f64>()
            / sims
                .iter()
                .map(|c| (c.sms + c.tms) as f64)
                .sum::<f64>()
                .max(1.0),
    );
    lm.set("daemon.parse_busy_s", parse_s);
    lm.set("daemon.hit_process_ms_p50", p50(&mut hit_ms));
    lm.set("daemon.miss_process_ms_p50", p50(&mut miss_ms));
    lm.set("daemon.wire_ms_p50", p50(&mut wire_all));
    lm.set("daemon.hit_wire_ms_p50", p50(&mut wire_hit));
    lm.set("daemon.miss_wire_ms_p50", p50(&mut wire_miss));
    let (hit, miss) = (
        delta(&before, &after, "tmsd.cache.hit"),
        delta(&before, &after, "tmsd.cache.miss"),
    );
    lm.set("daemon.hit_ratio", hit / (hit + miss).max(1.0));
    let batch = |s: &MetricsSnapshot| {
        s.values
            .get("tmsd.batch_size")
            .map_or((0, 0), |h| (h.count, h.sum))
    };
    let ((c0, s0), (c1, s1)) = (batch(&before), batch(&after));
    lm.set(
        "daemon.batch_size_mean",
        (s1 - s0) as f64 / (c1 - c0).max(1) as f64,
    );
    lm.set(
        "daemon.queue_depth_max",
        after.values.get("tmsd.queue_depth").map_or(0, |h| h.max) as f64,
    );
    lm.set("daemon.shed", delta(&before, &after, "tmsd.shed"));
    lm.set("daemon.errors", delta(&before, &after, "tmsd.errors"));
    let per_req = |wall: f64, n: usize| wall / n.max(1) as f64;
    lm.set(
        "trace.overhead_frac",
        per_req(traced_wall, traced.len()) / per_req(plain_wall, plain.len()) - 1.0,
    );
    lm.set("host.probe_ms", median(&mut probes_ms));
    report.metrics = lm.per_layer()?;
    report.notes.push(table.render(&format!(
        "per-layer self time: {} traced requests over {} connection(s), post-checks, in-process replay",
        traced.len(),
        client_spans.len()
    )));
    let mut recorders: Vec<(u32, &Spans)> = client_spans.iter().map(|s| (1, s)).collect();
    recorders.push((2, &post));
    recorders.push((3, &replay));
    let path = opts.out_dir.join("tmsd-mixed.trace.json");
    write_file(&path, &chrome_json(&recorders))?;
    report
        .notes
        .push(format!("chrome trace: {}\n", path.display()));
    Ok(report)
}
