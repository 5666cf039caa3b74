//! `tmsd` integration tests: the golden cache-key pin, the warm-equals-
//! cold byte-identity property (also across cache eviction), torn- and
//! oversized-cache-file recovery through a daemon restart, one
//! end-to-end TCP round trip, and the no-stall check on sequential
//! hits.

use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};
use tms_daemon::proto::{cache_key, key_hex, parse_request, Knobs, Request};
use tms_daemon::{serve, DaemonConfig, Engine};
use tms_faults::FaultPlan;
use tms_machine::MachineModel;
use tms_trace::Trace;
use tms_verify::fuzz::fuzz_ddgs;
use tms_workloads::figure1;

fn schedule_line(id: u64, ddg: &tms_ddg::Ddg, ncore: u32) -> String {
    let json = serde_json::to_string(ddg).unwrap();
    format!(r#"{{"id":{id},"ddg":{json},"ncore":{ncore}}}"#)
}

fn parse_schedule(line: &str) -> Box<tms_daemon::ScheduleRequest> {
    match parse_request(line).expect("request must parse") {
        Request::Schedule(r) => r,
        other => panic!("expected a schedule request, got {other:?}"),
    }
}

/// The raw embedded result bytes of an `ok` reply.
fn raw_result(reply: &str) -> &str {
    let idx = reply
        .find(r#""result":"#)
        .expect("ok reply carries a result");
    reply[idx + r#""result":"#.len()..]
        .strip_suffix('}')
        .unwrap()
}

/// Satellite: the cache key is **pinned**. If this constant moves, every
/// persisted schedule cache on disk silently goes cold on upgrade —
/// that is the intended failure mode, but it must be a *decision*
/// (update the constant here and say so in the changelog), never an
/// accident of refactoring the canonical serialisation, the hash, or
/// the seed.
#[test]
fn golden_cache_key_is_stable_across_runs() {
    let key = |line: &str| key_hex(parse_schedule(line).key);
    let line = schedule_line(1, &figure1(), 4);
    assert_eq!(key(&line), "204a9c9b349dfacf", "pinned cache key moved");
    // Same inputs, different process run: recompute from scratch.
    assert_eq!(
        key_hex(cache_key(
            &figure1(),
            &MachineModel::icpp2008(),
            4,
            &Knobs::default()
        )),
        "204a9c9b349dfacf"
    );
}

/// Every keyed field changes the key; the request id (and deadline,
/// covered in the proto unit tests) does not.
#[test]
fn every_keyed_field_perturbs_the_cache_key() {
    let base = parse_schedule(&schedule_line(1, &figure1(), 4)).key;
    let ddg_json = serde_json::to_string(&figure1()).unwrap();

    // id is correlation metadata, not content.
    assert_eq!(parse_schedule(&schedule_line(99, &figure1(), 4)).key, base);

    let mut keys = vec![base];
    // ncore.
    keys.push(parse_schedule(&schedule_line(1, &figure1(), 8)).key);
    // machine model.
    let scalar = serde_json::to_string(&MachineModel::scalar()).unwrap();
    keys.push(
        parse_schedule(&format!(
            r#"{{"id":1,"ddg":{ddg_json},"ncore":4,"machine":{scalar}}}"#
        ))
        .key,
    );
    // the DDG itself.
    let mut other = fuzz_ddgs(1, 7);
    keys.push(parse_schedule(&schedule_line(1, &other.remove(0), 4)).key);
    // each knob.
    for knob in [
        r#""p_max_values":[0.05]"#,
        r#""ii_max":32"#,
        r#""c_delay_max":9"#,
        r#""dense_candidates":true"#,
        r#""max_extra_stages":3"#,
    ] {
        keys.push(
            parse_schedule(&format!(
                r#"{{"id":1,"ddg":{ddg_json},"ncore":4,"knobs":{{{knob}}}}}"#
            ))
            .key,
        );
    }
    for (i, a) in keys.iter().enumerate() {
        for (j, b) in keys.iter().enumerate().skip(i + 1) {
            assert_ne!(a, b, "variants {i} and {j} collided on {}", key_hex(*a));
        }
    }
}

/// Satellite property test: over fuzzed DDGs, a cache hit replays the
/// cold result byte-for-byte, and the only reply-level difference is
/// the `cached` flag.
#[test]
fn warm_replies_are_byte_identical_to_cold_over_fuzzed_ddgs() {
    let engine = Engine::new(&DaemonConfig::default(), Trace::enabled());
    for (i, ddg) in fuzz_ddgs(10, 0xDDB6).into_iter().enumerate() {
        let req = parse_schedule(&schedule_line(i as u64, &ddg, [2, 4, 8][i % 3]));
        let cold = engine.process(&req);
        let warm = engine.process(&req);
        if cold.contains(r#""status":"error""#) {
            // Unschedulable fuzz draw: both passes must agree.
            assert_eq!(cold, warm, "{}: errors must be deterministic", ddg.name());
            continue;
        }
        assert_eq!(
            raw_result(&cold),
            raw_result(&warm),
            "{}: warm result bytes differ from cold",
            ddg.name()
        );
        assert!(cold.contains(r#""cached":false"#), "{cold}");
        assert!(warm.contains(r#""cached":true"#), "{warm}");
        assert_eq!(
            cold.replacen(r#""cached":false"#, r#""cached":true"#, 1),
            warm,
            "{}: replies may differ only in the cached flag",
            ddg.name()
        );
    }
    let snap = engine.trace.metrics();
    assert_eq!(snap.counters.get("tmsd.cache.bypassed"), None);
}

/// Satellite: tear the persisted cache mid-line, restart the daemon
/// engine, and the valid prefix is recovered while the torn tail is
/// dropped and rescheduled cold — with the same bytes.
#[test]
fn torn_cache_file_recovers_valid_prefix_on_restart() {
    let dir = std::env::temp_dir().join("tmsd_torn_cache_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("schedules.ndjson");
    let _ = std::fs::remove_file(&path);

    let cfg = DaemonConfig {
        cache_path: Some(path.clone()),
        ..DaemonConfig::default()
    };
    let ddgs = fuzz_ddgs(3, 0x70A2);
    let reqs: Vec<_> = ddgs
        .iter()
        .enumerate()
        .map(|(i, d)| parse_schedule(&schedule_line(i as u64, d, 4)))
        .collect();

    let mut cold = Vec::new();
    {
        let engine = Engine::new(&cfg, Trace::enabled());
        for req in &reqs {
            cold.push(engine.process(req));
        }
        assert_eq!(engine.cache_len(), reqs.len());
    }

    // Tear the final persisted line mid-entry, as a crash mid-write
    // would.
    let bytes = std::fs::read(&path).unwrap();
    assert!(bytes.ends_with(b"\n"));
    std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();

    let engine = Engine::new(&cfg, Trace::enabled());
    assert_eq!(
        engine.cache_len(),
        reqs.len() - 1,
        "valid prefix recovered, torn tail dropped"
    );
    for (req, cold_reply) in reqs.iter().zip(&cold) {
        let warm = engine.process(req);
        assert_eq!(
            raw_result(&warm),
            raw_result(cold_reply),
            "{}: post-recovery result differs",
            req.ddg.name()
        );
    }
    // The torn entry came back cold (a miss), the survivors warm.
    let snap = engine.trace.metrics();
    assert_eq!(
        snap.counters.get("tmsd.cache.hit"),
        Some(&(reqs.len() as u64 - 1))
    );
    assert_eq!(snap.counters.get("tmsd.cache.miss"), Some(&1));
    let _ = std::fs::remove_file(&path);
}

/// End to end over TCP: schedule, malformed line, metrics, shutdown —
/// one daemon on an ephemeral port, every reply structured, clean exit.
#[test]
fn daemon_answers_over_tcp_and_shuts_down_cleanly() {
    let (tx, rx) = mpsc::channel();
    let server = std::thread::spawn(move || {
        let cfg = DaemonConfig::default();
        serve(&cfg, Trace::enabled(), move |addr| {
            let _ = tx.send(addr);
        })
    });
    let addr = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("daemon ready");

    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut ask = |line: &str| -> Value {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        serde_json::from_str(reply.trim()).expect("reply must be JSON")
    };

    let v = ask(&schedule_line(7, &figure1(), 4));
    assert_eq!(v.get("id").and_then(Value::as_u64), Some(7));
    assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
    assert!(v.get("result").is_some());

    let v = ask(r#"{"id":8,"verb":"schedule"}"#);
    assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));

    let v = ask(r#"{"id":9,"verb":"metrics"}"#);
    assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
    let snap = v.get("snapshot").expect("metrics reply carries a snapshot");
    let snap = tms_trace::MetricsSnapshot::from_json(&serde_json::to_string(snap).unwrap())
        .expect("snapshot must round-trip");
    assert!(tms_trace::schema::unknown_metrics(&snap).is_empty());
    assert_eq!(snap.counters.get("tmsd.requests"), Some(&3));
    assert_eq!(snap.counters.get("tmsd.errors"), Some(&1));

    let v = ask(r#"{"id":10,"verb":"shutdown"}"#);
    assert_eq!(v.get("shutdown").and_then(Value::as_bool), Some(true));
    server
        .join()
        .expect("daemon thread must not panic")
        .expect("daemon must exit cleanly");
}

/// The retired `adaptive` knob is an unknown knob: a request that sets
/// it gets a structured error reply naming it, never a silent default.
#[test]
fn retired_adaptive_knob_gets_an_error_reply() {
    let (tx, rx) = mpsc::channel();
    let server = std::thread::spawn(move || {
        serve(&DaemonConfig::default(), Trace::disabled(), move |addr| {
            let _ = tx.send(addr);
        })
    });
    let addr = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("daemon ready");
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let ddg_json = serde_json::to_string(&figure1()).unwrap();
    for line in [
        format!(r#"{{"id":5,"ddg":{ddg_json},"ncore":4,"knobs":{{"adaptive":true}}}}"#),
        r#"{"id":6,"verb":"shutdown"}"#.to_string(),
    ] {
        writeln!(writer, "{line}").unwrap();
    }
    writer.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let v: Value = serde_json::from_str(reply.trim()).expect("reply must be JSON");
    assert_eq!(v.get("id").and_then(Value::as_u64), Some(5));
    assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
    let err = v.get("error").and_then(Value::as_str).unwrap_or_default();
    assert!(
        err.contains("knobs.adaptive: unknown knob"),
        "error reply must name the knob: {reply}"
    );
    server
        .join()
        .expect("daemon thread must not panic")
        .expect("daemon must exit cleanly");
}

/// The daemon under a disabled fault plan is exactly the daemon under a
/// seeded plan whose rates are all zero — the oracle is pure and the
/// request pipeline does not branch on plan presence.
#[test]
fn zero_rate_plan_matches_disabled_plan() {
    let quiet = DaemonConfig {
        plan: FaultPlan::with_rates(
            1,
            tms_faults::FaultRates {
                sched_budget_per_1024: 0,
                worker_panic_per_1024: 0,
                spill_transient_per_1024: 0,
                spill_fail_after: None,
                spill_torn_at: None,
                misspec_per_1024: 0,
                jitter_per_1024: 0,
                jitter_max_cycles: 0,
                accept_transient_per_1024: 0,
                cache_read_corrupt_per_1024: 0,
                cache_write_transient_per_1024: 0,
                cache_write_fail_after: None,
                cache_write_torn_at: None,
                sched_budget_attempts: 2,
            },
        ),
        ..DaemonConfig::default()
    };
    let disabled = DaemonConfig::default();
    let a = Engine::new(&quiet, Trace::disabled());
    let b = Engine::new(&disabled, Trace::disabled());
    let req = parse_schedule(&schedule_line(1, &figure1(), 4));
    assert_eq!(a.process(&req), b.process(&req));
}

/// The first `n` fuzzed loops that schedule without error, as requests.
fn schedulable_requests(n: usize, seed: u64) -> Vec<tms_daemon::ScheduleRequest> {
    let probe = Engine::new(&DaemonConfig::default(), Trace::disabled());
    fuzz_ddgs(4 * n, seed)
        .iter()
        .enumerate()
        .map(|(i, d)| parse_schedule(&schedule_line(i as u64, d, 4)))
        .filter(|r| probe.process(r).contains(r#""status":"ok""#))
        .take(n)
        .map(|r| *r)
        .collect()
}

/// A key evicted by the byte cap misses and is rescheduled cold, with
/// result bytes identical to its first cold reply; resident bytes never
/// pass the cap.
#[test]
fn evicted_entries_reschedule_cold_with_identical_bytes() {
    let reqs = schedulable_requests(4, 0xE71C);
    assert_eq!(reqs.len(), 4);
    // Room for about two results.
    let cap = 2048;
    let engine = Engine::new(
        &DaemonConfig {
            cache_max_bytes: cap,
            ..DaemonConfig::default()
        },
        Trace::enabled(),
    );
    let cold: Vec<String> = reqs.iter().map(|r| engine.process(r)).collect();
    assert!(engine.cache_bytes() <= cap);
    assert!(
        engine.cache_len() < reqs.len(),
        "the cap must force eviction"
    );
    // The first request was the least recently used: it was evicted.
    let again = engine.process(&reqs[0]);
    assert!(again.contains(r#""cached":false"#), "{again}");
    assert_eq!(raw_result(&again), raw_result(&cold[0]));
    // The latest entry is still resident and replays its bytes.
    let warm = engine.process(&reqs[3]);
    assert!(warm.contains(r#""cached":true"#), "{warm}");
    assert_eq!(raw_result(&warm), raw_result(&cold[3]));

    let snap = engine.trace.metrics();
    assert!(
        snap.counters
            .get("tmsd.cache.evicted")
            .copied()
            .unwrap_or(0)
            > 0
    );
    let bytes = snap
        .values
        .get("tmsd.cache.bytes")
        .expect("recorded on insert");
    assert!(
        bytes.max <= cap as u64,
        "resident bytes reached {}",
        bytes.max
    );
    assert!(tms_trace::schema::unknown_metrics(&snap).is_empty());
}

/// A daemon restarted with a cache file larger than its cap keeps the
/// most recently appended entries and compacts the file to within the
/// cap plus one entry.
#[test]
fn restart_over_cap_keeps_latest_entries_and_compacts_the_file() {
    let dir = std::env::temp_dir().join("tmsd_cap_restart_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("schedules.ndjson");
    let _ = std::fs::remove_file(&path);
    let reqs = schedulable_requests(6, 0xCA9);
    let cfg = DaemonConfig {
        cache_path: Some(path.clone()),
        ..DaemonConfig::default()
    };
    let cold: Vec<String> = {
        let engine = Engine::new(&cfg, Trace::disabled());
        reqs.iter().map(|r| engine.process(r)).collect()
    };
    let text = std::fs::read_to_string(&path).unwrap();
    let longest = text.lines().map(|l| l.len() + 1).max().unwrap();
    // Room for the last three lines, not four.
    let lines: Vec<&str> = text.lines().collect();
    let cap: usize = lines[3..].iter().map(|l| l.len() + 1).sum();

    let engine = Engine::new(
        &DaemonConfig {
            cache_max_bytes: cap,
            ..cfg
        },
        Trace::enabled(),
    );
    assert_eq!(engine.cache_len(), 3);
    assert!(engine.cache_bytes() <= cap);
    let size = std::fs::metadata(&path).unwrap().len() as usize;
    assert!(size <= cap + longest, "compacted file is {size} bytes");
    assert_eq!(
        engine.trace.metrics().counters.get("tmsd.cache.evicted"),
        Some(&3)
    );
    // Survivors first (a miss would evict one of them).
    for i in (3..6).chain(0..3) {
        let reply = engine.process(&reqs[i]);
        assert_eq!(raw_result(&reply), raw_result(&cold[i]));
        let cached = reply.contains(r#""cached":true"#);
        assert_eq!(cached, i >= 3, "entry {i}: {reply}");
    }
    let _ = std::fs::remove_file(&path);
}

/// A cache hit is a few microseconds of work, so sequential hits over
/// one connection must not wait on Nagle's algorithm and the peer's
/// delayed ACK (~40 ms per round trip when a reply is sent as two
/// writes on a socket without `TCP_NODELAY`).
#[test]
fn sequential_hits_do_not_stall() {
    let (tx, rx) = mpsc::channel();
    let server = std::thread::spawn(move || {
        serve(&DaemonConfig::default(), Trace::disabled(), move |addr| {
            let _ = tx.send(addr);
        })
    });
    let addr = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("daemon ready");
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut ask = |line: String| -> String {
        writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply
    };

    let cold = ask(schedule_line(1, &figure1(), 4));
    assert!(cold.contains(r#""cached":false"#), "{cold}");
    let start = Instant::now();
    for id in 2..22 {
        let hit = ask(schedule_line(id, &figure1(), 4));
        assert!(hit.contains(r#""cached":true"#), "{hit}");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(400),
        "20 sequential hits took {elapsed:?}"
    );

    ask(r#"{"id":99,"verb":"shutdown"}"#.to_string());
    server
        .join()
        .expect("daemon thread must not panic")
        .expect("daemon must exit cleanly");
}
