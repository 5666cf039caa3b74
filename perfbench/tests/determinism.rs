//! The benchmark's inputs and work counts are functions of the seed.
//!
//! Two runs with one seed must report identical deterministic counts;
//! a second seed must give a different input population. The runs go
//! through the same measurement and metric code as the benchmark's own
//! (on a capped pipeline population), and the metric lists must match
//! `BENCHMARK.json`.

use std::path::PathBuf;
use tms_perfbench::pipeline::Population;
use tms_perfbench::serve::{Item, MIN_SAMPLES};
use tms_perfbench::{run, RunOptions, Workload, END_TO_END, PER_LAYER};

/// Loops per pipeline population in the tests: every 25th specfp loop
/// and every 7th DOACROSS-suite loop, all quick to schedule.
const CAP: usize = 3;

/// Simulated iterations per loop in the tests.
const ITERS: u64 = 400;

fn opts(seed: u64) -> RunOptions {
    RunOptions {
        seed,
        seconds: 0.1,
        trace: false,
        out_dir: std::env::temp_dir().join("tms-perfbench-test"),
        cap: Some(CAP),
        iterations: Some(ITERS),
        daemon_exe: PathBuf::from(env!("CARGO_BIN_EXE_tms-perfbench")),
    }
}

fn counts(workload: Workload, seed: u64) -> Vec<(&'static str, f64)> {
    let report = run(workload, &opts(seed)).expect("benchmark run");
    assert!(report.correct(), "{:?}", report.failures);
    let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    let listed: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, listed, "{workload:?}: every end-to-end metric");
    assert!(
        report.metrics.iter().all(|m| m.value > 0.0),
        "{workload:?}: end-to-end metrics are never 0: {:?}",
        report.metrics
    );
    report.counts
}

fn count(counts: &[(&'static str, f64)], name: &str) -> f64 {
    counts.iter().find(|(n, _)| *n == name).expect(name).1
}

#[test]
fn pipelines_repeat_exactly_and_the_seed_moves_the_simulation() {
    for workload in [Workload::SpecfpCompile, Workload::DoacrossSim] {
        let a = counts(workload, 11);
        assert_eq!(
            a,
            counts(workload, 11),
            "{workload:?}: same seed, same counts"
        );
        assert!(count(&a, "tms.attempts") > 0.0);
        assert!(count(&a, "codegen.instances") > 0.0);
        let b = counts(workload, 12);
        assert_ne!(
            count(&a, "sim.cycles"),
            count(&b, "sim.cycles"),
            "{workload:?}: another seed must simulate other address streams"
        );
    }
}

#[test]
fn pipeline_populations_are_the_papers() {
    assert_eq!(Population::Specfp.generate(None).len(), 77);
    assert_eq!(Population::Doacross.generate(None).len(), 21);
}

#[test]
fn tmsd_repeats_exactly_and_the_seed_moves_the_stream() {
    let a = counts(Workload::TmsdMixed, 5);
    assert_eq!(
        a,
        counts(Workload::TmsdMixed, 5),
        "same seed, same counts"
    );
    assert_eq!(count(&a, "requests"), MIN_SAMPLES as f64);
    assert_eq!(count(&a, "daemon.hit_ratio"), 0.8);

    let s5 = tms_perfbench::serve::Stream::new(5).expect("stream");
    let s6 = tms_perfbench::serve::Stream::new(6).expect("stream");
    assert_eq!(
        s5.round(3),
        tms_perfbench::serve::Stream::new(5)
            .expect("stream")
            .round(3)
    );
    assert_ne!(
        s5.round(0),
        s6.round(0),
        "another seed orders another stream"
    );
    let fresh = |r: &[Item]| r.iter().filter(|i| matches!(i, Item::Fresh(_))).count();
    assert_eq!(fresh(&s5.round(0)), fresh(&s6.round(0)));
    // The serialised loop without its process-unique `uid`.
    let ddg = |s: &tms_perfbench::serve::Stream| {
        let json = serde_json::to_string(&s.fresh_ddg(0)).expect("json");
        match json.rsplit_once(r#","uid":"#) {
            Some((body, _)) => body.to_string(),
            None => json,
        }
    };
    assert_eq!(
        ddg(&s5),
        ddg(&s6),
        "the fresh loops are one fixed population; the seed orders them"
    );
}

#[test]
fn metric_lists_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let v: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String)> {
        v.get(key)
            .and_then(|a| a.as_array())
            .expect(key)
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|x| x.as_str()).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let listed = |l: &[(&str, &str)]| -> Vec<(String, String)> {
        l.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), listed(&END_TO_END));
    assert_eq!(names("per_layer"), listed(&PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}
