//! `sched-throughput` — time serial vs parallel TMS scheduling over
//! each workload family and write `results/bench_sched.json`.
//!
//! ```text
//! sched-throughput [--jobs N] [--fuzz N] [--seed S] [--out PATH] [--smoke]
//!                  [--gate PATH] [--write-baseline PATH]
//! ```
//!
//! `--jobs 0` (the default) uses every available core; `TMS_JOBS` sets
//! the default. `--smoke` runs tiny populations for CI sanity — the
//! timings are not meaningful there, but the determinism check
//! (`verify_sweep.reports_identical`) still is. Exits nonzero if the
//! parallel verification sweep diverges from the serial one.
//!
//! `--gate PATH` loads a committed [`PerfBaseline`] and fails the run
//! if `total.loops_per_sec_serial` falls below the baseline's noise
//! window; `--write-baseline PATH` pins a fresh baseline from this
//! run. The default window is 60%: the gate floor is 40% of the
//! pinned rate, wide enough that a different machine class or a busy
//! shared runner passes, while an accidental `O(n²)` or debug-build
//! cliff still fails.

use std::path::PathBuf;
use std::process::ExitCode;
use tms_bench::baseline::PerfBaseline;
use tms_bench::throughput::{render, run, write, ThroughputConfig};
use tms_core::par::Parallelism;
use tms_verify::cli::{self, Args};

const USAGE: &str = "sched-throughput [--jobs N] [--fuzz N] [--seed S] [--out PATH] [--smoke] \
                     [--gate PATH] [--write-baseline PATH]";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(code) = cli::help(&argv, USAGE) {
        return code;
    }
    let mut cfg = ThroughputConfig {
        jobs: Parallelism::Auto,
        ..Default::default()
    };
    match Parallelism::from_env() {
        Ok(Some(jobs)) => cfg.jobs = jobs,
        Ok(None) => {}
        Err(e) => {
            eprintln!("sched-throughput: {e}");
            return ExitCode::from(2);
        }
    }
    let mut out = PathBuf::from("results/bench_sched.json");
    let mut gate: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut it = Args::new(argv);
    while let Some(flag) = it.next() {
        let r = match flag.as_str() {
            "--jobs" => it.jobs("--jobs").map(|p| cfg.jobs = p),
            "--fuzz" => it.parsed("--fuzz").map(|n| cfg.fuzz = n),
            "--seed" => it.parsed("--seed").map(|n| cfg.seed = n),
            "--out" => it.value("--out").map(|p| out = PathBuf::from(p)),
            "--smoke" => {
                cfg.smoke = true;
                Ok(())
            }
            "--gate" => it.value("--gate").map(|p| gate = Some(PathBuf::from(p))),
            "--write-baseline" => it
                .value("--write-baseline")
                .map(|p| write_baseline = Some(PathBuf::from(p))),
            other => Err(cli::unknown(other)),
        };
        if let Err(e) = r {
            eprintln!("sched-throughput: {e}");
            return ExitCode::from(2);
        }
    }

    let report = run(&cfg);
    print!("{}", render(&report));
    if let Err(e) = write(&report, &out) {
        eprintln!("sched-throughput: cannot write {}: {e}", out.display());
        return ExitCode::from(2);
    }
    println!("wrote {}", out.display());

    if !report.verify_sweep.reports_identical {
        eprintln!("sched-throughput: parallel verify sweep diverged from serial");
        return ExitCode::FAILURE;
    }
    // Disabled tracing must be free: the instrumented scheduler with a
    // disabled sink runs the same code as the plain entry point plus a
    // pointer check per site, so anything beyond noise is a regression.
    // Expected < 2%; gated at 10% so machine jitter cannot flake CI.
    // Smoke populations are too small to time, so only the real run
    // enforces it.
    if !report.smoke && report.trace_overhead.disabled_overhead > 1.10 {
        eprintln!(
            "sched-throughput: disabled-tracing overhead {:.3}x exceeds 1.10x",
            report.trace_overhead.disabled_overhead
        );
        return ExitCode::FAILURE;
    }

    if let Some(path) = &write_baseline {
        let base = PerfBaseline::from_report(&report, 0.60);
        if let Err(e) = base.write(path) {
            eprintln!("sched-throughput: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "pinned baseline {} ({:.1} loops/s serial, noise window {:.0}%)",
            path.display(),
            base.loops_per_sec_serial,
            base.noise_frac * 100.0
        );
    }
    if let Some(path) = &gate {
        let base = match PerfBaseline::load(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("sched-throughput: cannot load baseline: {e}");
                return ExitCode::from(2);
            }
        };
        match base.check(&report) {
            Err(e) => {
                eprintln!("sched-throughput: gate not comparable: {e}");
                return ExitCode::from(2);
            }
            Ok(outcome) if !outcome.pass => {
                if outcome.current < outcome.floor {
                    eprintln!(
                        "sched-throughput: PERF REGRESSION — {:.1} loops/s serial is below \
                         the gate floor {:.1} (baseline {:.1} − {:.0}% noise window)",
                        outcome.current,
                        outcome.floor,
                        base.loops_per_sec_serial,
                        base.noise_frac * 100.0
                    );
                } else {
                    eprintln!(
                        "sched-throughput: PERF REGRESSION — parallel speedup {:.2}x is below \
                         the gate floor {:.2}x (baseline {:.2}x − {:.0}% noise window)",
                        outcome.speedup_current.unwrap_or(0.0),
                        outcome.speedup_floor.unwrap_or(0.0),
                        base.speedup.unwrap_or(0.0),
                        base.noise_frac * 100.0
                    );
                }
                return ExitCode::FAILURE;
            }
            Ok(outcome) => {
                let speedup_note = if outcome.speedup_checked {
                    format!(
                        ", speedup {:.2}x vs floor {:.2}x",
                        outcome.speedup_current.unwrap_or(0.0),
                        outcome.speedup_floor.unwrap_or(0.0)
                    )
                } else {
                    ", speedup comparison skipped (single-core host or baseline)".to_string()
                };
                println!(
                    "perf gate: {:.1} loops/s serial vs baseline {:.1} ({:.2}x, floor {:.1}){} — ok",
                    outcome.current,
                    base.loops_per_sec_serial,
                    outcome.ratio,
                    outcome.floor,
                    speedup_note
                );
            }
        }
    }
    ExitCode::SUCCESS
}
