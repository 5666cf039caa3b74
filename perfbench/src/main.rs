//! Benchmark command.
//!
//! ```text
//! tms-perfbench --workload <specfp-compile|doacross-sim|tmsd-mixed>
//!               --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! tms-perfbench serve --jobs <n> --trace <0|1>   # the tmsd child process
//! ```
//!
//! Prints every metric by name with its unit, then, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 1 if any correctness check failed and
//! 2 on a usage or set-up error.

use std::path::PathBuf;
use std::process::ExitCode;
use tms_perfbench::{run, serve, RunOptions, Workload};

const USAGE: &str = "usage: tms-perfbench --workload <specfp-compile|doacross-sim|tmsd-mixed> \
                     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]";

fn parse_args(args: &[String]) -> Result<(Workload, RunOptions), String> {
    let mut workload = None;
    let mut opts = RunOptions {
        seed: 0,
        seconds: 0.0,
        trace: false,
        out_dir: PathBuf::from("perfbench/out"),
        cap: None,
        iterations: None,
        daemon_exe: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
    };
    let (mut seed, mut seconds, mut trace) = (false, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => {
                opts.seed = value.parse().map_err(|_| bad("an unsigned integer"))?;
                seed = true;
            }
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err(bad("a positive number of seconds"));
                }
                seconds = true;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
                trace = true;
            }
            "--out" => opts.out_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seed && seconds && trace) {
        return Err("--seed, --seconds and --trace are required".to_string());
    }
    Ok((workload, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        let parsed = match args.as_slice() {
            [_, j, n, t, on] if j == "--jobs" && t == "--trace" => {
                n.parse().ok().zip(match on.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                })
            }
            _ => None,
        };
        let Some((jobs, traced)) = parsed else {
            eprintln!("usage: tms-perfbench serve --jobs <n> --trace <0|1>");
            return ExitCode::from(2);
        };
        return match serve::serve_daemon(jobs, traced) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("tms-perfbench serve: {e}");
                ExitCode::from(2)
            }
        };
    }
    let (workload, opts) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("tms-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(workload, &opts) {
        Ok(report) => {
            print!("{}", report.render(workload, opts.seed, opts.trace));
            println!("{}", report.json_line());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("tms-perfbench: {}: {e}", workload.name());
            ExitCode::from(2)
        }
    }
}
