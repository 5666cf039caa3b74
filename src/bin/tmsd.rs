//! `tmsd` — the TMS scheduling daemon and its chaos soak.
//!
//! ```text
//! tmsd serve [--addr HOST:PORT] [--queue-cap N] [--batch-max N]
//!            [--jobs N] [--cache PATH] [--deadline-ms N] [--faults SEED]
//! tmsd soak  [--requests N] [--seed SEED] [--addr HOST:PORT]
//!            [--queue-cap N] [--no-shutdown]
//! ```
//!
//! `serve` runs until a `shutdown` request arrives. `soak` hammers a
//! daemon (an in-process one with hot fault rates when `--addr` is
//! omitted) and exits 0 only if every robustness invariant held; see
//! `tms_daemon::soak`. Operational and usage errors exit 2, soak
//! assertion failures exit 1.

use std::process::ExitCode;
use tms_core::par::Parallelism;
use tms_daemon::{run_soak, serve, DaemonConfig, SoakConfig};
use tms_faults::{FaultPlan, FaultRates};
use tms_trace::Trace;
use tms_verify::cli::{self, Args};

const USAGE: &str = "usage: tmsd <serve|soak> [options]
  serve --addr HOST:PORT   listen address (default 127.0.0.1:9008)
        --queue-cap N      bounded queue depth per connection (default 64)
        --batch-max N      largest worker batch (default 8)
        --jobs N           worker-pool width (0 = auto; TMS_JOBS honoured)
        --cache PATH       persist the schedule cache as ndjson
        --deadline-ms N    default per-request deadline
        --faults SEED      arm the standard fault campaign (chaos)
  soak  --requests N       schedule requests to send (default 200)
        --seed SEED        fault-plan and corpus seed
        --addr HOST:PORT   soak a running daemon instead of in-process
        --queue-cap N      queue cap (in-process daemon / shed sizing)
        --no-shutdown      leave an external daemon running";

fn fail(msg: &str) -> ExitCode {
    eprintln!("tmsd: {msg}");
    ExitCode::from(2)
}

fn cmd_serve(mut args: Args) -> Result<(), String> {
    let mut cfg = DaemonConfig {
        addr: "127.0.0.1:9008".to_string(),
        ..DaemonConfig::default()
    };
    if let Some(jobs) = Parallelism::from_env()? {
        cfg.jobs = jobs;
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => cfg.addr = args.value("--addr")?,
            "--queue-cap" => cfg.queue_cap = args.parsed("--queue-cap")?,
            "--batch-max" => cfg.batch_max = args.parsed("--batch-max")?,
            "--jobs" => cfg.jobs = args.jobs("--jobs")?,
            "--cache" => cfg.cache_path = Some(args.value("--cache")?.into()),
            "--deadline-ms" => {
                cfg.deadline = Some(std::time::Duration::from_millis(
                    args.parsed("--deadline-ms")?,
                ))
            }
            "--faults" => {
                cfg.plan = FaultPlan::with_rates(args.seed("--faults")?, FaultRates::default())
            }
            other => return Err(format!("{}\n{USAGE}", cli::unknown(other))),
        }
    }
    serve(&cfg, Trace::enabled(), |addr| {
        println!("tmsd listening on {addr}");
    })
}

fn cmd_soak(mut args: Args) -> Result<ExitCode, String> {
    let mut cfg = SoakConfig::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--requests" => cfg.requests = args.parsed("--requests")?,
            "--seed" | "--faults" => cfg.seed = args.seed(&arg)?,
            "--addr" => cfg.addr = Some(args.value("--addr")?),
            "--queue-cap" => cfg.queue_cap = args.parsed("--queue-cap")?,
            "--no-shutdown" => cfg.shutdown = false,
            other => return Err(format!("{}\n{USAGE}", cli::unknown(other))),
        }
    }
    let report = run_soak(&cfg)?;
    println!("{}", report.summary());
    Ok(if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(code) = cli::help(&argv, USAGE) {
        return code;
    }
    let mut args = Args::new(argv);
    let Some(cmd) = args.next() else {
        return fail(USAGE);
    };
    match cmd.as_str() {
        "serve" => match cmd_serve(args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        },
        "soak" => match cmd_soak(args) {
            Ok(code) => code,
            Err(e) => fail(&e),
        },
        other => fail(&format!("unknown command {other:?}\n{USAGE}")),
    }
}
