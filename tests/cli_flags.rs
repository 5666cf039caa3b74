//! Strict flag parsing of the `tms` and `tmsd` binaries: a malformed
//! value, a missing value or an unknown flag is a structured exit-2
//! error that names the problem, never a silent default. Exit 1 is
//! left for failed checks. `--help` anywhere, subcommands included,
//! prints the usage to standard output and exits 0.

use std::process::Command;

fn run(exe: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(exe).args(args).output().expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn tms(args: &[&str]) -> (Option<i32>, String) {
    run(env!("CARGO_BIN_EXE_tms"), args)
}

#[test]
fn profile_rejects_malformed_missing_and_unknown_flags() {
    for (args, names) in [
        (&["profile", "figure1", "--ncore", "abc"][..], "--ncore"),
        (&["profile", "figure1", "--ncore", "0"][..], "--ncore"),
        (&["profile", "figure1", "--top"][..], "--top"),
        (&["profile", "figure1", "--bogus"][..], "--bogus"),
    ] {
        let (code, stderr) = tms(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(names), "{args:?}: {stderr}");
    }
}

#[test]
fn schedule_rejects_the_retired_adaptive_flag() {
    let (code, stderr) = tms(&["schedule", "figure1", "--adaptive"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown option"), "{stderr}");
}

#[test]
fn usage_input_and_write_errors_exit_2() {
    let dir = std::env::temp_dir().join(format!("tms_cli_flags_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad_spill = dir.join("bad.trace.ndjson");
    std::fs::write(&bad_spill, "{\"ph\":\"X\"}\n").unwrap();
    let bad_report = dir.join("bad_profile.json");
    std::fs::write(&bad_report, "{\"schema\": \"other\"}").unwrap();
    let (bad_spill, bad_report) = (bad_spill.to_str().unwrap(), bad_report.to_str().unwrap());
    let out = dir.join("out.json");
    let out = out.to_str().unwrap();
    // Beneath a regular file: no writer can create this path.
    let unwritable = format!("{bad_spill}/x.json");
    let unwritable = unwritable.as_str();
    let pattern = format!("{}/*.none", dir.display());
    for (args, names) in [
        (&[][..], "usage"),
        (&["bogus"][..], "unknown command"),
        (&["schedule"][..], "usage"),
        (&["schedule", "no-such-loop"][..], "unknown loop"),
        (&["export", "no-such-loop", out][..], "unknown loop"),
        (&["profile"][..], "usage"),
        (&["profile", "no-such-loop"][..], "unknown profile target"),
        (&["profile", "diff", bad_report][..], "usage"),
        (
            &["profile", "diff", bad_report, bad_report][..],
            "tms-profile-v1",
        ),
        (
            &["profile", "diff", "/no/such/a.json", "/no/such/b.json"][..],
            "cannot read",
        ),
        (
            &["profile", "figure1", "--json", unwritable][..],
            "cannot write",
        ),
        (&["trace", "merge"][..], "usage"),
        (&["trace", "merge", out][..], "no input files"),
        (&["trace", "merge", out, &pattern][..], "matched no files"),
        (&["trace", "merge", out, bad_spill][..], "line 1"),
        (&["trace", "merge", unwritable, bad_spill][..], "line 1"),
        (
            &["trace", "figure1", "--trace", unwritable][..],
            "cannot write",
        ),
    ] {
        let (code, stderr) = tms(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(names), "{args:?}: {stderr}");
    }
    assert_eq!(tms(&["--help"]).0, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tmsd_rejects_unknown_and_malformed_flags_before_serving() {
    let tmsd = env!("CARGO_BIN_EXE_tmsd");
    for (args, names) in [
        (&["serve", "--bogus"][..], "unknown option"),
        (&["soak", "--requests", "abc"][..], "--requests"),
        (&["soak", "--seed", "0xZZ"][..], "--seed"),
        (&["serve", "--jobs"][..], "--jobs needs a value"),
    ] {
        let (code, stderr) = run(tmsd, args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(names), "{args:?}: {stderr}");
    }
}

#[test]
fn help_prints_usage_and_exits_0_at_every_level() {
    let tmsd = env!("CARGO_BIN_EXE_tmsd");
    for (exe, args, usage) in [
        (env!("CARGO_BIN_EXE_tms"), &["--help"][..], "usage: tms "),
        (env!("CARGO_BIN_EXE_tms"), &["help"][..], "usage: tms "),
        (
            env!("CARGO_BIN_EXE_tms"),
            &["schedule", "figure1", "--help"][..],
            "usage: tms ",
        ),
        (
            env!("CARGO_BIN_EXE_tms"),
            &["simulate", "lfk7-state", "--iters", "5", "-h"][..],
            "usage: tms ",
        ),
        (
            env!("CARGO_BIN_EXE_tms"),
            &["profile", "figure1", "--help"][..],
            "usage: tms ",
        ),
        (tmsd, &["--help"][..], "usage: tmsd "),
        (tmsd, &["serve", "--help"][..], "usage: tmsd "),
        (
            tmsd,
            &["soak", "--requests", "3", "--help"][..],
            "usage: tmsd ",
        ),
    ] {
        let out = Command::new(exe).args(args).output().expect("binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stdout}");
        assert!(stdout.starts_with(usage), "{args:?}: {stdout}");
        assert!(out.stderr.is_empty(), "{args:?}");
    }
}
