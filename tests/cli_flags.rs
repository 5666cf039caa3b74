//! Strict flag parsing of the `tms` binary: a malformed value, a
//! missing value or an unknown flag is a structured exit-2 error that
//! names the problem, never a silent default.

use std::process::Command;

fn tms(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tms"))
        .args(args)
        .output()
        .expect("tms binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
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
