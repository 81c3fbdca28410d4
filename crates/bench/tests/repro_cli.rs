//! The `repro` command line: an unknown section, an unknown flag, no
//! section at all or a `PQR_SCALE` some section cannot run at prints the
//! usage and exits 2 before any section runs.

use std::process::Command;

fn repro_at(scale: Option<&str>, args: &[&str]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args).env_remove("PQR_SCALE");
    if let Some(scale) = scale {
        cmd.env("PQR_SCALE", scale);
    }
    cmd.output().expect("run repro")
}

fn assert_usage(out: &std::process::Output, what: &str) {
    assert_eq!(out.status.code(), Some(2), "{what}");
    assert!(out.stdout.is_empty(), "{what} ran a section");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("usage: repro"), "{what}: {err}");
}

#[test]
fn bad_arguments_print_the_usage_and_fail() {
    for args in [&["fig10"][..], &["table3", "fig10"], &["--bogus"], &[]] {
        assert_usage(&repro_at(None, args), &format!("{args:?}"));
    }
}

#[test]
fn a_scale_below_the_minimum_prints_the_usage() {
    // at 0.02 the NYX stand-in is one point and Fig. 5 has no range
    for scale in ["0.02", "0", "-1", "NaN", "big"] {
        assert_usage(&repro_at(Some(scale), &["fig5"]), scale);
    }
}
