//! The `repro` command line: an unknown section, an unknown flag or no
//! section at all prints the usage and exits non-zero before any section
//! runs.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

#[test]
fn bad_arguments_print_the_usage_and_fail() {
    for args in [&["fig10"][..], &["table3", "fig10"], &["--bogus"], &[]] {
        let out = repro(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} ran a section");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("usage: repro"), "{args:?}: {err}");
    }
}
