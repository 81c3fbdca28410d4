//! End-to-end CLI test: refactor → info → retrieve through the `pqr`
//! binary, with byte-exact file I/O verification of the guarantee.

use std::path::PathBuf;
use std::process::Command;

fn write_f64(path: &PathBuf, data: &[f64]) {
    let mut bytes = Vec::with_capacity(data.len() * 8);
    for v in data {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    std::fs::write(path, bytes).unwrap();
}

fn read_f64(path: &PathBuf) -> Vec<f64> {
    std::fs::read(path)
        .unwrap()
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

fn pqr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pqr"))
}

/// A fresh temp dir holding `<tag>.pqr`, refactored from `fields` with the
/// `NAME=EXPR` QoI registrations `qois`.
fn archive_of(tag: &str, fields: &[(&str, Vec<f64>)], qois: &[&str]) -> (PathBuf, PathBuf) {
    archive_with(tag, fields, qois, &[])
}

/// [`archive_of`] with further `refactor` arguments.
fn archive_with(
    tag: &str,
    fields: &[(&str, Vec<f64>)],
    qois: &[&str],
    args: &[&str],
) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("pqr-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let archive = dir.join(format!("{tag}.pqr"));
    let mut refactor = pqr();
    refactor.args(["refactor", "--out", archive.to_str().unwrap()]);
    refactor.args(args);
    for (name, data) in fields {
        let path = dir.join(format!("{name}.f64"));
        write_f64(&path, data);
        refactor.args(["--field", &format!("{name}:{}", path.display())]);
    }
    for qoi in qois {
        refactor.args(["--qoi", qoi]);
    }
    let out = refactor.output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (dir, archive)
}

#[test]
fn refactor_info_retrieve_roundtrip() {
    let dir = std::env::temp_dir().join(format!("pqr-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let n = 4000;
    let vx: Vec<f64> = (0..n)
        .map(|i| (i as f64 * 0.01).sin() * 30.0 + 50.0)
        .collect();
    let vy: Vec<f64> = (0..n)
        .map(|i| (i as f64 * 0.013).cos() * 20.0 + 40.0)
        .collect();
    write_f64(&dir.join("vx.f64"), &vx);
    write_f64(&dir.join("vy.f64"), &vy);

    // refactor
    let archive = dir.join("data.pqr");
    let out = pqr()
        .args([
            "refactor",
            "--out",
            archive.to_str().unwrap(),
            "--scheme",
            "psz3-delta",
            "--field",
            &format!("Vx:{}", dir.join("vx.f64").display()),
            "--field",
            &format!("Vy:{}", dir.join("vy.f64").display()),
            "--qoi",
            "V2=x0^2 + x1^2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(archive.exists());

    // info
    let out = pqr()
        .args(["info", archive.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Vx"), "info output: {text}");
    assert!(text.contains("V2"), "info output: {text}");
    assert!(text.contains("PSZ3-delta"), "info output: {text}");

    // retrieve
    let derived = dir.join("v2.f64");
    let recon = dir.join("vx_recon.f64");
    let out = pqr()
        .args([
            "retrieve",
            archive.to_str().unwrap(),
            "--qoi",
            "V2",
            "--tol",
            "1e-6",
            "--out",
            derived.to_str().unwrap(),
            "--field",
            "Vx",
            "--out-field",
            recon.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // verify the guarantee on the written files
    let got = read_f64(&derived);
    assert_eq!(got.len(), n);
    let truth: Vec<f64> = vx.iter().zip(&vy).map(|(a, b)| a * a + b * b).collect();
    let range = truth.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - truth.iter().cloned().fold(f64::INFINITY, f64::min);
    let worst = truth
        .iter()
        .zip(&got)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(
        worst <= 1e-6 * range,
        "QoI error {worst} > {}",
        1e-6 * range
    );

    let vx_recon = read_f64(&recon);
    assert_eq!(vx_recon.len(), n);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pzfp_scheme_and_estimator_flags() {
    let dir = std::env::temp_dir().join(format!("pqr-cli-pzfp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let n = 3000;
    let t: Vec<f64> = (0..n)
        .map(|i| 280.0 + 30.0 * (i as f64 * 0.004).sin())
        .collect();
    write_f64(&dir.join("t.f64"), &t);

    let archive = dir.join("t.pqr");
    let out = pqr()
        .args([
            "refactor",
            "--out",
            archive.to_str().unwrap(),
            "--scheme",
            "pzfp",
            "--field",
            &format!("T:{}", dir.join("t.f64").display()),
            "--qoi",
            "lnT=ln(x0)",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let info = pqr()
        .args(["info", archive.to_str().unwrap()])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&info.stdout);
    assert!(text.contains("PZFP"), "info output: {text}");
    assert!(text.contains("lnT"), "info output: {text}");

    // retrieve with each estimator; all must satisfy the same tolerance
    for est in ["paper", "exact-sqrt", "interval"] {
        let derived = dir.join(format!("lnT-{est}.f64"));
        let out = pqr()
            .args([
                "retrieve",
                archive.to_str().unwrap(),
                "--qoi",
                "lnT",
                "--tol",
                "1e-6",
                "--estimator",
                est,
                "--out",
                derived.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "estimator {est}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let got = read_f64(&derived);
        let truth: Vec<f64> = t.iter().map(|v| v.ln()).collect();
        let range = truth.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - truth.iter().cloned().fold(f64::INFINITY, f64::min);
        let worst = truth
            .iter()
            .zip(&got)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(worst <= 1e-6 * range, "estimator {est}: error {worst}");
    }

    // unknown estimator is a clean failure
    let out = pqr()
        .args([
            "retrieve",
            archive.to_str().unwrap(),
            "--qoi",
            "lnT",
            "--tol",
            "1e-3",
            "--estimator",
            "oracle",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retrieval_resumes_across_invocations() {
    for scheme in ["psz3-delta", "pmgard-hb", "pzfp"] {
        let u = (0..6000).map(|i| (i as f64 * 0.006).sin() * 40.0 + 5.0);
        let (dir, archive) = archive_with(
            &format!("resume-{scheme}"),
            &[("u", u.collect())],
            &["u2=x0^2"],
            &["--scheme", scheme],
        );
        let retrieve = |tol: &str, progress: (&str, &PathBuf)| {
            pqr()
                .args(["retrieve", archive.to_str().unwrap(), "--qoi", "u2"])
                .args(["--tol", tol, progress.0, progress.1.to_str().unwrap()])
                .output()
                .unwrap()
        };

        // invocation 1: loose tolerance, save progress
        let progress = dir.join("u.progress");
        let out = retrieve("1e-2", ("--save-progress", &progress));
        assert!(
            out.status.success(),
            "{scheme}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(progress.exists(), "{scheme}");

        // invocation 2: resume, tighter tolerance — only the increment is new
        let out = retrieve("1e-6", ("--resume", &progress));
        assert!(
            out.status.success(),
            "{scheme}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let report = String::from_utf8_lossy(&out.stdout);
        assert!(report.contains("new)"), "{scheme}: report: {report}");

        // a progress file saved in the retired per-family marker format (a
        // PMGARD marker: tag 1, then planes per level) is refused, not
        // misread
        let mut old = b"PQRP".to_vec();
        old.extend_from_slice(&1u32.to_le_bytes());
        old.push(1);
        old.extend_from_slice(&2u32.to_le_bytes());
        old.extend_from_slice(&3u32.to_le_bytes());
        old.extend_from_slice(&1u32.to_le_bytes());
        std::fs::write(&progress, old).unwrap();
        let out = retrieve("1e-3", ("--resume", &progress));
        assert!(!out.status.success(), "{scheme}");
        assert!(out.stdout.is_empty(), "{scheme}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("retired per-family format"), "{scheme}: {err}");

        // resuming with a corrupt progress file fails cleanly
        std::fs::write(&progress, b"garbage").unwrap();
        let out = retrieve("1e-3", ("--resume", &progress));
        assert!(!out.status.success(), "{scheme}");

        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn f32_files_read_and_write_by_extension() {
    let dir = std::env::temp_dir().join(format!("pqr-cli-f32-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let n = 2000;
    let data: Vec<f64> = (0..n)
        .map(|i| f64::from((i as f32 * 0.01).sin() * 12.5 + 20.0))
        .collect();
    // write as f32
    let mut bytes = Vec::with_capacity(n * 4);
    for v in &data {
        bytes.extend_from_slice(&(*v as f32).to_le_bytes());
    }
    std::fs::write(dir.join("u.f32"), bytes).unwrap();

    let archive = dir.join("u.pqr");
    let out = pqr()
        .args([
            "refactor",
            "--out",
            archive.to_str().unwrap(),
            "--field",
            &format!("u:{}", dir.join("u.f32").display()),
            "--qoi",
            "u2=x0^2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // retrieve back out as f32
    let derived = dir.join("u2.f32");
    let out = pqr()
        .args([
            "retrieve",
            archive.to_str().unwrap(),
            "--qoi",
            "u2",
            "--tol",
            "1e-5",
            "--out",
            derived.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let got: Vec<f64> = std::fs::read(&derived)
        .unwrap()
        .chunks_exact(4)
        .map(|c| f64::from(f32::from_le_bytes(c.try_into().unwrap())))
        .collect();
    assert_eq!(got.len(), n);
    let truth: Vec<f64> = data.iter().map(|v| v * v).collect();
    let range = truth.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - truth.iter().cloned().fold(f64::INFINITY, f64::min);
    let worst = truth
        .iter()
        .zip(&got)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    // tolerance + the f32 narrowing of the *output* file
    assert!(worst <= 1e-5 * range + range * 1e-6, "error {worst}");

    // mis-sized f32 file is a clean error
    std::fs::write(dir.join("bad.f32"), [1u8, 2, 3]).unwrap();
    let out = pqr()
        .args([
            "refactor",
            "--out",
            dir.join("bad.pqr").to_str().unwrap(),
            "--field",
            &format!("b:{}", dir.join("bad.f32").display()),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_rejects_nonsense() {
    // unknown command
    let out = pqr().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    // refactor without fields
    let out = pqr()
        .args(["refactor", "--out", "/tmp/x.pqr"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // retrieve from a missing archive
    let out = pqr()
        .args([
            "retrieve",
            "/nonexistent.pqr",
            "--qoi",
            "x",
            "--tol",
            "1e-3",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // bad QoI expression
    let out = pqr()
        .args([
            "refactor",
            "--out",
            "/tmp/bad.pqr",
            "--field",
            "f:/dev/null",
            "--qoi",
            "bad=x0^3.5",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("sqrt"), "fractional-power hint missing: {err}");
}

#[test]
fn help_prints_usage() {
    let out = pqr().args(["help"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("refactor"));
    assert!(text.contains("retrieve"));
    assert!(!text.contains("serve-bench"), "{text}");
}

#[test]
fn multi_qoi_retrieve_prints_per_target_table_and_savings() {
    let n = 3000;
    let vx = (0..n).map(|i| (i as f64 * 0.012).sin() * 25.0 + 40.0);
    let vy = (0..n).map(|i| (i as f64 * 0.019).cos() * 12.0 + 30.0);
    let fields = [("Vx", vx.collect()), ("Vy", vy.collect())];
    let qois = ["V=sqrt(x0^2 + x1^2)", "KE=0.5 * (x0^2 + x1^2)", "Vx2=x0^2"];
    let (dir, archive) = archive_of("multi", &fields, &qois);

    // batched multi-QoI retrieval over QoIs sharing both fields
    let out = pqr()
        .args([
            "retrieve",
            archive.to_str().unwrap(),
            "--qoi",
            "V=1e-4",
            "--qoi",
            "KE=1e-4",
            "--qoi",
            "Vx2=1e-3",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table = String::from_utf8_lossy(&out.stdout);
    for name in ["target", "V", "KE", "Vx2", "shared fragments saved"] {
        assert!(table.contains(name), "missing '{name}' in:\n{table}");
    }
    // every target line certifies
    assert!(!table.contains(" NO "), "unsatisfied target in:\n{table}");
    let diag = String::from_utf8_lossy(&out.stderr);
    assert!(diag.contains("read ops"), "missing read-op line: {diag}");

    // mixing the two --qoi forms is rejected
    let out = pqr()
        .args([
            "retrieve",
            archive.to_str().unwrap(),
            "--qoi",
            "V=1e-4",
            "--qoi",
            "KE",
            "--tol",
            "1e-4",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // --out is ambiguous across targets and rejected loudly (not dropped)
    let out = pqr()
        .args([
            "retrieve",
            archive.to_str().unwrap(),
            "--qoi",
            "V=1e-4",
            "--qoi",
            "KE=1e-4",
            "--out",
            dir.join("v.f64").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out-field"));

    // reconstructions are unambiguous (the field is named) and supported
    let recon = dir.join("vx_recon.f64");
    let out = pqr()
        .args([
            "retrieve",
            archive.to_str().unwrap(),
            "--qoi",
            "V=1e-4",
            "--qoi",
            "KE=1e-4",
            "--field",
            "Vx",
            "--out-field",
            recon.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(read_f64(&recon).len(), n);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn workers_flag_changes_nothing_but_is_validated() {
    let u = (0..4000).map(|i| (i as f64 * 0.009).sin() * 18.0 + 4.0);
    let (dir, archive) = archive_of("workers", &[("u", u.collect())], &["u2=x0^2"]);

    // the decode-parallelism knob is a CLI flag (no PQR_THREADS env
    // needed); results must be identical across worker counts
    let run = |extra: &[&str]| {
        let mut args = vec![
            "retrieve",
            archive.to_str().unwrap(),
            "--qoi",
            "u2",
            "--tol",
            "1e-5",
        ];
        args.extend_from_slice(extra);
        let out = pqr().args(&args).output().unwrap();
        assert!(
            out.status.success(),
            "{extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // the per-target table and the aggregate "fetched ... in N rounds"
        // line are deterministic
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let baseline = run(&[]);
    assert!(baseline.contains(" rounds, "), "{baseline}");
    assert_eq!(baseline, run(&["--workers", "1"]));
    assert_eq!(baseline, run(&["--workers", "4"]));
    // the NAME=TOL spelling accepts it too
    let out = pqr()
        .args([
            "retrieve",
            archive.to_str().unwrap(),
            "--qoi",
            "u2=1e-4",
            "--workers",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // bad values fail loudly, and so do flags retrieve does not take: the
    // read-side --overlap-io is gone, and a misspelt flag is not ignored
    for bad in [
        ["--workers", "many"],
        ["--overlap-io", "off"],
        ["--worker", "4"],
    ] {
        let out = pqr()
            .args([
                "retrieve",
                archive.to_str().unwrap(),
                "--qoi",
                "u2",
                "--tol",
                "1e-3",
                bad[0],
                bad[1],
            ])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{bad:?} should be rejected");
    }
    let out = pqr()
        .args([
            "retrieve",
            archive.to_str().unwrap(),
            "--qoi",
            "u2=1e-4",
            "--overlap-io",
            "on",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "multi-target --overlap-io accepted");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown flag '--overlap-io'"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // serving is measured by the benchmark's serve_warm and store_paged
    // workloads, not by a CLI subcommand
    let out = pqr()
        .args(["serve-bench", archive.to_str().unwrap(), "--qoi", "V=1e-5"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "serve-bench accepted");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown command 'serve-bench'"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn refactor_workers_and_overlap_flags_stream_identical_archives() {
    let dir = std::env::temp_dir().join(format!("pqr-cli-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let n = 4000;
    let vx: Vec<f64> = (0..n)
        .map(|i| (i as f64 * 0.011).sin() * 22.0 + 35.0)
        .collect();
    let vy: Vec<f64> = (0..n)
        .map(|i| (i as f64 * 0.017).cos() * 14.0 + 25.0)
        .collect();
    write_f64(&dir.join("vx.f64"), &vx);
    write_f64(&dir.join("vy.f64"), &vy);

    // the encode knobs may only change wall-clock: every (workers,
    // overlap) schedule must write byte-identical archives, and each run
    // must report its encode throughput
    let run = |tag: &str, extra: &[&str]| -> (Vec<u8>, String) {
        let archive = dir.join(format!("{tag}.pqr"));
        let mut args = vec![
            "refactor".to_string(),
            "--out".into(),
            archive.to_str().unwrap().into(),
            "--field".into(),
            format!("Vx:{}", dir.join("vx.f64").display()),
            "--field".into(),
            format!("Vy:{}", dir.join("vy.f64").display()),
            "--qoi".into(),
            "V2=x0^2 + x1^2".into(),
            "--mask".into(),
            "Vx,Vy".into(),
        ];
        args.extend(extra.iter().map(|s| s.to_string()));
        let out = pqr().args(&args).output().unwrap();
        assert!(
            out.status.success(),
            "{extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            std::fs::read(&archive).unwrap(),
            String::from_utf8_lossy(&out.stderr).to_string(),
        )
    };
    // the encode line reports the encoder threads that ran: one per
    // field, so a budget of 4 over these 2 fields runs 2
    let encode_line = |log: &str| -> String {
        log.lines()
            .find(|l| l.starts_with("encode:") && l.contains("fields/s"))
            .unwrap_or_else(|| panic!("missing encode-throughput line: {log}"))
            .to_string()
    };
    let (baseline, log) = run("w1off", &["--workers", "1", "--overlap-io", "off"]);
    assert!(encode_line(&log).contains("(1 workers"), "{log}");
    for (tag, extra, used) in [
        ("w1on", ["--workers", "1", "--overlap-io", "on"], 1),
        ("w4off", ["--workers", "4", "--overlap-io", "off"], 2),
        ("w4on", ["--workers", "4", "--overlap-io", "on"], 2),
    ] {
        let (bytes, log) = run(tag, &extra);
        assert_eq!(baseline, bytes, "{extra:?} changed archive bytes");
        let line = encode_line(&log);
        assert!(
            line.contains(&format!("({used} workers")),
            "{extra:?}: {line}"
        );
    }

    // the streamed archive retrieves with the guarantee intact
    let derived = dir.join("v2.f64");
    let out = pqr()
        .args([
            "retrieve",
            dir.join("w4on.pqr").to_str().unwrap(),
            "--qoi",
            "V2",
            "--tol",
            "1e-6",
            "--out",
            derived.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = read_f64(&derived);
    let truth: Vec<f64> = vx.iter().zip(&vy).map(|(a, b)| a * a + b * b).collect();
    let range = truth.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - truth.iter().cloned().fold(f64::INFINITY, f64::min);
    let worst = truth
        .iter()
        .zip(&got)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(worst <= 1e-6 * range, "QoI error {worst}");

    // bad values fail loudly, with no archive left behind
    for bad in [["--workers", "many"], ["--overlap-io", "maybe"]] {
        let target = dir.join("bad.pqr");
        let out = pqr()
            .args([
                "refactor",
                "--out",
                target.to_str().unwrap(),
                "--field",
                &format!("Vx:{}", dir.join("vx.f64").display()),
                bad[0],
                bad[1],
            ])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{bad:?} should be rejected");
        assert!(!target.exists(), "{bad:?} left a partial archive");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn both_qoi_spellings_run_one_path() {
    let u = (0..4000).map(|i| (i as f64 * 0.009).sin() * 18.0 + 4.0);
    let (dir, archive) = archive_of("spellings", &[("u", u.collect())], &["u2=x0^2"]);
    let retrieve = |spelling: &[&str]| {
        let out = pqr()
            .arg("retrieve")
            .arg(&archive)
            .args(spelling)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{spelling:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    // one request, one report: the same table and aggregate line
    let single = retrieve(&["--qoi", "u2", "--tol", "1e-5"]);
    assert!(String::from_utf8_lossy(&single).starts_with("target"));
    assert_eq!(single, retrieve(&["--qoi", "u2=1e-5"]));
    // --out writes the derived values of a lone NAME=TOL target
    let derived = dir.join("u2.f64");
    retrieve(&["--qoi", "u2=1e-5", "--out", derived.to_str().unwrap()]);
    assert_eq!(read_f64(&derived).len(), 4000);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn single_spelling_honours_the_byte_budget() {
    let vx = (0..4000).map(|i| (i as f64 * 0.01).sin() * 30.0 + 50.0);
    let vy = (0..4000).map(|i| (i as f64 * 0.013).cos() * 20.0 + 40.0);
    let fields = [("Vx", vx.collect()), ("Vy", vy.collect())];
    let (dir, archive) = archive_of("budget", &fields, &["R=x0/x1"]);
    // R at 1e-6 takes more than one round; a 1-byte budget stops it after
    // the first
    let out = pqr()
        .arg("retrieve")
        .arg(&archive)
        .args(["--qoi", "R", "--tol", "1e-6", "--budget", "1"])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "--budget ignored: {err}");
    assert!(err.contains("byte budget exhausted"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
