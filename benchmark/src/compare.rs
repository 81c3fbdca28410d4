//! `compare A.json B.json`: B (the change) judged against A (the parent)
//! by the bound each end-to-end metric fixes, one row per (metric,
//! workload) pair. Both files come from `run`, each holding one or more
//! runs of all workloads.

use crate::json::{self, Json};
use crate::spec::{self, EndToEnd};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The runs' spread is wider than the bound and the two sides'
    /// values interleave: the data cannot say.
    Unresolved,
}

/// Quartile distance over the median; 0 for a single run.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE)
}

/// Judges `b` against `a`. Returns the verdict, the share by which `b`'s
/// median is worse than `a`'s (negative: better), and the wider spread.
pub fn judge(m: &EndToEnd, bound: f64, a: &[f64], b: &[f64]) -> (Verdict, f64, f64) {
    let (ma, mb) = (median(a), median(b));
    let sign = if m.higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    let wide = spread(a).max(spread(b));
    // every run of one side beats every run of the other: not interleaved
    let worse_than = |x: f64, y: f64| sign * (x - y) > 0.0;
    let separated = b.iter().all(|&x| a.iter().all(|&y| worse_than(x, y)))
        || b.iter().all(|&x| a.iter().all(|&y| worse_than(y, x)));
    let verdict = if wide > bound && !separated {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (verdict, worse_by, wide)
}

/// The one metric no bound judges: any rise in the share of attempted ops
/// that failed is a regression, however small. `a` and `b` are each side's
/// `(failed, attempted)` summed over its runs.
pub fn judge_failures(a: (f64, f64), b: (f64, f64)) -> Verdict {
    // failed_b / attempted_b against failed_a / attempted_a, in whole numbers
    match (b.0 * a.1).total_cmp(&(a.0 * b.1)) {
        std::cmp::Ordering::Greater => Verdict::Worse,
        std::cmp::Ordering::Less => Verdict::Better,
        std::cmp::Ordering::Equal => Verdict::Same,
    }
}

/// What `compare` reads from a result file.
#[derive(Default)]
struct Loaded {
    /// `(workload, metric) → one value per run`.
    values: BTreeMap<(String, String), Vec<f64>>,
    /// `workload → (failed, attempted)` summed over the runs.
    checks: BTreeMap<String, (f64, f64)>,
}

fn load(path: &str) -> Result<Loaded, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let file = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = file
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no \"runs\" (is it a `run` result file?)"))?;
    let mut out = Loaded::default();
    for run in runs {
        for (workload, entry) in run.as_obj().unwrap_or(&[]) {
            let result = entry.get("result");
            let count = |key| result.and_then(|r| r.get(key)).and_then(Json::as_f64);
            if let (Some(failed), Some(attempted)) = (count("failed"), count("attempted")) {
                let sums = out.checks.entry(workload.clone()).or_default();
                sums.0 += failed;
                sums.1 += attempted;
            }
            let metrics = result
                .and_then(|r| r.get("metrics"))
                .and_then(Json::as_obj)
                .unwrap_or(&[]);
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    out.values
                        .entry((workload.clone(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(out)
}

/// Prints the table; `Ok(false)` when any row is worse.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: compare <A.json> <B.json>".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<12} {:<20} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B worse", "spread", "bound"
    );
    let (mut rows, mut worse) = (0, 0);
    for w in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let bound = m.bound_on(w.name);
            let (mut verdict, worse_by, wide) = judge(m, bound, va, vb);
            if m.name == "passed_fraction" {
                if let (Some(ca), Some(cb)) = (a.checks.get(w.name), b.checks.get(w.name)) {
                    verdict = judge_failures(*ca, *cb);
                }
            }
            rows += 1;
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{:<12} {:<20} {:>14.6} {:>14.6} {:>+8.2}% {:>7.2}% {:>6.1}%  {}",
                w.name,
                m.name,
                median(va),
                median(vb),
                worse_by * 100.0,
                wide * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Better => "better",
                    Verdict::Same => "same",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    if rows == 0 {
        return Err("the two files share no (workload, end-to-end metric) pair".into());
    }
    println!("{rows} rows, {worse} worse");
    Ok(worse == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: EndToEnd = EndToEnd {
        name: "a_time",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        gate: 0.25,
    };
    const HIGHER: EndToEnd = EndToEnd {
        name: "a_rate",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
        gate: 0.25,
    };

    #[test]
    fn single_runs_are_judged_by_the_bound_alone() {
        assert_eq!(judge(&LOWER, 0.25, &[1.0], &[1.2]).0, Verdict::Same);
        assert_eq!(judge(&LOWER, 0.25, &[1.0], &[1.3]).0, Verdict::Worse);
        assert_eq!(judge(&LOWER, 0.25, &[1.0], &[0.7]).0, Verdict::Better);
        // direction flips for a higher-is-better metric
        assert_eq!(judge(&HIGHER, 0.25, &[100.0], &[70.0]).0, Verdict::Worse);
        assert_eq!(judge(&HIGHER, 0.25, &[100.0], &[130.0]).0, Verdict::Better);
        assert_eq!(judge(&HIGHER, 0.25, &[100.0], &[90.0]).0, Verdict::Same);
        let (_, worse_by, wide) = judge(&HIGHER, 0.25, &[100.0], &[70.0]);
        assert!((worse_by - 0.3).abs() < 1e-12 && wide == 0.0);
    }

    #[test]
    fn tight_runs_resolve_and_noisy_interleaved_runs_do_not() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        let worse = [1.40, 1.41, 1.39, 1.40, 1.42];
        assert_eq!(judge(&LOWER, 0.25, &a, &worse).0, Verdict::Worse);
        assert_eq!(judge(&LOWER, 0.25, &a, &a).0, Verdict::Same);
        // spread far over the bound, values interleave: cannot say, even
        // though the medians differ by more than the bound
        let noisy_a = [0.6, 1.0, 1.4, 0.7, 1.3];
        let noisy_b = [0.8, 1.3, 1.9, 0.9, 1.6];
        assert_eq!(
            judge(&LOWER, 0.25, &noisy_a, &noisy_b).0,
            Verdict::Unresolved
        );
        // as noisy, but every run of B is above every run of A: resolved
        let far_b = [2.0, 2.6, 3.4, 2.2, 3.0];
        assert_eq!(judge(&LOWER, 0.25, &noisy_a, &far_b).0, Verdict::Worse);
        let far_better = [0.1, 0.2, 0.3, 0.15, 0.25];
        assert_eq!(
            judge(&LOWER, 0.25, &noisy_a, &far_better).0,
            Verdict::Better
        );
    }

    #[test]
    fn any_rise_in_the_failed_share_is_worse() {
        // one more failure in five thousand ops, far inside any bound
        assert_eq!(judge_failures((0.0, 5000.0), (1.0, 5000.0)), Verdict::Worse);
        assert_eq!(judge_failures((0.0, 5000.0), (0.0, 4000.0)), Verdict::Same);
        assert_eq!(
            judge_failures((2.0, 1000.0), (1.0, 1000.0)),
            Verdict::Better
        );
        // the same share of a longer run is the same
        assert_eq!(judge_failures((1.0, 1000.0), (2.0, 2000.0)), Verdict::Same);
    }

    #[test]
    fn result_files_load_one_value_per_run() {
        // inside the package's ignored out/ directory, like everything the
        // benchmark writes
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = |name: &str, p50s: &[f64], failed: u64| {
            let runs: Vec<String> = p50s
                .iter()
                .map(|v| {
                    format!(
                        r#"{{"cold_deep": {{"detail": {{}}, "result": {{"correct": true,
                           "attempted": 200, "failed": {failed}, "metrics":
                           {{"op_s_p50": {{"value": {v}, "unit": "s"}},
                             "passed_fraction": {{"value": 1, "unit": "ratio"}}}}}}}}}}"#
                    )
                })
                .collect();
            let path = dir.join(name);
            std::fs::write(&path, format!(r#"{{"runs": [{}]}}"#, runs.join(","))).unwrap();
            path.to_string_lossy().into_owned()
        };
        let a = file("a.json", &[1.0, 1.02], 0);
        let b = file("b.json", &[1.5, 1.52], 0);
        let key = ("cold_deep".to_string(), "op_s_p50".to_string());
        let loaded = load(&a).unwrap();
        assert_eq!(loaded.values[&key], vec![1.0, 1.02]);
        assert_eq!(loaded.checks["cold_deep"], (0.0, 400.0));
        assert_eq!(main(&[a.clone(), a.clone()]), Ok(true));
        assert_eq!(main(&[a.clone(), b]), Ok(false));
        // the same timings with one failed op in four hundred: worse
        let c = file("c.json", &[1.0, 1.02], 1);
        assert_eq!(main(&[a.clone(), c]), Ok(false));
        assert!(main(&[a]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
