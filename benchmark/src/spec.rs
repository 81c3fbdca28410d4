//! The benchmark's contract as tables: workloads, end-to-end metrics with
//! their bounds, per-layer metrics and what each should move.
//! `BENCHMARK.json` is printed from these (`manifest` subcommand) and a unit
//! test holds the committed file to them, so `compare` and the driver judge
//! by the same tables.

use crate::json::{obj, Json};

pub struct Workload {
    pub name: &'static str,
    /// Closed-loop clients (threads or connections) the workload drives.
    pub clients: usize,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "cold_deep",
        clients: 1,
        why: "open + fresh session + 3 x^2 QoIs at rel 1e-9 on hurricane, cycling PMGARD-HB/PZFP/PSZ3-delta: fragment reads, entropy, codec decode and recompose do the work; store, pager, serve none",
    },
    Workload {
        name: "sweep_qoi",
        clients: 1,
        why: "20-step tolerance series 0.1*2^-i, six GE QoIs per request, one persistent session: the Alg. 2-4 estimate/tighten loop does the work, codecs little, fetch almost none",
    },
    Workload {
        name: "store_paged",
        clients: 2,
        why: "two threads, new service session per op, one x^2 QoI at 1e-2/1e-4/1e-7, store budget = working set / 8: pager eviction and plan-replay rehydration do the work; wire none",
    },
    Workload {
        name: "serve_warm",
        clients: 2,
        why: "two socket clients, one GE QoI at 1e-1..1e-6 against a warm unbounded pqr-serve: wire, admission, 3 ms coalescing window, plan and one estimator scan; decode and pager none",
    },
    Workload {
        name: "ingest",
        clients: 1,
        why: "build_to_path of the small hurricane set, cycling the three schemes: the encode side of the same codecs and the streaming writer; a decode gain paid for in ingest shows here",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen before
    /// `compare` calls a change worse: the figure the issue that defined the
    /// benchmark fixed. `compare` judges medians of repeated runs and answers
    /// *unresolved* when the runs spread wider than this.
    pub bound: f64,
    /// The same share as `BENCHMARK.json` carries it to the driver, which
    /// refuses a benchmark whose single runs on ten seeds spread wider than
    /// it and rejects a change outright beyond it. It has no *unresolved*, so
    /// this is the widest the recording box reads on unchanged code (README,
    /// "Baseline"), at most the contract's 0.25.
    pub gate: f64,
}

impl EndToEnd {
    /// [`EndToEnd::bound`] on one workload: `store_paged`'s two threads race
    /// evictions, so the bytes it fetches get the looser figure.
    pub fn bound_on(&self, workload: &str) -> f64 {
        match (self.name, workload) {
            ("bytes_per_raw_byte", "store_paged") => 0.05,
            _ => self.bound,
        }
    }
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        gate: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.10,
        gate: 0.25,
    },
    EndToEnd {
        name: "op_s_p50",
        unit: "s",
        higher_is_better: false,
        bound: 0.10,
        gate: 0.25,
    },
    EndToEnd {
        name: "op_s_p90",
        unit: "s",
        higher_is_better: false,
        bound: 0.15,
        gate: 0.25,
    },
    // judged by the counts, not by a bound: see `compare::judge_failures`
    EndToEnd {
        name: "passed_fraction",
        unit: "ratio",
        higher_is_better: true,
        bound: 0.001,
        gate: 0.001,
    },
    // across seeds the data itself differs by a per cent or two
    EndToEnd {
        name: "bytes_per_raw_byte",
        unit: "ratio",
        higher_is_better: false,
        bound: 0.01,
        gate: 0.10,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.10,
        gate: 0.25,
    },
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Per-op means unless the name says otherwise; which end-to-end metric
/// each should move, on which workload, is tabled in the README.
pub const PER_LAYER: [PerLayer; 66] = [
    lower("core.open_s", "s"),
    lower("core.session_s", "s"),
    lower("core.plan_s", "s"),
    lower("core.execute_s", "s"),
    lower("core.request_codec_s", "s"),
    lower("core.execute_unattributed_s", "s"),
    lower("fragstore.read_s", "s"),
    lower("fragstore.read_ops", "count"),
    lower("fragstore.fragments", "count"),
    lower("fragstore.bytes", "bytes"),
    lower("reader.refine_s", "s"),
    lower("reader.reconstruct_s", "s"),
    lower("reader.decode_s", "s"),
    lower("reader.fragments_decoded", "count"),
    lower("reader.recompose_passes", "count"),
    higher("reader.recon_cache_hits", "count"),
    lower("engine.scan_s", "s"),
    lower("engine.iterations", "count"),
    lower("engine.estimate_share", "ratio"),
    lower("engine.qoi_values_s", "s"),
    lower("qoi.scan_ns_per_point", "ns"),
    higher("mgard.bitplane.decode_mb_s", "MB/s"),
    higher("mgard.bitplane.encode_mb_s", "MB/s"),
    lower("mgard.transform.recompose_s", "s"),
    lower("mgard.transform.decompose_s", "s"),
    higher("zfp.decode_mb_s", "MB/s"),
    higher("zfp.encode_mb_s", "MB/s"),
    higher("sz.decompress_mb_s", "MB/s"),
    higher("sz.compress_mb_s", "MB/s"),
    higher("util.huffman.decode_mb_s", "MB/s"),
    higher("util.huffman.encode_mb_s", "MB/s"),
    higher("util.rle.decode_mb_s", "MB/s"),
    higher("util.rle.encode_mb_s", "MB/s"),
    lower("store.refine_s", "s"),
    lower("store.fragments_decoded", "count"),
    higher("store.refine_reuses", "count"),
    higher("store.reuse_ratio", "ratio"),
    higher("store.epoch_short_circuits", "count"),
    higher("store.plan_front_hits", "count"),
    lower("store.plan_front_misses", "count"),
    lower("pager.evictions", "count"),
    lower("pager.rehydration_decodes", "count"),
    lower("pager.rehydration_bytes", "bytes"),
    lower("pager.peak_resident_bytes", "bytes"),
    lower("pager.rehydration_share", "ratio"),
    lower("serve.rtt_s", "s"),
    lower("serve.overhead_s", "s"),
    lower("serve.queue_wait_s_p50", "s"),
    lower("serve.queue_wait_s_max", "s"),
    higher("serve.coalesced_rounds", "count"),
    higher("serve.coalesced_requests", "count"),
    lower("serve.coalesce_fallbacks", "count"),
    lower("serve.shed_busy", "count"),
    lower("serve.wire_bytes_in", "bytes"),
    lower("serve.wire_bytes_out", "bytes"),
    lower("scheme.pmgard-hb.op_s_p50", "s"),
    lower("scheme.pzfp.op_s_p50", "s"),
    lower("scheme.psz3-delta.op_s_p50", "s"),
    higher("host.nproc", "count"),
    lower("host.steal_fraction", "ratio"),
    lower("host.threads_spawned", "count"),
    higher("trace.attributed_fraction", "ratio"),
    lower("trace.overhead", "ratio"),
    higher("trace.timed_ops", "count"),
    higher("trace.traced_ops", "count"),
    lower("trace.spans", "count"),
];

/// Which end-to-end metric each layer's metrics should move, on which
/// workload — written down before anything is measured, so a later change
/// is read against it. Keyed by the prefix of the per-layer metric names;
/// copied into every `trace` result file.
pub const SHOULD_MOVE: [(&str, &str); 14] = [
    ("core.", "op_s_p50 on cold_deep (PMGARD-HB session open is the dearest)"),
    ("fragstore.", "op_s_p50 on cold_deep; bytes_per_raw_byte on every read workload; nothing on serve_warm"),
    ("reader.", "ops_per_s on cold_deep; reader.recon_cache_hits per op stays at about all of them on serve_warm"),
    ("engine.", "ops_per_s on sweep_qoi, op_s_p50 on serve_warm; engine.estimate_share stays at or below 0.3 on cold_deep"),
    ("qoi.", "ops_per_s on sweep_qoi, op_s_p50 on serve_warm"),
    ("mgard.", "decode and recompose: ops_per_s on cold_deep; encode and decompose: ops_per_s on ingest"),
    ("zfp.", "the PZFP ops of cold_deep and ingest (scheme.pzfp.op_s_p50)"),
    ("sz.", "the PSZ3-delta ops of cold_deep and ingest (scheme.psz3-delta.op_s_p50)"),
    ("util.", "as their callers: util.rle with mgard.bitplane, util.huffman with sz"),
    ("store.", "ops_per_s and bytes_per_raw_byte on store_paged"),
    ("pager.", "ops_per_s and bytes_per_raw_byte on store_paged; evictions and rehydration read 0 on serve_warm"),
    ("serve.", "op_s_p50 and op_s_p90 on serve_warm only"),
    ("scheme.", "attributes a move of cold_deep or ingest to one codec"),
    ("host.", "explains an unresolved row; never a claim"),
];

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 20;

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let better = |higher: bool| Json::from(if higher { "higher" } else { "lower" });
    obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .iter()
                .map(|s| Json::from(*s))
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec!["benchmark".into()])),
        ("run_seconds", RUN_SECONDS.into()),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", w.name.into()), ("why", w.why.into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", better(m.higher_is_better)),
                            ("bound", m.gate.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", better(m.higher_is_better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn the_tables_stay_inside_the_contracts_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(
                m.bound > 0.0 && m.bound <= m.gate && m.gate <= 0.25,
                "{}",
                m.name
            );
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {u}"
            );
        }
        assert!(PER_LAYER.len() <= 128 && (2..=8).contains(&WORKLOADS.len()));
        let setup = end_to_end("setup_s").unwrap();
        assert!(!setup.higher_is_better && setup.unit == "s");
        assert!(END_TO_END.iter().all(|m| m.gate <= setup.gate));
    }

    #[test]
    fn every_layer_metric_says_what_it_should_move() {
        for m in PER_LAYER.iter().filter(|m| !m.name.starts_with("trace.")) {
            let rows = SHOULD_MOVE
                .iter()
                .filter(|(prefix, _)| m.name.starts_with(prefix))
                .count();
            assert_eq!(rows, 1, "{}", m.name);
        }
    }

    #[test]
    fn the_committed_manifest_is_the_one_these_tables_print() {
        let committed = crate::json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(committed, manifest(), "regenerate with `-- manifest`");
    }
}
