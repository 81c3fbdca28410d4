//! Plan/execute retrieval: batched multi-QoI requests with fragment dedup
//! and coalesced I/O.
//!
//! The paper's Algorithms 1–4 refine *per QoI request*; real analyses ask
//! for several derivable QoIs at once, and QoIs that share underlying
//! fields should not fetch the same fragments twice. This module splits
//! the opaque request-and-fetch step into three inspectable stages:
//!
//! 1. **Resolve** — [`RetrievalPlan::resolve`] turns `(QoI, tolerance)`
//!    targets into a plan against the archive manifest: which fields each
//!    target derives from and the Algorithm-3 initial per-field bounds (one
//!    bound per field — the *min* over the targets reading it, which is
//!    where cross-target fragment **dedup** happens). Resolution plans
//!    bounds only; it reads no reader state beyond the achieved bounds.
//! 2. **Execute** — [`RetrievalEngine::execute`] runs refine→estimate→tighten
//!    rounds. Each round refines every involved field through the engine's
//!    [`ProgressStore`](crate::store::ProgressStore), which plans the
//!    field's refinement front from metadata alone (the §V bound models
//!    are functions of consumed-fragment counts, never payload contents,
//!    so the prediction is exact) and reads it through one
//!    [`FragmentSource::read_many`] in storage order — files coalesce
//!    adjacent ranges into single reads, cached sources peel hits and
//!    batch the misses. After each round the §IV error bounds are
//!    re-evaluated and each target stops influencing further tightening as
//!    soon as its tolerance certifies.
//! 3. **Report** — [`PlanReport`] carries per-target outcomes
//!    ([`TargetReport`]: satisfied/bound/bytes), the shared-fragment
//!    savings, backend read-op counts, and the engine-level accounting.
//!
//! [`RetrievalEngine::retrieve`] is the one-call form of this pipeline and
//! `pqr_core`'s `Session::execute` resolves registered QoI names into it,
//! so every request — one target or many, fresh or resumed — moves bytes
//! through exactly one fetch code path and returns one [`PlanReport`].
//!
//! [`FragmentSource::read_many`]: crate::fragstore::FragmentSource::read_many

use crate::engine::{Estimate, QoiSpec, RetrievalEngine};
use pqr_util::error::{PqrError, Result};

/// A resolved multi-target retrieval plan: the targets, the fields they
/// derive from and the Algorithm-3 initial bounds. Resolution is pure
/// planning — no fragment is fetched and no refinement front is walked.
#[derive(Debug, Clone)]
pub struct RetrievalPlan {
    specs: Vec<QoiSpec>,
    /// Field indices each target's expression reads.
    involved: Vec<Vec<usize>>,
    /// Algorithm-3 initial per-field bounds (∞ = field unused, never
    /// fetched), already clamped to what the engine has achieved.
    initial_bounds: Vec<f64>,
    /// Optional ceiling on newly fetched bytes (round-granular: execution
    /// stops scheduling further rounds once exceeded).
    byte_budget: Option<usize>,
}

impl RetrievalPlan {
    /// Resolves `specs` against the engine's manifest and current reader
    /// state. Validates every target (arity, tolerance positivity, region
    /// bounds) up front — execution cannot fail validation later.
    pub fn resolve(
        engine: &RetrievalEngine,
        specs: Vec<QoiSpec>,
        byte_budget: Option<usize>,
    ) -> Result<Self> {
        let manifest = engine.manifest();
        let nv = manifest.num_fields();
        for q in &specs {
            if q.expr.arity() > nv {
                return Err(PqrError::ShapeMismatch(format!(
                    "QoI '{}' reads variable {} but archive has {nv} fields",
                    q.name,
                    q.expr.arity() - 1
                )));
            }
            // NaN-safe positivity check (NaN fails the comparison)
            let tol = q.tol_abs();
            if !(tol.is_finite() && tol > 0.0) {
                return Err(PqrError::InvalidRequest(format!(
                    "QoI '{}' has non-positive tolerance",
                    q.name
                )));
            }
            if let Some((lo, hi)) = q.region {
                let ne = manifest.num_elements();
                if lo > hi || hi > ne {
                    return Err(PqrError::InvalidRequest(format!(
                        "QoI '{}' region {lo}..{hi} out of bounds (0..{ne})",
                        q.name
                    )));
                }
            }
        }
        let involved: Vec<Vec<usize>> = specs
            .iter()
            .map(|q| q.expr.variables().into_iter().collect())
            .collect();

        // Algorithm 3: each field starts at range · min(1, min τ_rel over
        // the targets that read it) — the per-field *min* is what
        // deduplicates shared fields across targets.
        let mut initial_bounds: Vec<f64> = (0..nv)
            .map(|j| {
                let mut rel = f64::INFINITY;
                for (q, vars) in specs.iter().zip(&involved) {
                    if vars.contains(&j) {
                        rel = rel.min(q.tol_rel.min(1.0));
                    }
                }
                if rel.is_finite() {
                    rel * manifest.fields[j].range
                } else {
                    f64::INFINITY // field unused by any target: never fetched
                }
            })
            .collect();
        // never loosen bounds below what previous calls already achieved
        for (j, b) in initial_bounds.iter_mut().enumerate() {
            *b = b.min(engine.field_bound(j));
        }
        Ok(Self {
            specs,
            involved,
            initial_bounds,
            byte_budget,
        })
    }

    /// The resolved targets, in request order.
    pub fn targets(&self) -> &[QoiSpec] {
        &self.specs
    }

    /// Fields read by more than one target — where batched execution saves
    /// rereads relative to independent per-target requests.
    pub fn shared_fields(&self) -> Vec<usize> {
        let nv = self.initial_bounds.len();
        (0..nv)
            .filter(|j| self.involved.iter().filter(|vars| vars.contains(j)).count() >= 2)
            .collect()
    }

    /// The byte budget, if any.
    pub fn byte_budget(&self) -> Option<usize> {
        self.byte_budget
    }
}

/// Outcome of one target of an executed plan.
#[derive(Debug, Clone)]
pub struct TargetReport {
    /// The target's display name.
    pub name: String,
    /// Whether the estimated error met the tolerance.
    pub satisfied: bool,
    /// The absolute tolerance the target demanded.
    pub tol_abs: f64,
    /// Max estimated QoI error after the final refinement (the certified
    /// bound when `satisfied`).
    pub max_est_error: f64,
    /// Newly fetched payload bytes attributed to this target: the sum of
    /// its involved fields' newly fetched bytes. Targets sharing a field
    /// each count its bytes once — the overlap is exactly what
    /// [`PlanReport::shared_bytes_saved`] tallies.
    pub bytes: usize,
    /// Field indices the target derives from.
    pub fields: Vec<usize>,
}

/// Outcome of [`RetrievalEngine::execute`]: per-target results plus the
/// aggregate accounting of the batched execution.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// Per-target outcomes, in request order.
    pub targets: Vec<TargetReport>,
    /// Whether every target's tolerance was met.
    pub satisfied: bool,
    /// Outer refine→estimate→tighten rounds used.
    pub iterations: usize,
    /// Rounds whose estimate was answered from the one the engine
    /// remembered — nothing it is a function of had moved since (see
    /// `RetrievalEngine::estimate`). Whole-field estimator scans run:
    /// `iterations − estimate_reuses`.
    pub estimate_reuses: u64,
    /// Bytes newly fetched by this execution.
    pub bytes_fetched: usize,
    /// Cumulative bytes fetched by the engine (including metadata).
    pub total_fetched: usize,
    /// Achieved primary-data L∞ bound per field.
    pub field_bounds: Vec<f64>,
    /// Bitrate: cumulative fetched bits per element over all fields.
    pub bitrate: f64,
    /// Bytes batched execution saved versus fetching each target's
    /// involved fields independently: Σ per-target bytes − actual bytes.
    /// Zero when no target shares a field with another.
    pub shared_bytes_saved: usize,
    /// True when execution stopped because the byte budget ran out with
    /// tolerances still unmet.
    pub budget_exhausted: bool,
    /// Backend read operations during execution (coalesced range reads /
    /// batch round-trips), from the source's
    /// [`SourceStats`](crate::fragstore::SourceStats) delta; zero
    /// for resident sources, which do not track memory copies.
    pub read_ops: u64,
    /// Fragments served during execution (same source delta).
    pub fragments_read: u64,
    /// Milliseconds this request waited for admission before execution
    /// began. Always zero for in-process execution; the serving layer
    /// (`pqr-serve`) fills it with the decode-permit queue wait so remote
    /// clients can see contention separately from retrieval work.
    pub queue_wait_ms: u64,
    /// Fragments the engine's [`ProgressStore`](crate::store::ProgressStore)
    /// decoded *during this execution* (store-level delta): a solo
    /// engine's private store, or a service's shared one. Under concurrent
    /// sessions on a shared store the delta includes decodes triggered by
    /// other sessions in the window.
    pub store_fragments_decoded: u64,
    /// Store refinement requests served entirely from already-decoded
    /// state during this execution (same delta caveat).
    pub store_refine_reuses: u64,
    /// Refinement schedules the store looked up in its masters' fetch
    /// tables during this execution (same delta caveat): every schedule.
    pub plan_front_hits: u64,
    /// Always 0 (see [`StoreStats::plan_front_misses`]).
    ///
    /// [`StoreStats::plan_front_misses`]: crate::store::StoreStats::plan_front_misses
    pub plan_front_misses: u64,
    /// Multilevel recompose axis passes the store's masters ran rebuilding
    /// reconstructions during this execution (same delta caveat).
    pub recompose_passes: u64,
    /// Refinement rounds answered from a memoized reconstruction during
    /// this execution (the engine's views + the store's masters): zero
    /// decodes, zero recompose passes.
    pub recon_cache_hits: u64,
    /// Milliseconds the store's masters spent rebuilding reconstructions
    /// during this execution (same delta caveat).
    pub reconstruct_ms: u64,
}

impl RetrievalEngine {
    /// Drives a [`RetrievalPlan`] to completion: one refinement of every
    /// involved field per round, §IV re-evaluation after every round,
    /// per-target certification, Algorithm-4 tightening for the still-unmet
    /// targets, and the optional byte budget. Stops when every target is
    /// certified, the representations are exhausted, the iteration cap is
    /// hit, or the byte budget is consumed — whichever comes first. The
    /// engine persists across executions, so a series of plans retrieves
    /// incrementally.
    pub fn execute(&mut self, plan: &RetrievalPlan) -> Result<PlanReport> {
        let qois = &plan.specs;
        let involved = &plan.involved;
        let fetched_before = self.total_fetched();
        let per_field_before: Vec<usize> =
            self.views().iter().map(|v| v.snapshot().fetched).collect();
        let source_before = self.source_stats();
        let store_before = self.store().stats();
        let view_hits_before = self.recon_cache_hits();

        // the plan's Algorithm-3 bounds, re-clamped in case the engine
        // advanced between resolve and execute
        let mut requested = plan.initial_bounds.clone();
        for (j, b) in requested.iter_mut().enumerate() {
            *b = b.min(self.field_bound(j));
        }

        let tol_abs: Vec<f64> = qois.iter().map(|q| q.tol_abs()).collect();
        let mut max_est = vec![f64::INFINITY; qois.len()];
        let mut iterations = 0usize;
        let mut estimate_reuses = 0u64;
        let mut budget_exhausted = false;
        let (satisfied, field_bounds) = loop {
            iterations += 1;
            // Alg. 2 line 10 (progressive_construct each involved field),
            // fanned across fields (see `RetrievalEngine::refine_round`)
            self.refine_round(&requested)?;
            // Alg. 2 lines 13–24: estimate QoI errors everywhere — unless
            // the engine just did, over this very state.
            let Estimate {
                scans,
                bounds: achieved,
                reused,
            } = self.estimate(qois);
            estimate_reuses += u64::from(reused);
            let mut all_met = true;
            for (k, &(est, _)) in scans.iter().enumerate() {
                max_est[k] = est;
                if est > tol_abs[k] {
                    all_met = false;
                }
            }
            if all_met || iterations >= self.config().max_iterations {
                break (all_met, achieved);
            }
            if let Some(budget) = plan.byte_budget {
                if self.total_fetched() - fetched_before >= budget {
                    budget_exhausted = true;
                    break (false, achieved);
                }
            }

            // Algorithm 4: tighten bounds at the worst point of each target
            // that has not certified yet — certified targets stop here.
            // The estimator scratch is hoisted out of the tightening loop:
            // one allocation pair per round, not per candidate bound vector.
            let mut progress = false;
            let nv = self.manifest().num_fields();
            let (mut x_scratch, mut eps_scratch) = (vec![0.0f64; nv], vec![0.0f64; nv]);
            for (k, &(est, argmax)) in scans.iter().enumerate() {
                if est <= tol_abs[k] {
                    continue;
                }
                let mut eps_local = achieved.clone();
                let mut tightenings = 0usize;
                while self.point_estimate_scratch(
                    &qois[k].expr,
                    argmax,
                    &eps_local,
                    &mut x_scratch,
                    &mut eps_scratch,
                ) > tol_abs[k]
                    && tightenings < self.config().max_tightenings
                {
                    for &i in &involved[k] {
                        eps_local[i] /= self.config().reduction_factor;
                    }
                    tightenings += 1;
                }
                for &i in &involved[k] {
                    if eps_local[i] < requested[i] {
                        requested[i] = eps_local[i];
                        if !self.views()[i].exhausted() {
                            progress = true;
                        }
                    }
                }
            }
            if !progress {
                // exhausted representations and still unmet — Alg. 2's
                // "full fidelity retrieved" exit
                break (false, achieved);
            }
        };

        let total = self.total_fetched();
        let per_field_delta: Vec<usize> = self
            .views()
            .iter()
            .zip(&per_field_before)
            .map(|(v, &before)| v.snapshot().fetched - before)
            .collect();
        let targets: Vec<TargetReport> = qois
            .iter()
            .enumerate()
            .map(|(k, q)| TargetReport {
                name: q.name.clone(),
                satisfied: max_est[k] <= tol_abs[k],
                tol_abs: tol_abs[k],
                max_est_error: max_est[k],
                bytes: involved[k].iter().map(|&j| per_field_delta[j]).sum(),
                fields: involved[k].clone(),
            })
            .collect();
        let attributed: usize = targets.iter().map(|t| t.bytes).sum();
        let actual_payload: usize = per_field_delta.iter().sum();
        // store- and source-level deltas: the engine's own store when solo;
        // a shared store's includes other sessions' work in the window
        let source = self.source_stats().since(&source_before);
        let store = self.store().stats().since(&store_before);
        let elements = self.manifest().num_elements() * self.manifest().num_fields();
        Ok(PlanReport {
            satisfied,
            iterations,
            estimate_reuses,
            bytes_fetched: total - fetched_before,
            total_fetched: total,
            field_bounds,
            bitrate: pqr_util::stats::bitrate(total, elements),
            shared_bytes_saved: attributed.saturating_sub(actual_payload),
            budget_exhausted,
            read_ops: source.read_ops,
            fragments_read: source.fetches,
            queue_wait_ms: 0,
            store_fragments_decoded: store.fragments_decoded,
            store_refine_reuses: store.refine_reuses,
            plan_front_hits: store.plan_front_hits,
            plan_front_misses: store.plan_front_misses,
            recompose_passes: store.recompose_passes,
            recon_cache_hits: self.recon_cache_hits() - view_hits_before + store.recon_cache_hits,
            reconstruct_ms: store.reconstruct_nanos / 1_000_000,
            targets,
        })
    }
}

// (tests exercising the plan path live in `engine`'s suite — every
// `retrieve` runs through the executor — plus the dedicated multi-QoI
// integration and property suites at the workspace root and in `pqr-core`.)
