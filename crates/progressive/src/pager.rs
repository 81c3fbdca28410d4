//! Bounded-memory tiering for [`ProgressStore`](crate::store::ProgressStore):
//! the global byte budget,
//! the compressed-fragment RAM tier, and the cost-aware eviction policy.
//!
//! A [`ProgressStore`](crate::store::ProgressStore) only ever deepens —
//! decoded per-field state grows monotonically — so a long-lived server
//! is capped by RAM unless something can *release* decoded state. Because
//! the plan layer's bound models are exact and metadata-only, any decoded
//! depth is recomputable bit-identically from its
//! [`ReaderProgress`](crate::refactored::ReaderProgress) marker, which
//! makes eviction safe here in a way generic caches cannot promise. The
//! store keeps three tiers:
//!
//! 1. **Decoded in RAM** — resident master readers + published snapshots,
//!    charged against a shared [`StoreBudget`].
//! 2. **Compressed in RAM** — raw fragment payloads in a byte-budgeted
//!    [`LruCache`] (a quarter of the budget), so rehydration usually
//!    replays decodes without touching the source.
//! 3. **Source** — the archive itself (file, memory, remote).
//!
//! When the decoded tier exceeds its share of the budget, the store
//! demotes cold fields: decoded state is dropped, only the small progress
//! marker survives, and the next request transparently **rehydrates** by
//! re-executing the exact restore plan for the evicted depth (tier 2
//! first, then the source).
//!
//! One budget can be shared by several stores (the serving layer hands a
//! Registry-wide budget to every dataset), so `resident`/`peak` are global
//! tallies while each store demotes only its own fields.
//!
//! The knobs: the `PQR_STORE_BUDGET` environment variable (accepted
//! suffixes `k`/`m`/`g`, binary multiples), which `Archive::service` and
//! [`ProgressStore::open`](crate::store::ProgressStore::open) read, and
//! `pqr serve --store-budget`; an explicit [`StoreBudget`] handed to
//! [`ProgressStore::open_with`](crate::store::ProgressStore::open_with)
//! overrides both.

use pqr_util::cache::LruCache;
use pqr_util::error::{PqrError, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Environment variable consulted by [`StoreBudget::from_env`] (and thus
/// by every [`ProgressStore::open`](crate::store::ProgressStore::open)).
pub const STORE_BUDGET_ENV: &str = "PQR_STORE_BUDGET";

/// Fraction of the budget reserved for the compressed-fragment tier
/// (expressed as a divisor: tier capacity = `limit / TIER_DIVISOR`).
const TIER_DIVISOR: u64 = 4;

/// Key of the compressed-fragment tier: `(store id, field, fragment)`.
/// The store id keeps several stores sharing one budget from colliding.
pub type TierKey = (u64, u32, u32);

/// Parses a byte-budget string: a plain byte count or a count with a
/// `k`/`m`/`g` suffix (binary multiples, case-insensitive). `"0"` means
/// unbounded.
pub fn parse_budget(s: &str) -> Result<u64> {
    let t = s.trim();
    let (digits, mult) = match t.as_bytes().last() {
        Some(b'k') | Some(b'K') => (&t[..t.len() - 1], 1u64 << 10),
        Some(b'm') | Some(b'M') => (&t[..t.len() - 1], 1u64 << 20),
        Some(b'g') | Some(b'G') => (&t[..t.len() - 1], 1u64 << 30),
        _ => (t, 1),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| PqrError::InvalidRequest(format!("bad byte budget '{s}'")))?;
    n.checked_mul(mult)
        .ok_or_else(|| PqrError::InvalidRequest(format!("byte budget '{s}' overflows")))
}

/// The global decoded-state byte budget a set of
/// [`ProgressStore`](crate::store::ProgressStore)s charges against, plus
/// the compressed-fragment RAM tier rehydration reads through.
///
/// `limit == 0` means unbounded: charges are still tallied (so the
/// working set is measurable) but nothing is ever evicted and no fragment
/// tier is kept.
pub struct StoreBudget {
    /// Total budget in bytes; 0 = unbounded.
    limit: u64,
    /// Ceiling for the decoded tier (the rest is the fragment tier).
    decoded_limit: u64,
    /// Decoded-tier bytes currently charged, across every attached store.
    resident: AtomicU64,
    /// High-water mark of `resident` + fragment-tier bytes.
    peak: AtomicU64,
    /// Next store id (see [`StoreBudget::register_store`]).
    next_store: AtomicU64,
    /// Compressed fragments kept in RAM for cheap rehydration.
    fragments: Option<LruCache<TierKey>>,
}

impl StoreBudget {
    /// A budget that never evicts (but still tracks resident bytes).
    pub fn unbounded() -> Self {
        Self::with_limit(0)
    }

    /// A budget of `limit` bytes (`0` = unbounded). Three quarters bound
    /// the decoded tier; one quarter caps the compressed-fragment tier.
    pub fn with_limit(limit: u64) -> Self {
        let tier_cap = limit / TIER_DIVISOR;
        Self {
            limit,
            decoded_limit: limit - tier_cap,
            resident: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            next_store: AtomicU64::new(0),
            fragments: (limit > 0).then(|| LruCache::new(tier_cap as usize)),
        }
    }

    /// Builds a budget from the `PQR_STORE_BUDGET` environment variable:
    /// unset or empty means unbounded, anything else must parse via
    /// [`parse_budget`].
    pub fn from_env() -> Result<Self> {
        match std::env::var(STORE_BUDGET_ENV) {
            Ok(v) if !v.trim().is_empty() => Ok(Self::with_limit(parse_budget(&v)?)),
            _ => Ok(Self::unbounded()),
        }
    }

    /// Total budget in bytes (0 = unbounded).
    pub fn limit_bytes(&self) -> u64 {
        self.limit
    }

    /// True when this budget can trigger evictions at all.
    pub fn is_bounded(&self) -> bool {
        self.limit > 0
    }

    /// Hands out a unique id to a store attaching to this budget (the
    /// fragment-tier key namespace).
    pub fn register_store(&self) -> u64 {
        self.next_store.fetch_add(1, Ordering::Relaxed)
    }

    /// Charges `bytes` of decoded state and updates the peak watermark.
    pub fn charge(&self, bytes: u64) {
        let now = self.resident.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak
            .fetch_max(now + self.tier_bytes(), Ordering::Relaxed);
    }

    /// Releases `bytes` of decoded state.
    pub fn discharge(&self, bytes: u64) {
        self.resident.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Swaps a charge of `old` bytes for one of `new` bytes in a single
    /// delta-sized operation — how a store retires an epoch: the global
    /// tally moves by the difference and never transits through zero, so a
    /// concurrent enforcement pass can't observe the field as momentarily
    /// free (a discharge+charge pair would allow exactly that window).
    pub fn swap_charge(&self, old: u64, new: u64) {
        if new >= old {
            self.charge(new - old);
        } else {
            self.discharge(old - new);
        }
    }

    /// Bytes currently held across both RAM tiers (decoded + compressed).
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed) + self.tier_bytes()
    }

    /// High-water mark of [`StoreBudget::resident_bytes`].
    pub fn peak_resident_bytes(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// True when the decoded tier exceeds its share of the budget.
    pub fn over_decoded_limit(&self) -> bool {
        self.limit > 0 && self.resident.load(Ordering::Relaxed) > self.decoded_limit
    }

    /// Bytes the decoded tier must shed to get back under its ceiling.
    pub fn decoded_overage(&self) -> u64 {
        if self.limit == 0 {
            return 0;
        }
        self.resident
            .load(Ordering::Relaxed)
            .saturating_sub(self.decoded_limit)
    }

    /// Looks up a compressed fragment in the RAM tier.
    pub fn tier_get(&self, key: &TierKey) -> Option<Arc<Vec<u8>>> {
        self.fragments.as_ref()?.get(key)
    }

    /// Offers a compressed fragment to the RAM tier (no-op when
    /// unbounded — there is nothing to rehydrate from it then).
    pub fn tier_put(&self, key: TierKey, payload: Arc<Vec<u8>>) {
        if let Some(tier) = &self.fragments {
            tier.insert(key, payload);
        }
    }

    fn tier_bytes(&self) -> u64 {
        self.fragments.as_ref().map_or(0, |t| t.bytes() as u64)
    }
}

impl std::fmt::Debug for StoreBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreBudget")
            .field("limit", &self.limit)
            .field("resident", &self.resident_bytes())
            .field("peak", &self.peak_resident_bytes())
            .finish()
    }
}

/// One resident field offered to [`plan_evictions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictionCandidate {
    /// Field index within its store.
    pub field: usize,
    /// Recency tick of the last request that touched the field (higher =
    /// hotter).
    pub last_tick: u64,
    /// Exact bytes a rehydration of this field would move (the
    /// metadata-only restore-plan cost: directory lengths of the fragments
    /// the replay fetches).
    pub rehydration_cost: u64,
    /// Decoded bytes demoting the field releases.
    pub resident_bytes: u64,
}

/// Cost-aware LRU: picks fields to demote until at least `need` bytes are
/// released. The coldest half of the candidates (by recency tick) is
/// considered first, ordered by exact rehydration cost — so among the
/// fields nobody touched recently, the ones cheapest to bring back go
/// first — then, only if that half cannot cover the need, the warmer half
/// in the same cost order. Pure function: unit-testable without a store.
pub fn plan_evictions(mut candidates: Vec<EvictionCandidate>, need: u64) -> Vec<usize> {
    if need == 0 || candidates.is_empty() {
        return Vec::new();
    }
    candidates.sort_by_key(|c| c.last_tick);
    let split = (candidates.len() / 2).max(1);
    let mut warm = candidates.split_off(split);
    let mut cold = candidates;
    cold.sort_by_key(|c| (c.rehydration_cost, c.last_tick));
    warm.sort_by_key(|c| (c.rehydration_cost, c.last_tick));
    let mut out = Vec::new();
    let mut relieved = 0u64;
    for c in cold.into_iter().chain(warm) {
        if relieved >= need {
            break;
        }
        relieved += c.resident_bytes;
        out.push(c.field);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(field: usize, tick: u64, cost: u64, bytes: u64) -> EvictionCandidate {
        EvictionCandidate {
            field,
            last_tick: tick,
            rehydration_cost: cost,
            resident_bytes: bytes,
        }
    }

    #[test]
    fn parses_budget_suffixes() {
        assert_eq!(parse_budget("0").unwrap(), 0);
        assert_eq!(parse_budget("123").unwrap(), 123);
        assert_eq!(parse_budget("8k").unwrap(), 8 << 10);
        assert_eq!(parse_budget("2M").unwrap(), 2 << 20);
        assert_eq!(parse_budget(" 3g ").unwrap(), 3 << 30);
        assert!(parse_budget("").is_err());
        assert!(parse_budget("k").is_err());
        assert!(parse_budget("8q").is_err());
        assert!(parse_budget("-1").is_err());
        assert!(parse_budget("99999999999999999999g").is_err());
    }

    #[test]
    fn unbounded_budget_tracks_but_never_trips() {
        let b = StoreBudget::unbounded();
        b.charge(1 << 40);
        assert!(!b.over_decoded_limit());
        assert_eq!(b.decoded_overage(), 0);
        assert_eq!(b.resident_bytes(), 1 << 40);
        assert_eq!(b.peak_resident_bytes(), 1 << 40);
        // no fragment tier when unbounded
        b.tier_put((0, 0, 0), Arc::new(vec![1, 2, 3]));
        assert!(b.tier_get(&(0, 0, 0)).is_none());
    }

    #[test]
    fn bounded_budget_trips_and_recovers() {
        let b = StoreBudget::with_limit(1000);
        assert_eq!(b.limit_bytes(), 1000);
        b.charge(700);
        assert!(!b.over_decoded_limit(), "decoded ceiling is 750");
        b.charge(100);
        assert!(b.over_decoded_limit());
        assert_eq!(b.decoded_overage(), 50);
        b.discharge(100);
        assert!(!b.over_decoded_limit());
        // peak remembers the high-water mark
        assert!(b.peak_resident_bytes() >= 800);
    }

    #[test]
    fn fragment_tier_serves_and_respects_its_cap() {
        let b = StoreBudget::with_limit(4000); // tier cap = 1000
        let payload = Arc::new(vec![7u8; 400]);
        b.tier_put((1, 2, 3), Arc::clone(&payload));
        assert_eq!(b.tier_get(&(1, 2, 3)).unwrap(), payload);
        // overflow the tier: oldest entries are evicted, bytes stay capped
        for i in 0..8u32 {
            b.tier_put((1, 2, 100 + i), Arc::new(vec![0u8; 400]));
        }
        assert!(b.resident_bytes() <= 1000);
        assert!(
            b.tier_get(&(1, 2, 3)).is_none(),
            "displaced by newer entries"
        );
    }

    #[test]
    fn eviction_prefers_cold_then_cheap() {
        // fields 1 and 2 are coldest; 2 rehydrates cheaper than 1
        let cands = vec![
            cand(0, 90, 10, 100),
            cand(1, 5, 500, 100),
            cand(2, 10, 50, 100),
            cand(3, 80, 5, 100),
        ];
        assert_eq!(plan_evictions(cands.clone(), 100), vec![2]);
        assert_eq!(plan_evictions(cands.clone(), 200), vec![2, 1]);
        // need beyond the cold half spills into the warm half, cheap first
        assert_eq!(plan_evictions(cands, 300), vec![2, 1, 3]);
    }

    #[test]
    fn eviction_edge_cases() {
        assert!(plan_evictions(Vec::new(), 10).is_empty());
        assert!(plan_evictions(vec![cand(0, 1, 1, 100)], 0).is_empty());
        // a single candidate is always in the cold pool
        assert_eq!(plan_evictions(vec![cand(7, 99, 1, 10)], 1000), vec![7]);
    }
}
