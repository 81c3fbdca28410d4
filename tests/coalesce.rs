//! Cross-client round-coalescing equivalence suite.
//!
//! The contract under test: coalescing is a **pure scheduling
//! optimisation** — replies of K concurrent clients served through union
//! rounds are byte-identical to a *union-first serial oracle* (execute the
//! merged request once on a fresh shared store, then each client's own
//! request on its own session). This holds across every representation
//! scheme, file and in-memory backends, and under a tight global store
//! budget, because the union only moves the shared store to a depth the
//! uncoalesced race would also have reached, and each member still
//! executes its own request on its own session.
//!
//! Timing-dependent observability fields (`queue_wait_ms`, per-request
//! fetch deltas, the store counter deltas riding each report) are
//! deliberately excluded from the comparisons: they describe *when* work
//! happened relative to other clients — already nondeterministic for
//! uncoalesced concurrent clients — not *what* the client received. (So is
//! `total_fetched`: it sums the accounting of every reader the session
//! holds, including fields a request never touched, at whatever depth they
//! had when the session opened.) The reply contract compared here is
//! satisfaction, the certified per-target bounds, and every value byte.

use pqr::prelude::*;
use pqr::serve::{Registry, RemoteReport, ServeClient, Server, ServerConfig};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

const N: usize = 2400;

fn build_archive_bytes(scheme: Scheme) -> Vec<u8> {
    let vx: Vec<f64> = (0..N)
        .map(|i| (i as f64 * 0.017).sin() * 24.0 + 40.0)
        .collect();
    let vy: Vec<f64> = (0..N).map(|i| (i as f64 * 0.011).cos() * 12.0).collect();
    ArchiveBuilder::new(&[N])
        .field("Vx", vx)
        .field("Vy", vy)
        .qoi("V", velocity_magnitude(0, 2))
        .qoi("Vx2", QoiExpr::var(0).pow(2))
        .qoi("VxVy", species_product(0, 1))
        .scheme(scheme)
        .build()
        .unwrap()
        .to_bytes()
}

fn mem_archive(bytes: &[u8]) -> Archive {
    Archive::from_fragment_source(InMemorySource::new(bytes.to_vec()).unwrap()).unwrap()
}

fn start(archive: Archive, config: ServerConfig) -> (Server, SocketAddr) {
    let mut registry = Registry::new();
    registry.register("ds", archive).unwrap();
    let server = Server::start("127.0.0.1:0", registry, config).unwrap();
    let addr = server.local_addr();
    (server, addr)
}

fn one_qoi(name: &str, tol: f64) -> RetrievalRequest {
    RetrievalRequest::new().qoi(name, tol)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Overlapping per-client workloads: repeated (name, tolerance) pairs
/// exercise the union's target dedup, mixed tightness exercises
/// deeper-than-needed adoption.
fn workloads(k: usize) -> Vec<(String, RetrievalRequest)> {
    let menu = [
        ("V", 1e-2),
        ("V", 1e-4),
        ("Vx2", 1e-4),
        ("VxVy", 1e-3),
        ("V", 1e-4),
        ("Vx2", 1e-3),
    ];
    (0..k)
        .map(|i| {
            let (name, tol) = menu[i % menu.len()];
            (name.to_string(), one_qoi(name, tol))
        })
        .collect()
}

/// Deterministic per-thread start jitter (xorshift — no rand crate), so
/// each case races the gathering window on a different schedule.
fn jitter_ms(seed: u64, i: u64) -> u64 {
    let mut x = (seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x % 40
}

/// A config that gathers all `k` clients into one round: the window stays
/// open generously, but closes the moment the whole fleet has joined.
fn coalescing_config(k: usize) -> ServerConfig {
    ServerConfig {
        workers: k.max(2),
        pending_queue: 32,
        decode_permits: 2,
        busy_wait_ms: 60_000,
        coalesce: true,
        coalesce_window_ms: 300,
        coalesce_min_batch: k,
        ..ServerConfig::default()
    }
}

fn concurrent_replies(
    addr: SocketAddr,
    work: &[(String, RetrievalRequest)],
    seed: u64,
) -> Vec<RemoteReport> {
    std::thread::scope(|s| {
        let handles: Vec<_> = work
            .iter()
            .enumerate()
            .map(|(i, (name, req))| {
                let (name, req) = (name.clone(), req.clone());
                s.spawn(move || {
                    let mut c = ServeClient::connect(addr).unwrap();
                    c.set_io_timeout(Some(Duration::from_secs(60))).unwrap();
                    c.open("ds").unwrap().expect_ok("open");
                    std::thread::sleep(Duration::from_millis(jitter_ms(seed, i as u64)));
                    let r = c
                        .retrieve(&req, &[&name], false)
                        .unwrap()
                        .expect_ok("retrieve");
                    c.close().unwrap();
                    r
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// The serial oracle: one fresh shared store executes the union of all
/// requests first, then each client's request runs on its own session.
struct OracleReply {
    satisfied: bool,
    targets: Vec<(bool, u64, u64)>,
    values: Vec<u64>,
}

fn union_first_oracle(archive: &Archive, work: &[(String, RetrievalRequest)]) -> Vec<OracleReply> {
    let service = archive.service().unwrap();
    let reqs: Vec<_> = work.iter().map(|(_, r)| r.clone()).collect();
    let mut union = service.session().unwrap();
    union.execute(&merge_requests(&reqs)).unwrap();
    work.iter()
        .map(|(name, req)| {
            let mut s = service.session().unwrap();
            let rep = s.execute(req).unwrap();
            OracleReply {
                satisfied: rep.satisfied,
                targets: rep
                    .targets
                    .iter()
                    .map(|t| (t.satisfied, t.tol_abs.to_bits(), t.max_est_error.to_bits()))
                    .collect(),
                values: bits(&s.qoi_values(name).unwrap()),
            }
        })
        .collect()
}

fn assert_matches_oracle(
    tag: &str,
    work: &[(String, RetrievalRequest)],
    replies: &[RemoteReport],
    oracle: &[OracleReply],
) {
    for (i, ((name, _), (reply, want))) in work.iter().zip(replies.iter().zip(oracle)).enumerate() {
        assert_eq!(
            reply.satisfied, want.satisfied,
            "{tag}: client {i} satisfied"
        );
        let got: Vec<_> = reply
            .targets
            .iter()
            .map(|t| (t.satisfied, t.tol_abs.to_bits(), t.max_est_error.to_bits()))
            .collect();
        assert_eq!(got, want.targets, "{tag}: client {i} certified bounds");
        assert_eq!(
            bits(&reply.values[name]),
            want.values,
            "{tag}: client {i} ({name}) values diverged from the union-first oracle"
        );
    }
}

#[test]
fn coalesced_replies_match_union_first_serial_for_every_scheme() {
    for (case, scheme) in Scheme::extended().into_iter().enumerate() {
        let bytes = build_archive_bytes(scheme);
        let k = 6;
        let work = workloads(k);
        let (server, addr) = start(mem_archive(&bytes), coalescing_config(k));
        let replies = concurrent_replies(addr, &work, 0xC0A1 + case as u64);
        let snap = server.shutdown();

        assert_eq!(snap.retrieves, k as u64, "{}", scheme.name());
        assert_eq!(snap.shed_busy, 0, "{}", scheme.name());
        assert!(
            snap.coalesced_rounds >= 1,
            "{}: no union round formed",
            scheme.name()
        );
        assert!(
            snap.coalesced_requests >= 2,
            "{}: rounds formed but served nobody",
            scheme.name()
        );

        let oracle = union_first_oracle(&mem_archive(&bytes), &work);
        assert_matches_oracle(scheme.name(), &work, &replies, &oracle);
    }
}

#[test]
fn file_backend_coalesced_replies_match_union_first_serial() {
    let bytes = build_archive_bytes(Scheme::PmgardHb);
    let dir = std::env::temp_dir().join("pqr_coalesce_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("file_{}.pqrx", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();

    let k = 6;
    let work = workloads(k);
    let (server, addr) = start(Archive::open(&path).unwrap(), coalescing_config(k));
    let replies = concurrent_replies(addr, &work, 0xF11E);
    let snap = server.shutdown();
    assert_eq!(snap.retrieves, k as u64);
    assert!(snap.coalesced_rounds >= 1);

    let oracle = union_first_oracle(&Archive::open(&path).unwrap(), &work);
    assert_matches_oracle("file", &work, &replies, &oracle);

    // the same jittered fleet with coalescing off forms no rounds at all.
    // Uncoalesced replies depend on arrival order (a loose request served
    // before a tight one certifies from a shallower store), so one client
    // sends the union first, as the oracle does
    let config = ServerConfig {
        coalesce: false,
        ..coalescing_config(k)
    };
    let (server, addr) = start(Archive::open(&path).unwrap(), config);
    let reqs: Vec<_> = work.iter().map(|(_, r)| r.clone()).collect();
    let mut c = ServeClient::connect(addr).unwrap();
    c.open("ds").unwrap().expect_ok("open");
    c.retrieve(&merge_requests(&reqs), &[], false)
        .unwrap()
        .expect_ok("union retrieve");
    c.close().unwrap();
    let replies = concurrent_replies(addr, &work, 0xF11E);
    let snap = server.shutdown();
    assert_eq!(snap.retrieves, k as u64 + 1);
    assert_eq!(snap.coalesced_rounds, 0);
    assert_eq!(snap.coalesced_requests, 0);
    assert_matches_oracle("file, coalescing off", &work, &replies, &oracle);
    std::fs::remove_file(&path).ok();
}

#[test]
fn tight_shared_budget_preserves_reply_bytes() {
    // the server runs every dataset against one 128 KiB decoded-state
    // ceiling (evicting and rehydrating under the concurrent load); the
    // oracle runs unbudgeted — bit-exact rehydration must make them agree
    let bytes = build_archive_bytes(Scheme::PmgardHb);
    let k = 6;
    let work = workloads(k);
    let budget = Arc::new(StoreBudget::with_limit(128 << 10));
    let mut registry = Registry::with_budget(budget);
    registry.register("ds", mem_archive(&bytes)).unwrap();
    let server = Server::start("127.0.0.1:0", registry, coalescing_config(k)).unwrap();
    let addr = server.local_addr();

    let replies = concurrent_replies(addr, &work, 0xB0D6);
    let snap = server.shutdown();
    assert_eq!(snap.retrieves, k as u64);

    let oracle = union_first_oracle(&mem_archive(&bytes), &work);
    assert_matches_oracle("budget", &work, &replies, &oracle);
}

#[test]
fn singleton_rounds_are_identical_to_coalescing_off() {
    // a lone client must take the individual path (no union, no round
    // session) and be bit-and-counter identical to a coalescing-off server
    let bytes = build_archive_bytes(Scheme::PmgardHb);
    let series = [("V", 1e-2), ("Vx2", 1e-4), ("V", 1e-5), ("VxVy", 1e-3)];
    let run = |coalesce: bool| {
        let config = ServerConfig {
            coalesce,
            ..ServerConfig::default()
        };
        let (server, addr) = start(mem_archive(&bytes), config);
        let mut c = ServeClient::connect(addr).unwrap();
        c.set_io_timeout(Some(Duration::from_secs(60))).unwrap();
        c.open("ds").unwrap().expect_ok("open");
        let replies: Vec<_> = series
            .iter()
            .map(|(name, tol)| {
                c.retrieve(&one_qoi(name, *tol), &[name], false)
                    .unwrap()
                    .expect_ok("retrieve")
            })
            .collect();
        c.close().unwrap();
        (replies, server.shutdown())
    };
    let (on, snap_on) = run(true);
    let (off, snap_off) = run(false);

    // the singleton bypass means no rounds ever formed
    assert_eq!(snap_on.coalesced_rounds, 0);
    assert_eq!(snap_on.coalesced_requests, 0);
    assert_eq!(snap_on.coalesce_fallbacks, 0);

    for (i, (a, b)) in on.iter().zip(&off).enumerate() {
        assert_eq!(a.satisfied, b.satisfied, "request {i}");
        assert_eq!(a.iterations, b.iterations, "request {i}");
        assert_eq!(a.bytes_fetched, b.bytes_fetched, "request {i}");
        assert_eq!(a.total_fetched, b.total_fetched, "request {i}");
        assert_eq!(
            a.store_fragments_decoded, b.store_fragments_decoded,
            "request {i}"
        );
        assert_eq!(a.store_refine_reuses, b.store_refine_reuses, "request {i}");
        let name = series[i].0;
        assert_eq!(bits(&a.values[name]), bits(&b.values[name]), "request {i}");
    }
    // the dataset-level store counters agree exactly as well
    let (sa, sb) = (snap_on.datasets[0].store, snap_off.datasets[0].store);
    assert_eq!(sa.fragments_decoded, sb.fragments_decoded);
    assert_eq!(sa.refine_advances, sb.refine_advances);
    assert_eq!(sa.refine_reuses, sb.refine_reuses);
    assert_eq!(sa.adoptions, sb.adoptions);
}
