//! Integration test of the `pqr-serve` network layer, over real sockets.
//!
//! The headline claims under test:
//!
//! 1. A sequential series of retrieves over one connection is
//!    **byte-and-counter identical** to the same series on an in-process
//!    [`DatasetService`] session — the wire adds observability, not
//!    divergence (mirrors `tests/plan_execution.rs`).
//! 2. Many concurrent socket clients of one dataset share its decode
//!    store: aggregate source traffic stays strictly below the
//!    per-client-cold sum.
//! 3. Faults are survivable: hostile frames get clean `Error` replies, a
//!    client dying mid-retrieve leaves the store serving subsequent
//!    clients byte-identically, and a flaky fragment source fails the
//!    request — never the server.
//! 4. Budgets and admission behave as designed: an exceeded byte budget
//!    is a partial result *with its certified bound*; a saturated decode
//!    pool and a full accept queue shed with explicit `Busy` frames.

use pqr::prelude::*;
use pqr::serve::{FaultySource, Registry, Reply, ServeClient, Server, ServerConfig};
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The same field/QoI fixture as `tests/plan_execution.rs`, so counter
/// expectations carry over.
const TOLS: [(&str, f64); 3] = [("V", 1e-4), ("Vx2", 1e-4), ("VxVy", 1e-3)];

fn field_vx(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 * 0.013).sin() * 30.0 + 50.0)
        .collect()
}

fn field_vy(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i as f64 * 0.021).cos() * 15.0).collect()
}

fn build_archive() -> Archive {
    let n = 3000;
    ArchiveBuilder::new(&[n])
        .field("Vx", field_vx(n))
        .field("Vy", field_vy(n))
        .qoi("V", velocity_magnitude(0, 2))
        .qoi("Vx2", QoiExpr::var(0).pow(2))
        .qoi("VxVy", species_product(0, 1))
        .build()
        .unwrap()
}

fn save_archive(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("pqr_serve_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}_{}.pqrx", std::process::id()));
    build_archive().save(&path).unwrap();
    path
}

/// Ground truth V = √(Vx²+Vy²) for error-vs-truth assertions.
fn truth_v() -> Vec<f64> {
    let (vx, vy) = (field_vx(3000), field_vy(3000));
    vx.iter()
        .zip(&vy)
        .map(|(x, y)| (x * x + y * y).sqrt())
        .collect()
}

fn start_server(archive: Archive, config: ServerConfig) -> (Server, SocketAddr) {
    let mut registry = Registry::new();
    registry.register("ds", archive).unwrap();
    let server = Server::start("127.0.0.1:0", registry, config).unwrap();
    let addr = server.local_addr();
    (server, addr)
}

fn connect(addr: SocketAddr) -> ServeClient {
    let c = ServeClient::connect(addr).unwrap();
    c.set_io_timeout(Some(Duration::from_secs(60))).unwrap();
    c
}

fn one_qoi(name: &str, tol: f64) -> RetrievalRequest {
    RetrievalRequest::new().qoi(name, tol)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn smoke_open_retrieve_stats_close_and_remote_shutdown() {
    let path = save_archive("smoke");
    let (server, addr) = start_server(Archive::open(&path).unwrap(), ServerConfig::default());

    let mut client = connect(addr);
    let info = client.open("ds").unwrap().expect_ok("open");
    assert_eq!(info.dims, vec![3000]);
    assert_eq!(info.fields, vec!["Vx".to_string(), "Vy".to_string()]);
    assert_eq!(
        info.qois,
        vec!["V".to_string(), "Vx2".to_string(), "VxVy".to_string()]
    );

    let mut request = RetrievalRequest::new();
    for (name, tol) in TOLS {
        request = request.qoi(name, tol);
    }
    let report = client
        .retrieve(&request, &["V"], true)
        .unwrap()
        .expect_ok("retrieve");
    assert!(report.satisfied);
    assert_eq!(report.targets.len(), 3);
    assert!(report.bytes_fetched > 0);
    assert!(report.store_fragments_decoded > 0);
    assert!(report.progress.is_some());

    // the served values are byte-identical to an in-process service run
    let service = Archive::open(&path).unwrap().service().unwrap();
    let mut mirror = service.session().unwrap();
    mirror.execute(&request).unwrap();
    assert_eq!(
        bits(&report.values["V"]),
        bits(&mirror.qoi_values("V").unwrap())
    );

    let stats = client.stats().unwrap().expect_ok("stats");
    assert_eq!(stats.retrieves, 1);
    assert!(stats.connections >= 1);
    assert!(stats.bytes_in > 0 && stats.bytes_out > 0);
    assert_eq!(stats.datasets.len(), 1);
    assert_eq!(stats.datasets[0].name, "ds");
    assert!(stats.datasets[0].store.fragments_decoded > 0);
    client.close().unwrap();

    // a second client shuts the server down over the wire
    connect(addr).shutdown_server().unwrap();
    let final_stats = server.wait();
    assert_eq!(final_stats.retrieves, 1);
}

/// Opens the archive at `path`; when the environment sets a store budget
/// its sessions refine one field at a time. Under a tight
/// `PQR_STORE_BUDGET` the pager demotes whichever of two fields refined in
/// parallel it finds unlocked — a race — and a test that holds two stores
/// against each other counter by counter needs the demotion order fixed.
fn open_with_a_fixed_demotion_order(path: &std::path::Path) -> Archive {
    let mut archive = Archive::open(path).unwrap();
    if StoreBudget::from_env().unwrap().is_bounded() {
        archive.set_engine_config(EngineConfig {
            workers: 1,
            ..Default::default()
        });
    }
    archive
}

#[test]
fn sequential_socket_series_is_counter_identical_to_in_process_service() {
    let path = save_archive("seq");
    let (server, addr) = start_server(
        open_with_a_fixed_demotion_order(&path),
        ServerConfig::default(),
    );

    // the same tolerance-tightening series, remote and in-process
    let series = [("V", 1e-2), ("V", 1e-4), ("Vx2", 1e-4), ("VxVy", 1e-3)];
    let local_archive = open_with_a_fixed_demotion_order(&path);
    let local_service = local_archive.service().unwrap();
    let mut local = local_service.session().unwrap();

    let mut client = connect(addr);
    client.open("ds").unwrap().expect_ok("open");
    for (name, tol) in series {
        let request = one_qoi(name, tol);
        let remote = client
            .retrieve(&request, &[name], false)
            .unwrap()
            .expect_ok("retrieve");
        let mirror = local.execute(&request).unwrap();

        assert_eq!(remote.satisfied, mirror.satisfied, "{name}@{tol}");
        assert_eq!(remote.iterations, mirror.iterations as u64);
        assert_eq!(remote.bytes_fetched, mirror.bytes_fetched as u64);
        assert_eq!(remote.total_fetched, mirror.total_fetched as u64);
        assert_eq!(
            remote.store_fragments_decoded,
            mirror.store_fragments_decoded
        );
        assert_eq!(remote.store_refine_reuses, mirror.store_refine_reuses);
        assert_eq!(
            bits(&remote.values[name]),
            bits(&local.qoi_values(name).unwrap()),
            "values diverged for {name}@{tol}"
        );
    }
    client.close().unwrap();

    // the dataset-level counters agree exactly as well
    let snap = server.shutdown();
    let remote_store = snap.datasets[0].store;
    let local_store = local_service.store_stats();
    assert_eq!(
        remote_store.fragments_decoded,
        local_store.fragments_decoded
    );
    assert_eq!(remote_store.refine_advances, local_store.refine_advances);
    assert_eq!(remote_store.refine_reuses, local_store.refine_reuses);
    assert_eq!(remote_store.adoptions, local_store.adoptions);
    assert_eq!(
        snap.datasets[0].source.fetched_bytes,
        local_archive.source_stats().fetched_bytes
    );
}

#[test]
fn eight_concurrent_socket_clients_share_the_decode_store() {
    let path = save_archive("conc");
    let config = ServerConfig {
        workers: 8,
        pending_queue: 16,
        decode_permits: 4,
        busy_wait_ms: 60_000, // this test wants sharing, not shedding
        ..ServerConfig::default()
    };
    let (server, addr) = start_server(Archive::open(&path).unwrap(), config);

    let handles: Vec<_> = (0..8)
        .map(|k| {
            let (name, tol) = TOLS[k % TOLS.len()];
            std::thread::spawn(move || {
                let mut client = connect(addr);
                client.open("ds").unwrap().expect_ok("open");
                let report = client
                    .retrieve(&one_qoi(name, tol), &[name], false)
                    .unwrap()
                    .expect_ok("retrieve");
                client.close().unwrap();
                assert!(report.satisfied, "client {k} ({name}@{tol}) not satisfied");
                assert!(report.targets[0].max_est_error <= report.targets[0].tol_abs);
                (name, report)
            })
        })
        .collect();
    let reports: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // every client got values matching the certified bound against truth
    let truth = truth_v();
    for (name, report) in &reports {
        if *name == "V" {
            let tol_abs = report.targets[0].tol_abs;
            let worst = report.values["V"]
                .iter()
                .zip(&truth)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(worst <= tol_abs, "actual error {worst} > bound {tol_abs}");
        }
    }

    let snap = server.shutdown();
    assert_eq!(snap.retrieves, 8);
    assert_eq!(snap.shed_busy, 0);
    assert_eq!(snap.shed_admission, 0);
    assert!(snap.datasets[0].store.fragments_decoded > 0);

    // cold baseline: the same eight workloads, each on its own engine
    let mut cold_bytes = 0u64;
    let mut cold_decoded = 0u64;
    for k in 0..8 {
        let (name, tol) = TOLS[k % TOLS.len()];
        let solo = Archive::open(&path).unwrap();
        let mut s = solo.session().unwrap();
        assert!(s.execute(&one_qoi(name, tol)).unwrap().satisfied);
        cold_bytes += solo.source_stats().fetched_bytes;
        cold_decoded += s.fragments_decoded();
    }
    let shared_bytes = snap.datasets[0].source.fetched_bytes;
    assert!(
        shared_bytes < cold_bytes,
        "shared-store serving fetched {shared_bytes} B, per-client cold engines {cold_bytes} B"
    );
    assert!(
        snap.datasets[0].store.fragments_decoded <= cold_decoded,
        "shared store decoded more fragments than eight cold engines"
    );
}

#[test]
fn hostile_frames_get_clean_error_replies_and_the_server_survives() {
    let path = save_archive("hostile");
    let config = ServerConfig {
        io_timeout_ms: 500,
        ..ServerConfig::default()
    };
    let (server, addr) = start_server(Archive::open(&path).unwrap(), config);

    let expect_error_frame = |mut raw: TcpStream| {
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let (kind, body, _) = pqr::transfer::wire::read_frame(&mut raw).unwrap();
        assert_eq!(kind, pqr::serve::wire::ERROR, "expected an Error frame");
        assert!(matches!(
            pqr::serve::wire::decode_error(&body),
            PqrError::CorruptStream(_)
        ));
    };

    // (a) garbage bytes where a header belongs
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(b"XXXXXXXXXXXXXXXX").unwrap();
    expect_error_frame(raw);

    // (b) valid magic, hostile length prefix (1 GiB body claim) — refused
    // at header parse, before any allocation
    let mut raw = TcpStream::connect(addr).unwrap();
    let mut header = Vec::new();
    header.extend_from_slice(pqr::transfer::wire::FRAME_MAGIC);
    header.extend_from_slice(&pqr::transfer::wire::WIRE_VERSION.to_le_bytes());
    header.extend_from_slice(&pqr::serve::wire::OPEN.to_le_bytes());
    header.extend_from_slice(&(1u32 << 30).to_le_bytes());
    raw.write_all(&header).unwrap();
    expect_error_frame(raw);

    // (c) truncated body: claim 64 bytes, send 10, half-close
    let mut raw = TcpStream::connect(addr).unwrap();
    let mut frame = Vec::new();
    frame.extend_from_slice(pqr::transfer::wire::FRAME_MAGIC);
    frame.extend_from_slice(&pqr::transfer::wire::WIRE_VERSION.to_le_bytes());
    frame.extend_from_slice(&pqr::serve::wire::OPEN.to_le_bytes());
    frame.extend_from_slice(&64u32.to_le_bytes());
    frame.extend_from_slice(&[0u8; 10]);
    raw.write_all(&frame).unwrap();
    raw.shutdown(std::net::Shutdown::Write).unwrap();
    expect_error_frame(raw);

    // the server is unharmed: a healthy client gets a full retrieve
    let mut client = connect(addr);
    client.open("ds").unwrap().expect_ok("open");
    let report = client
        .retrieve(&one_qoi("V", 1e-3), &["V"], false)
        .unwrap()
        .expect_ok("retrieve");
    assert!(report.satisfied);
    client.close().unwrap();

    let snap = server.shutdown();
    assert!(
        snap.errors >= 3,
        "expected >=3 recorded errors, got {}",
        snap.errors
    );
    assert_eq!(snap.retrieves, 1);
}

#[test]
fn mid_retrieve_disconnect_leaves_the_store_serving_byte_identically() {
    let path = save_archive("disco");
    let (server, addr) = start_server(Archive::open(&path).unwrap(), ServerConfig::default());

    // client A sends a full retrieve frame and vanishes without reading
    // the reply — the server executes it against the shared store anyway
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut w = pqr::util::byteio::ByteWriter::new();
        w.put_bytes(b"ds");
        pqr::transfer::wire::write_frame(&mut raw, pqr::serve::wire::OPEN, &w.finish()).unwrap();
        let (kind, _, _) = pqr::transfer::wire::read_frame(&mut raw).unwrap();
        assert_eq!(kind, pqr::serve::wire::OPEN_OK);
        let body = pqr::serve::wire::RetrieveBody {
            request: one_qoi("V", 1e-4),
            want_values: Vec::new(),
            save_progress: false,
        };
        pqr::transfer::wire::write_frame(&mut raw, pqr::serve::wire::RETRIEVE, &body.to_bytes())
            .unwrap();
        // drop: the peer is gone before the server replies
    }

    // wait until the orphaned retrieve has fully executed (store counters
    // non-zero and stable across two spaced snapshots)
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let a = server.stats().datasets[0].store;
        std::thread::sleep(Duration::from_millis(100));
        let b = server.stats().datasets[0].store;
        if a.fragments_decoded > 0
            && a.fragments_decoded == b.fragments_decoded
            && a.refine_advances == b.refine_advances
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "orphaned retrieve never settled: {a:?} vs {b:?}"
        );
    }

    // client B deepens past A's tolerance; the store state A left behind
    // must serve B exactly as an uninterrupted in-process sequence would
    let mut client_b = connect(addr);
    client_b.open("ds").unwrap().expect_ok("open");
    let remote = client_b
        .retrieve(&one_qoi("V", 1e-6), &["V"], false)
        .unwrap()
        .expect_ok("retrieve");
    client_b.close().unwrap();
    assert!(remote.satisfied);

    let service = Archive::open(&path).unwrap().service().unwrap();
    let mut mirror_a = service.session().unwrap();
    mirror_a.execute(&one_qoi("V", 1e-4)).unwrap();
    let mut mirror_b = service.session().unwrap();
    let mirror = mirror_b.execute(&one_qoi("V", 1e-6)).unwrap();

    assert_eq!(remote.satisfied, mirror.satisfied);
    assert_eq!(remote.total_fetched, mirror.total_fetched as u64);
    assert_eq!(
        bits(&remote.values["V"]),
        bits(&mirror_b.qoi_values("V").unwrap()),
        "post-disconnect serving diverged from the uninterrupted sequence"
    );
    drop(server);
}

#[test]
fn flaky_source_fails_the_request_cleanly_and_recovers() {
    let archive_bytes = build_archive().to_bytes();
    let inner = Arc::new(InMemorySource::new(archive_bytes).unwrap());
    let (faulty, switch) = FaultySource::new(inner);
    let archive = Archive::from_fragment_source(faulty).unwrap();
    let (server, addr) = start_server(archive, ServerConfig::default());

    let mut client = connect(addr);
    client.open("ds").unwrap().expect_ok("open");

    // warm pass succeeds
    let warm = client
        .retrieve(&one_qoi("V", 1e-2), &[], false)
        .unwrap()
        .expect_ok("warm retrieve");
    assert!(warm.satisfied);

    // now every fetch fails: the request errors, the connection survives
    switch.set_failing(true);
    let err = client
        .retrieve(&one_qoi("V", 1e-5), &[], false)
        .unwrap_err();
    assert!(matches!(err, PqrError::CorruptStream(_)), "got {err:?}");

    // recovery on the same connection: the store was not poisoned
    switch.set_failing(false);
    let healed = client
        .retrieve(&one_qoi("V", 1e-5), &["V"], false)
        .unwrap()
        .expect_ok("post-recovery retrieve");
    assert!(healed.satisfied);
    let tol_abs = healed.targets[0].tol_abs;
    let worst = healed.values["V"]
        .iter()
        .zip(&truth_v())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(
        worst <= tol_abs,
        "actual error {worst} > certified bound {tol_abs}"
    );
    client.close().unwrap();

    // a fresh client is served normally too
    let mut fresh = connect(addr);
    fresh.open("ds").unwrap().expect_ok("open");
    let again = fresh
        .retrieve(&one_qoi("VxVy", 1e-3), &[], false)
        .unwrap()
        .expect_ok("fresh retrieve");
    assert!(again.satisfied);
    fresh.close().unwrap();

    assert!(switch.attempts() > 0);
    let snap = server.shutdown();
    assert!(snap.errors >= 1);
}

#[test]
fn byte_budgets_yield_partials_with_bounds_not_errors() {
    let path = save_archive("budget");

    // only meaningful when the unbounded run needs more than one round
    let unbounded_archive = Archive::open(&path).unwrap();
    let mut unbounded = unbounded_archive.session().unwrap();
    let free = unbounded.execute(&one_qoi("V", 1e-9)).unwrap();
    if free.iterations <= 1 {
        return;
    }

    // (a) server-enforced per-client budget
    let config = ServerConfig {
        client_byte_budget: Some(1),
        ..ServerConfig::default()
    };
    let (server, addr) = start_server(Archive::open(&path).unwrap(), config);
    let mut client = connect(addr);
    client.open("ds").unwrap().expect_ok("open");
    let capped = client
        .retrieve(&one_qoi("V", 1e-9), &[], false)
        .unwrap()
        .expect_ok("capped retrieve");
    assert!(
        capped.budget_exhausted,
        "budget should have stopped refinement"
    );
    assert!(!capped.satisfied);
    assert!((capped.iterations as usize) < free.iterations);
    assert!(capped.targets[0].max_est_error.is_finite());
    assert!(capped.targets[0].max_est_error > 0.0);

    // the budget is cumulative per connection: a second retrieve still
    // answers with a bound instead of erroring
    let second = client
        .retrieve(&one_qoi("Vx2", 1e-9), &[], false)
        .unwrap()
        .expect_ok("second capped retrieve");
    assert!(second.budget_exhausted);
    assert!(second.targets[0].max_est_error.is_finite());
    client.close().unwrap();
    drop(server);

    // (b) request-level budget rides the wire untouched
    let (server, addr) = start_server(Archive::open(&path).unwrap(), ServerConfig::default());
    let mut client = connect(addr);
    client.open("ds").unwrap().expect_ok("open");
    let capped = client
        .retrieve(&one_qoi("V", 1e-9).byte_budget(1), &[], false)
        .unwrap()
        .expect_ok("request-budget retrieve");
    assert!(capped.budget_exhausted);
    assert!(!capped.satisfied);
    assert!(capped.targets[0].max_est_error.is_finite());
    client.close().unwrap();
    drop(server);
}

#[test]
fn saturated_decode_pool_sheds_busy_with_retry_after() {
    let archive_bytes = build_archive().to_bytes();
    let inner = Arc::new(InMemorySource::new(archive_bytes).unwrap());
    let (faulty, switch) = FaultySource::new(inner);
    let archive = Archive::from_fragment_source(faulty).unwrap();
    let config = ServerConfig {
        workers: 4,
        decode_permits: 1,
        busy_wait_ms: 50,
        retry_after_ms: 123,
        ..ServerConfig::default()
    };
    let (server, addr) = start_server(archive, config);

    // client A's retrieve holds the single decode permit for a long,
    // deterministic stretch (every fetch sleeps)
    let baseline = switch.attempts();
    switch.set_delay_ms(150);
    let holder = std::thread::spawn(move || {
        let mut a = connect(addr);
        a.open("ds").unwrap().expect_ok("open A");
        let r = a
            .retrieve(&one_qoi("V", 1e-4), &[], false)
            .unwrap()
            .expect_ok("retrieve A");
        a.close().unwrap();
        r
    });

    // once a delayed fetch has started, A provably holds the permit
    let wait_start = Instant::now();
    while switch.attempts() == baseline {
        assert!(
            wait_start.elapsed() < Duration::from_secs(30),
            "client A never started fetching"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut b = connect(addr);
    b.open("ds").unwrap().expect_ok("open B");
    let shed = b.retrieve(&one_qoi("VxVy", 1e-3), &[], false).unwrap();
    match &shed {
        Reply::Busy {
            retry_after_ms,
            reason,
        } => {
            assert_eq!(*retry_after_ms, 123);
            assert!(reason.contains("decode pool"), "reason: {reason}");
        }
        Reply::Ok(_) => panic!("expected a Busy shed while the permit was held"),
    }

    switch.set_delay_ms(0);
    assert!(holder.join().unwrap().satisfied);

    // B retries per the hint and is eventually served on the same socket
    let mut served = None;
    for _ in 0..200 {
        std::thread::sleep(Duration::from_millis(25));
        match b.retrieve(&one_qoi("VxVy", 1e-3), &[], false).unwrap() {
            Reply::Ok(report) => {
                served = Some(report);
                break;
            }
            Reply::Busy { .. } => continue,
        }
    }
    let served = served.expect("retry never succeeded");
    assert!(served.satisfied);
    b.close().unwrap();

    let snap = server.shutdown();
    assert!(snap.shed_busy >= 1, "shed_busy = {}", snap.shed_busy);
    assert!(snap.retrieves >= 2);
}

#[test]
fn full_admission_queue_sheds_at_accept() {
    let path = save_archive("admission");
    let config = ServerConfig {
        workers: 1,
        pending_queue: 0,
        retry_after_ms: 321,
        ..ServerConfig::default()
    };
    let (server, addr) = start_server(Archive::open(&path).unwrap(), config);

    // A occupies the only worker; B waits in the (zero-slack) queue
    let mut a = connect(addr);
    a.open("ds").unwrap().expect_ok("open A");
    let b = connect(addr);
    std::thread::sleep(Duration::from_millis(200));

    // C finds the queue full and is shed at the accept loop itself
    let mut c_raw = TcpStream::connect(addr).unwrap();
    c_raw
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let (kind, body, _) = pqr::transfer::wire::read_frame(&mut c_raw).unwrap();
    assert_eq!(kind, pqr::serve::wire::BUSY);
    let busy = pqr::serve::wire::BusyBody::from_bytes(&body).unwrap();
    assert_eq!(busy.retry_after_ms, 321);
    assert!(busy.reason.contains("admission"), "reason: {}", busy.reason);
    drop(c_raw);

    // releasing A promotes B out of the queue; B is served normally
    a.close().unwrap();
    let mut b = b;
    b.open("ds").unwrap().expect_ok("open B");
    let report = b
        .retrieve(&one_qoi("V", 1e-3), &[], false)
        .unwrap()
        .expect_ok("retrieve B");
    assert!(report.satisfied);
    let stats = b.stats().unwrap().expect_ok("stats");
    assert!(stats.shed_admission >= 1);
    b.close().unwrap();
    drop(server);
}

#[test]
fn resume_over_the_wire_continues_a_saved_trajectory() {
    let path = save_archive("resume");
    let (server, addr) = start_server(Archive::open(&path).unwrap(), ServerConfig::default());

    // first connection: retrieve loosely, carry the progress blob home
    let mut first = connect(addr);
    first.open("ds").unwrap().expect_ok("open");
    let leg1 = first
        .retrieve(&one_qoi("V", 1e-2), &[], true)
        .unwrap()
        .expect_ok("first retrieve");
    assert!(leg1.satisfied);
    let blob = leg1.progress.clone().expect("progress blob requested");
    first.close().unwrap();

    // second connection resumes the blob and tightens
    let mut second = connect(addr);
    let info = second.resume("ds", &blob).unwrap().expect_ok("resume");
    assert_eq!(info.qois.len(), 3);
    let leg2 = second
        .retrieve(&one_qoi("V", 1e-5), &["V"], false)
        .unwrap()
        .expect_ok("resumed retrieve");
    assert!(leg2.satisfied);
    second.close().unwrap();

    // the same blob resumed in-process produces byte-identical values
    let local = Archive::open(&path).unwrap();
    let mut resumed = local.resume_session(&blob).unwrap();
    let mirror = resumed.execute(&one_qoi("V", 1e-5)).unwrap();
    assert_eq!(leg2.satisfied, mirror.satisfied);
    assert_eq!(leg2.total_fetched, mirror.total_fetched as u64);
    assert_eq!(
        bits(&leg2.values["V"]),
        bits(&resumed.qoi_values("V").unwrap())
    );
    drop(server);
}
