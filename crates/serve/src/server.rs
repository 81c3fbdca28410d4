//! The thread-pooled TCP request server.
//!
//! One [`Server`] owns a [`Registry`] of datasets, a
//! [`TcpListener`] accept loop, and a fixed worker pool. The load path is
//! guarded twice:
//!
//! 1. **Admission**: accepted connections enter a *bounded* queue. When
//!    it is full the accept loop answers a `Busy` frame immediately and
//!    drops the connection — the server never buffers unbounded work.
//! 2. **Decode gate**: retrieve frames must take one of
//!    [`ServerConfig::decode_permits`] permits before executing. A
//!    request that cannot get a permit within
//!    [`ServerConfig::busy_wait_ms`] is answered `Busy` with a
//!    retry-after hint instead of piling onto the pool. The measured
//!    wait rides back on the report as `queue_wait_ms`.
//!
//! Sessions are per-connection: `open` binds one, subsequent `retrieve`s
//! accumulate progressively on it (the wire analogue of a local
//! [`Session`]), and all sessions of one
//! dataset share that dataset's [`DatasetService`] decode store — the
//! decode-once property crosses the socket untouched.
//!
//! **Round coalescing**: when [`ServerConfig::coalesce`] is on, eligible
//! retrieves (store-backed session, no byte budget in play, no progress
//! save) that arrive within one [`ServerConfig::coalesce_window_ms`]
//! gathering window form a *round*. One leader merges the batch with
//! [`merge_requests`], executes the union through the shared store under a
//! **single** decode permit, and every participant (leader included) then
//! *projects* its reply straight from the round's per-target reports and
//! the shared round session — no decode gate, no per-client re-execution.
//! Projection is exact for the certified quantities: the union contains
//! every member target at its own tolerance (deduplicated by wire
//! identity), so each member's `satisfied`/`tol_abs`/`max_est_error` are
//! the union execution's own numbers for that target, and requested value
//! arrays read the identical reconstruction any member execution would
//! have adopted. The *accounting* fields of a coalesced reply
//! (`iterations`, `bytes_fetched`, `total_fetched`, store deltas) are
//! round-level: they describe the one union execution that served the
//! whole round, not a per-client share. A round that cannot get a permit,
//! whose union fails, or whose reply cannot be projected (defensive
//! fallback) degrades to individual gated execution.
//!
//! Failure policy: malformed frames and failed requests get an `Error`
//! frame (the connection survives request-level errors, dies on framing
//! desync); a peer that vanishes mid-request is counted and forgotten.
//! Worker and store state never poisons — every lock user recovers the
//! inner value.

use crate::client::{RemoteReport, RemoteTarget};
use crate::metrics::{DatasetStats, ServeStats, StatsSnapshot};
use crate::wire::{self, BusyBody, OpenInfo, ResumeBody, RetrieveBody};
use pqr_core::archive::{Archive, DatasetService, Session};
use pqr_core::prelude::StoreBudget;
use pqr_core::prelude::{PlanReport, TargetReport};
use pqr_core::request::{merge_requests, RequestTarget, RetrievalRequest, ToleranceMode};
use pqr_transfer::wire::{decode_header, io_err, write_frame, HEADER_LEN};
use pqr_util::error::{PqrError, Result};
use std::collections::{BTreeMap, VecDeque};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads handling connections.
    pub workers: usize,
    /// Bounded accepted-connection queue length. `0` means a connection
    /// is only admitted when a worker is free to take it immediately.
    pub pending_queue: usize,
    /// Concurrent retrieves allowed to execute (the decode pool width).
    pub decode_permits: usize,
    /// How long a retrieve may wait for a decode permit before the server
    /// sheds it with `Busy`.
    pub busy_wait_ms: u64,
    /// The retry-after hint carried by `Busy` replies.
    pub retry_after_ms: u64,
    /// Socket read/write timeout. Reads between frames poll at this
    /// period (checking for shutdown); a timeout *mid-frame* is a dead or
    /// stalled peer and drops the connection.
    pub io_timeout_ms: u64,
    /// Drop a connection after this long without a complete frame.
    pub idle_timeout_ms: u64,
    /// Per-connection cap on newly fetched source bytes, across all of
    /// the connection's retrieves. The cap rides the existing
    /// [`RetrievalRequest`] budget
    /// field, so an exceeded budget returns a partial result with its
    /// certified bound — never an error.
    pub client_byte_budget: Option<usize>,
    /// Per-connection wall-clock budget. Retrieves arriving after it has
    /// elapsed are refused with an `InvalidRequest` error frame.
    pub client_time_budget_ms: Option<u64>,
    /// Coalesce concurrently arriving retrieves of one dataset into union
    /// rounds (see the module docs). Budgeted requests, budgeted
    /// connections, and resumed sessions always bypass coalescing.
    pub coalesce: bool,
    /// How long a round leader holds its gathering window open for more
    /// arrivals before executing.
    pub coalesce_window_ms: u64,
    /// Close the gathering window early once this many requests have
    /// joined the round (clamped to ≥ 2).
    pub coalesce_min_batch: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            pending_queue: 16,
            decode_permits: 4,
            busy_wait_ms: 100,
            retry_after_ms: 200,
            io_timeout_ms: 30_000,
            idle_timeout_ms: 300_000,
            client_byte_budget: None,
            client_time_budget_ms: None,
            coalesce: true,
            coalesce_window_ms: 3,
            coalesce_min_batch: 2,
        }
    }
}

/// One registered dataset: the archive (for resume replay), its
/// shared-store service (for live sessions), and the coalescing state its
/// concurrent retrieves gather on.
struct RegEntry {
    archive: Archive,
    service: DatasetService,
    coalescer: Coalescer,
}

/// Cross-client round-coalescing state of one dataset (see the module
/// docs). A round's lifecycle: a leader opens a gathering window
/// (`gathering = true`), concurrent arrivals push their requests and wait,
/// the leader closes the window atomically (taking the whole batch),
/// executes the union once, records the round's outcome, and wakes the
/// members.
struct Coalescer {
    state: Mutex<CoState>,
    cv: Condvar,
    /// The session union rounds execute on, created lazily so datasets
    /// that never coalesce pay nothing. Holding its lock across the union
    /// also serialises rounds per dataset.
    round_session: Mutex<Option<Session>>,
}

struct CoState {
    /// Id of the round currently (or next) gathering.
    round: u64,
    /// True while a leader's gathering window is open.
    gathering: bool,
    /// Requests gathered for the current round, leader's own included.
    requests: Vec<RetrievalRequest>,
    /// `(round, union result)` of recently executed rounds — `None` marks
    /// a failed union. Bounded: a member that wakes late must still find
    /// its round's outcome here.
    outcomes: VecDeque<(u64, Option<Arc<RoundShare>>)>,
}

/// What a successful union round publishes to its members: the union
/// request (target identities, in execution order) and the union
/// execution's report (per-target outcomes aligned with those targets).
/// Members project their replies from this instead of re-executing.
struct RoundShare {
    union: RetrievalRequest,
    report: PlanReport,
    /// When the round's decode permit was granted. A member's reported
    /// `queue_wait_ms` runs from its own arrival to this instant — once
    /// the union executes, the member's work *is* being serviced, which
    /// mirrors uncoalesced semantics (permit wait, not execution).
    granted: Instant,
}

/// What role a retrieve played in coalescing, decided by [`join_round`].
enum CoRole {
    /// Opened and closed a gathering window with ≥ 2 requests: execute the
    /// union, then project its own reply from the result.
    Leader {
        round: u64,
        batch: Vec<RetrievalRequest>,
    },
    /// Rode a round whose union executed: project the reply.
    Shared(Arc<RoundShare>),
    /// No round formed (solo window, failed union, or vanished leader):
    /// execute individually through the decode gate.
    Solo,
}

impl Coalescer {
    fn new() -> Self {
        Self {
            state: Mutex::new(CoState {
                round: 0,
                gathering: false,
                requests: Vec::new(),
                outcomes: VecDeque::new(),
            }),
            cv: Condvar::new(),
            round_session: Mutex::new(None),
        }
    }

    /// Publishes a round's outcome and wakes every member waiting on it.
    fn record_outcome(&self, round: u64, share: Option<Arc<RoundShare>>) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.outcomes.len() >= 8 {
            st.outcomes.pop_front();
        }
        st.outcomes.push_back((round, share));
        drop(st);
        self.cv.notify_all();
    }
}

/// The server's dataset registry: name → [`DatasetService`] (plus the
/// archive behind it). All sessions a server opens on one name share that
/// dataset's decode store.
#[derive(Default)]
pub struct Registry {
    entries: BTreeMap<String, Arc<RegEntry>>,
    /// When set, every registered dataset's decode store charges against
    /// this one budget, so memory pressure (and eviction) is global across
    /// datasets rather than per-store.
    budget: Option<Arc<StoreBudget>>,
}

impl Registry {
    /// An empty registry. Each dataset resolves its own store budget
    /// (engine config, then `PQR_STORE_BUDGET`).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry whose datasets all share `budget` — the
    /// server-wide decoded-state ceiling behind `pqr serve
    /// --store-budget`.
    pub fn with_budget(budget: Arc<StoreBudget>) -> Self {
        Self {
            entries: BTreeMap::new(),
            budget: Some(budget),
        }
    }

    /// Registers an archive under `name`, building its shared-store
    /// service (one metadata pass per field). Replaces any previous entry
    /// with the same name.
    pub fn register(&mut self, name: &str, archive: Archive) -> Result<()> {
        let service = match &self.budget {
            Some(budget) => archive.service_with_budget(Arc::clone(budget))?,
            None => archive.service()?,
        };
        self.entries.insert(
            name.to_string(),
            Arc::new(RegEntry {
                archive,
                service,
                coalescer: Coalescer::new(),
            }),
        );
        Ok(())
    }

    /// Registered dataset names.
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    fn get(&self, name: &str) -> Result<&Arc<RegEntry>> {
        self.entries.get(name).ok_or_else(|| {
            PqrError::InvalidRequest(format!(
                "unknown dataset '{name}' (registered: {:?})",
                self.entries.keys().collect::<Vec<_>>()
            ))
        })
    }
}

/// Hand-rolled counting semaphore (no crates-io): the decode-permit gate.
struct Semaphore {
    permits: Mutex<usize>,
    cv: Condvar,
}

impl Semaphore {
    fn new(n: usize) -> Self {
        Self {
            permits: Mutex::new(n),
            cv: Condvar::new(),
        }
    }

    /// Tries to take a permit, waiting at most `d`. Returns the wait time
    /// on success.
    fn acquire_timeout(&self, d: Duration) -> Option<Duration> {
        let start = Instant::now();
        let mut n = self.permits.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if *n > 0 {
                *n -= 1;
                return Some(start.elapsed());
            }
            let elapsed = start.elapsed();
            if elapsed >= d {
                return None;
            }
            let (guard, _timeout) = self
                .cv
                .wait_timeout(n, d - elapsed)
                .unwrap_or_else(|e| e.into_inner());
            n = guard;
        }
    }

    fn release(&self) {
        let mut n = self.permits.lock().unwrap_or_else(|e| e.into_inner());
        *n += 1;
        self.cv.notify_one();
    }
}

/// RAII permit: releases on every exit path, including panics and early
/// returns — a dying request can never leak decode capacity.
struct Permit<'a>(&'a Semaphore);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// Bounded queue of accepted connections awaiting a worker.
struct ConnQueue {
    q: Mutex<VecDeque<TcpStream>>,
    cv: Condvar,
    cap: usize,
    closed: AtomicBool,
}

impl ConnQueue {
    fn new(cap: usize) -> Self {
        Self {
            q: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            cap,
            closed: AtomicBool::new(false),
        }
    }

    /// Admits the connection, or hands it back when the queue is full
    /// (the caller sheds it).
    fn push(&self, stream: TcpStream) -> std::result::Result<(), TcpStream> {
        let mut q = self.q.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() > self.cap {
            return Err(stream);
        }
        q.push_back(stream);
        drop(q);
        self.cv.notify_one();
        Ok(())
    }

    /// Blocks for the next connection; `None` once closed and drained.
    fn pop(&self) -> Option<TcpStream> {
        let mut q = self.q.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(s) = q.pop_front() {
                return Some(s);
            }
            if self.closed.load(Ordering::Acquire) {
                return None;
            }
            q = self
                .cv
                .wait_timeout(q, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.cv.notify_all();
    }

    /// Connections currently queued (the admission-shed hint's queue-depth
    /// input).
    fn len(&self) -> usize {
        self.q.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

/// Decrements a gauge on every exit path (the decode-inflight counterpart
/// of [`Permit`]).
struct GaugeGuard<'a>(&'a AtomicU64);

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// What a connection's `open`/`resume` frame bound: the session, its
/// dataset entry, and whether the session rides the dataset's shared
/// decode store (live `open`) or an independent replay engine (`resume`).
/// Only shared-store sessions are coalescing-eligible.
struct ConnSession {
    session: Session,
    entry: Arc<RegEntry>,
    shared_store: bool,
}

/// State shared by the accept loop and every worker.
struct Shared {
    registry: Registry,
    config: ServerConfig,
    stats: ServeStats,
    permits: Semaphore,
    queue: ConnQueue,
    shutdown: AtomicBool,
}

/// A running serve instance: accept loop + worker pool over a [`Registry`].
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop and worker pool.
    pub fn start(
        addr: impl ToSocketAddrs,
        registry: Registry,
        config: ServerConfig,
    ) -> Result<Self> {
        let listener = TcpListener::bind(addr).map_err(io_err)?;
        listener.set_nonblocking(true).map_err(io_err)?;
        let addr = listener.local_addr().map_err(io_err)?;
        let shared = Arc::new(Shared {
            permits: Semaphore::new(config.decode_permits.max(1)),
            queue: ConnQueue::new(config.pending_queue),
            registry,
            config: config.clone(),
            stats: ServeStats::default(),
            shutdown: AtomicBool::new(false),
        });

        let workers = (0..config.workers.max(1))
            .map(|k| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pqr-serve-worker-{k}"))
                    .spawn(move || worker_loop(&shared))
                    .map_err(io_err)
            })
            .collect::<Result<Vec<_>>>()?;

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("pqr-serve-accept".into())
                .spawn(move || accept_loop(listener, &shared))
                .map_err(io_err)?
        };

        Ok(Self {
            shared,
            addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A metrics snapshot with per-dataset store/source rows.
    pub fn stats(&self) -> StatsSnapshot {
        full_snapshot(&self.shared.stats, &self.shared.registry)
    }

    /// Requests shutdown and joins the accept loop and workers. In-flight
    /// connections finish their current frame; queued connections drain.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.shared.shutdown.store(true, Ordering::Release);
        self.join_all()
    }

    /// Joins without initiating shutdown — returns when a client's
    /// `shutdown` frame (or a local [`Server::shutdown`] from another
    /// handle) stops the server.
    pub fn wait(mut self) -> StatsSnapshot {
        self.join_all()
    }

    fn join_all(&mut self) -> StatsSnapshot {
        if let Some(h) = self.accept.take() {
            h.join().ok();
        }
        // accept loop closed the queue on exit; workers drain and stop
        for h in self.workers.drain(..) {
            h.join().ok();
        }
        full_snapshot(&self.shared.stats, &self.shared.registry)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.join_all();
    }
}

fn full_snapshot(stats: &ServeStats, registry: &Registry) -> StatsSnapshot {
    let mut snap = stats.snapshot();
    for (name, e) in &registry.entries {
        snap.datasets.push(DatasetStats {
            name: name.clone(),
            store: e.service.store_stats(),
            source: e.service.source_stats(),
        });
    }
    snap
}

fn accept_loop(listener: TcpListener, shared: &Shared) {
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                ServeStats::inc(&shared.stats.counters.connections);
                match shared.queue.push(stream) {
                    Ok(()) => {}
                    Err(mut rejected) => {
                        // bounded queue full: shed at admission with an
                        // explicit Busy instead of queueing unboundedly
                        ServeStats::inc(&shared.stats.counters.shed_admission);
                        rejected
                            .set_write_timeout(Some(Duration::from_millis(200)))
                            .ok();
                        let body = BusyBody {
                            retry_after_ms: shared.stats.busy_hint_now(
                                shared.queue.len() as u64,
                                shared.config.decode_permits.max(1) as u64,
                                shared.config.retry_after_ms,
                            ),
                            reason: "admission queue full".into(),
                        };
                        if let Ok(n) = write_frame(&mut rejected, wire::BUSY, &body.to_bytes()) {
                            ServeStats::add(&shared.stats.counters.bytes_out, n as u64);
                        }
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    shared.queue.close();
}

fn worker_loop(shared: &Shared) {
    while let Some(stream) = shared.queue.pop() {
        handle_connection(stream, shared);
    }
}

/// Reads one frame, polling between frames so shutdown and idle timeouts
/// are honoured without desyncing mid-frame: the *first* header byte is
/// awaited in a timeout loop, after which the rest of the frame must
/// arrive within the io timeout or the peer is declared dead.
fn read_frame_polling(
    stream: &mut TcpStream,
    shared: &Shared,
) -> Result<Option<(u16, Vec<u8>, usize)>> {
    let io_timeout = Duration::from_millis(shared.config.io_timeout_ms.max(10));
    // poll for the first byte on a short quantum so shutdown is honoured
    // promptly no matter how generous the io timeout is
    stream
        .set_read_timeout(Some(io_timeout.min(Duration::from_millis(100))))
        .ok();
    let idle_start = Instant::now();
    let mut first = [0u8; 1];
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return Ok(None); // server is draining: drop the idle connection
        }
        if idle_start.elapsed() >= Duration::from_millis(shared.config.idle_timeout_ms) {
            return Ok(None);
        }
        match stream.read(&mut first) {
            Ok(0) => return Ok(None), // clean EOF between frames
            Ok(_) => break,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(e) => return Err(io_err(e)),
        }
    }
    // frame started: the rest must arrive within the full io timeout
    stream.set_read_timeout(Some(io_timeout)).ok();
    let mut rest = [0u8; HEADER_LEN - 1];
    stream.read_exact(&mut rest).map_err(io_err)?;
    let mut h = [0u8; HEADER_LEN];
    h[0] = first[0];
    h[1..].copy_from_slice(&rest);
    let header = decode_header(&h)?;
    let mut body = vec![0u8; header.len as usize];
    stream.read_exact(&mut body).map_err(io_err)?;
    let wire_bytes = HEADER_LEN + body.len();
    Ok(Some((header.kind, body, wire_bytes)))
}

/// Per-connection handler: a session-scoped frame loop.
fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    stream.set_nodelay(true).ok();
    let io_timeout = Duration::from_millis(shared.config.io_timeout_ms.max(10));
    stream.set_read_timeout(Some(io_timeout)).ok();
    stream.set_write_timeout(Some(io_timeout)).ok();

    let opened_at = Instant::now();
    let mut session: Option<ConnSession> = None;
    let mut byte_budget_left = shared.config.client_byte_budget;

    loop {
        let (kind, body, wire_in) = match read_frame_polling(&mut stream, shared) {
            Ok(Some(f)) => f,
            Ok(None) => return, // clean EOF / idle / draining
            Err(e) => {
                // framing failure: answer with a clean error (best effort —
                // the peer may already be gone), then drop the connection,
                // because the stream can no longer be trusted to be in sync
                ServeStats::inc(&shared.stats.counters.errors);
                send_error(&mut stream, shared, &e);
                return;
            }
        };
        ServeStats::add(&shared.stats.counters.bytes_in, wire_in as u64);
        ServeStats::inc(&shared.stats.counters.requests);

        match kind {
            wire::OPEN => {
                let reply = open_session(&body, shared).map(|(info, sess)| {
                    session = Some(sess);
                    info.to_bytes()
                });
                if !send_result(&mut stream, shared, wire::OPEN_OK, reply) {
                    return;
                }
            }
            wire::RESUME => {
                let reply = resume_session(&body, shared).map(|(info, sess)| {
                    session = Some(sess);
                    info.to_bytes()
                });
                if !send_result(&mut stream, shared, wire::OPEN_OK, reply) {
                    return;
                }
            }
            wire::RETRIEVE => {
                let outcome = run_retrieve(
                    &body,
                    shared,
                    &mut session,
                    &mut byte_budget_left,
                    opened_at,
                );
                let sent = match outcome {
                    RetrieveOutcome::Ok(report) => {
                        send_result(&mut stream, shared, wire::RETRIEVE_OK, Ok(report))
                    }
                    RetrieveOutcome::Busy(retry_after_ms) => {
                        ServeStats::inc(&shared.stats.counters.shed_busy);
                        let body = BusyBody {
                            retry_after_ms,
                            reason: "decode pool saturated".into(),
                        };
                        send_frame(&mut stream, shared, wire::BUSY, &body.to_bytes())
                    }
                    RetrieveOutcome::Err(e) => {
                        send_result::<Vec<u8>>(&mut stream, shared, wire::RETRIEVE_OK, Err(e))
                    }
                };
                if !sent {
                    // the peer vanished between request and reply
                    ServeStats::inc(&shared.stats.counters.disconnects_mid_request);
                    return;
                }
            }
            wire::STATS => {
                let snap = full_snapshot(&shared.stats, &shared.registry);
                if !send_frame(&mut stream, shared, wire::STATS_OK, &snap.to_bytes()) {
                    return;
                }
            }
            wire::CLOSE => {
                send_frame(&mut stream, shared, wire::BYE, &[]);
                return;
            }
            wire::SHUTDOWN => {
                shared.shutdown.store(true, Ordering::Release);
                send_frame(&mut stream, shared, wire::BYE, &[]);
                return;
            }
            k => {
                let e = PqrError::InvalidRequest(format!("unknown frame kind {k}"));
                ServeStats::inc(&shared.stats.counters.errors);
                if !send_error(&mut stream, shared, &e) {
                    return;
                }
            }
        }
    }
}

fn open_session(body: &[u8], shared: &Shared) -> Result<(OpenInfo, ConnSession)> {
    let mut r = pqr_util::byteio::ByteReader::new(body);
    let name = wire::get_name(&mut r)?;
    let entry = shared.registry.get(&name)?;
    let session = entry.service.session()?;
    Ok((
        open_info(entry),
        ConnSession {
            session,
            entry: Arc::clone(entry),
            shared_store: true,
        },
    ))
}

fn resume_session(body: &[u8], shared: &Shared) -> Result<(OpenInfo, ConnSession)> {
    let req = ResumeBody::from_bytes(body)?;
    let entry = shared.registry.get(&req.dataset)?;
    // resumed sessions replay their saved trajectory on an independent
    // engine (deterministic byte accounting); they share the dataset's
    // fragment source but not its decode store — see DIVERGENCES.md
    let session = entry.archive.resume_session(&req.progress)?;
    Ok((
        open_info(entry),
        ConnSession {
            session,
            entry: Arc::clone(entry),
            shared_store: false,
        },
    ))
}

fn open_info(entry: &RegEntry) -> OpenInfo {
    let manifest = entry.service.manifest();
    OpenInfo {
        dims: manifest.dims.clone(),
        fields: manifest.fields.iter().map(|f| f.name.clone()).collect(),
        qois: entry
            .service
            .qoi_names()
            .into_iter()
            .map(String::from)
            .collect(),
    }
}

enum RetrieveOutcome {
    Ok(Vec<u8>),
    /// Shed at the decode gate; carries the retry-after hint.
    Busy(u64),
    Err(PqrError),
}

/// Joins (or opens) the dataset's current coalescing round. Blocks for at
/// most the gathering window as a leader, or until the round's outcome is
/// recorded as a member.
fn join_round(shared: &Shared, co: &Coalescer, request: &RetrievalRequest) -> CoRole {
    let window = Duration::from_millis(shared.config.coalesce_window_ms);
    let min_batch = shared.config.coalesce_min_batch.max(2);
    let mut st = co.state.lock().unwrap_or_else(|e| e.into_inner());
    if !st.gathering {
        // leader: open a gathering window, close it early on min_batch
        st.gathering = true;
        let round = st.round;
        st.requests.push(request.clone());
        let start = Instant::now();
        while st.requests.len() < min_batch {
            let elapsed = start.elapsed();
            if elapsed >= window {
                break;
            }
            st = co
                .cv
                .wait_timeout(st, window - elapsed)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        // close the round atomically: every request pushed so far belongs
        // to it, and nothing can join after this point
        st.gathering = false;
        st.round += 1;
        let batch = std::mem::take(&mut st.requests);
        drop(st);
        if batch.len() < 2 {
            CoRole::Solo
        } else {
            CoRole::Leader { round, batch }
        }
    } else {
        // member: ride the open round and wait for its outcome
        let round = st.round;
        st.requests.push(request.clone());
        co.cv.notify_all(); // the leader may be waiting for min_batch
        let cap = Duration::from_millis(shared.config.io_timeout_ms.max(1_000));
        let start = Instant::now();
        loop {
            if let Some((_, share)) = st.outcomes.iter().find(|(r, _)| *r == round) {
                return match share {
                    Some(s) => CoRole::Shared(Arc::clone(s)),
                    None => CoRole::Solo,
                };
            }
            let elapsed = start.elapsed();
            if elapsed >= cap {
                // the leader vanished (panicked mid-round): serve
                // individually rather than hang
                return CoRole::Solo;
            }
            st = co
                .cv
                .wait_timeout(st, cap - elapsed)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }
}

/// Executes a round's union request through the shared store under one
/// decode permit, records the outcome, and wakes the members. Returns the
/// round's share on success (members project their replies from it).
fn run_union(
    shared: &Shared,
    entry: &RegEntry,
    round: u64,
    batch: &[RetrievalRequest],
) -> Option<Arc<RoundShare>> {
    ServeStats::inc(&shared.stats.decode_inflight);
    let share = {
        let _gauge = GaugeGuard(&shared.stats.decode_inflight);
        let wait = Duration::from_millis(shared.config.busy_wait_ms);
        match shared.permits.acquire_timeout(wait) {
            None => None,
            Some(_queued) => {
                let _permit = Permit(&shared.permits);
                let granted = Instant::now();
                let union = merge_requests(batch);
                let mut guard = entry
                    .coalescer
                    .round_session
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                if guard.is_none() {
                    *guard = entry.service.session().ok();
                }
                let share = match guard.as_mut() {
                    Some(s) => s.execute(&union).ok().map(|report| {
                        Arc::new(RoundShare {
                            union,
                            report,
                            granted,
                        })
                    }),
                    None => None,
                };
                // the union execution is the round's real service work;
                // feed it to the dynamic Busy hint once per round
                if share.is_some() {
                    shared
                        .stats
                        .record_service(granted.elapsed().as_millis() as u64);
                }
                share
            }
        }
    };
    if share.is_some() {
        ServeStats::inc(&shared.stats.counters.coalesced_rounds);
        ServeStats::add(
            &shared.stats.counters.coalesced_requests,
            batch.len() as u64,
        );
    } else {
        ServeStats::inc(&shared.stats.counters.coalesce_fallbacks);
    }
    entry.coalescer.record_outcome(round, share.clone());
    share
}

/// Builds a member's reply from its round's [`RoundShare`] — the
/// "K cheap reply projections" side of coalescing. Every member target is
/// present in the union at its own tolerance (that is [`merge_requests`]'s
/// dedup key), so the union's per-target report *is* the member's report
/// for the certified quantities; requested value arrays read the shared
/// round session, whose reconstruction is exactly what a member execution
/// would have adopted. Returns `None` (caller degrades to individual
/// execution) if a target cannot be matched or the round session is gone.
fn project_reply(req: &RetrieveBody, share: &RoundShare, entry: &RegEntry) -> Option<RemoteReport> {
    fn key(t: &RequestTarget) -> (&str, u64, bool, Option<(usize, usize)>) {
        (
            t.name.as_str(),
            t.tolerance.to_bits(),
            t.mode == ToleranceMode::Absolute,
            t.region,
        )
    }
    let mut targets = Vec::with_capacity(req.request.targets().len());
    for t in req.request.targets() {
        let idx = share
            .union
            .targets()
            .iter()
            .position(|u| key(u) == key(t))?;
        targets.push(&share.report.targets[idx]);
    }
    let mut values = BTreeMap::new();
    if !req.want_values.is_empty() {
        let guard = entry
            .coalescer
            .round_session
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let session = guard.as_ref()?;
        for name in &req.want_values {
            values.insert(name.clone(), session.qoi_values(name).ok()?);
        }
    }
    Some(RemoteReport {
        budget_exhausted: false, // budgeted requests never coalesce
        values,
        // round-level accounting otherwise: the one union execution that
        // served this round (see the module docs)
        ..remote_report(&share.report, &targets)
    })
}

/// The wire projection of `report` for the given target rows (all of
/// them, or a coalesced member's): every counter is the execution's, and
/// `satisfied` is over `targets`. Values and progress are the caller's.
fn remote_report(report: &PlanReport, targets: &[&TargetReport]) -> RemoteReport {
    RemoteReport {
        satisfied: targets.iter().all(|t| t.satisfied),
        budget_exhausted: report.budget_exhausted,
        iterations: report.iterations as u64,
        bytes_fetched: report.bytes_fetched as u64,
        total_fetched: report.total_fetched as u64,
        shared_bytes_saved: report.shared_bytes_saved as u64,
        queue_wait_ms: report.queue_wait_ms,
        store_fragments_decoded: report.store_fragments_decoded,
        store_refine_reuses: report.store_refine_reuses,
        recompose_passes: report.recompose_passes,
        recon_cache_hits: report.recon_cache_hits,
        reconstruct_ms: report.reconstruct_ms,
        targets: targets
            .iter()
            .map(|t| RemoteTarget {
                name: t.name.clone(),
                satisfied: t.satisfied,
                tol_abs: t.tol_abs,
                max_est_error: t.max_est_error,
                bytes: t.bytes as u64,
            })
            .collect(),
        values: BTreeMap::new(),
        progress: None,
    }
}

fn run_retrieve(
    body: &[u8],
    shared: &Shared,
    session: &mut Option<ConnSession>,
    byte_budget_left: &mut Option<usize>,
    opened_at: Instant,
) -> RetrieveOutcome {
    let req = match RetrieveBody::from_bytes(body) {
        Ok(r) => r,
        Err(e) => return RetrieveOutcome::Err(e),
    };
    let Some(conn) = session.as_mut() else {
        return RetrieveOutcome::Err(PqrError::InvalidRequest(
            "no open session (send an open or resume frame first)".into(),
        ));
    };
    if let Some(limit) = shared.config.client_time_budget_ms {
        if opened_at.elapsed() >= Duration::from_millis(limit) {
            return RetrieveOutcome::Err(PqrError::InvalidRequest(format!(
                "client time budget ({limit} ms) exhausted"
            )));
        }
    }

    // coalescing eligibility: byte budgets change what a request fetches,
    // so budgeted requests (and budgeted connections) always run solo, as
    // do resumed sessions (independent replay engines) and progress saves
    // (a projected reply would not advance this connection's session)
    let eligible = shared.config.coalesce
        && conn.shared_store
        && req.request.budget().is_none()
        && byte_budget_left.is_none()
        && !req.save_progress;

    let gate_start = Instant::now();
    let mut round_share = None;
    if eligible {
        match join_round(shared, &conn.entry.coalescer, &req.request) {
            CoRole::Leader { round, batch } => {
                round_share = run_union(shared, &conn.entry, round, &batch);
            }
            CoRole::Shared(share) => round_share = Some(share),
            CoRole::Solo => {}
        }
    }
    // coalesced fast path: project the reply from the round's result —
    // no decode gate, no per-client execution
    if let Some(share) = &round_share {
        if let Some(mut remote) = project_reply(&req, share, &conn.entry) {
            // admission wait only: gather window + the round's permit
            // wait; the union execution itself was this request being
            // serviced (its cost is recorded once per round)
            let queue_wait_ms = share
                .granted
                .saturating_duration_since(gate_start)
                .as_millis() as u64;
            shared.stats.record_queue_wait(queue_wait_ms);
            ServeStats::inc(&shared.stats.counters.retrieves);
            remote.queue_wait_ms = queue_wait_ms;
            return RetrieveOutcome::Ok(remote.to_bytes());
        }
        // defensive: a target failed to match its round's union — run the
        // request individually through the gate instead
    }
    // the decode gate: bounded wait, then an explicit shed
    let _gate = {
        ServeStats::inc(&shared.stats.decode_inflight);
        let gauge = GaugeGuard(&shared.stats.decode_inflight);
        let wait = Duration::from_millis(shared.config.busy_wait_ms);
        let Some(_queued) = shared.permits.acquire_timeout(wait) else {
            let hint = shared.stats.busy_hint_now(
                0,
                shared.config.decode_permits.max(1) as u64,
                shared.config.retry_after_ms,
            );
            return RetrieveOutcome::Busy(hint);
        };
        (Permit(&shared.permits), gauge)
    };
    let queue_wait_ms = gate_start.elapsed().as_millis() as u64;
    shared.stats.record_queue_wait(queue_wait_ms);
    ServeStats::inc(&shared.stats.counters.retrieves);
    let session = &mut conn.session;
    let exec_start = Instant::now();

    // per-client byte budget rides the request's own budget field: the
    // effective cap is the tighter of the two, and exhaustion is a
    // partial-with-bound reply, not an error
    let effective = match (req.request.budget(), *byte_budget_left) {
        (Some(r), Some(c)) => Some(r.min(c)),
        (Some(r), None) => Some(r),
        (None, Some(c)) => Some(c),
        (None, None) => None,
    };
    let request = match effective {
        Some(b) => req.request.clone().byte_budget(b),
        None => req.request.clone(),
    };

    let report = match session.execute(&request) {
        Ok(r) => r,
        Err(e) => return RetrieveOutcome::Err(e),
    };
    if let Some(left) = byte_budget_left {
        *left = left.saturating_sub(report.bytes_fetched);
    }

    let mut values = BTreeMap::new();
    for name in &req.want_values {
        match session.qoi_values(name) {
            Ok(v) => {
                values.insert(name.clone(), v);
            }
            Err(e) => return RetrieveOutcome::Err(e),
        }
    }
    let progress = req.save_progress.then(|| session.save_progress());
    // the observed per-request service time feeds the dynamic Busy hint
    shared
        .stats
        .record_service(exec_start.elapsed().as_millis() as u64);

    let remote = RemoteReport {
        queue_wait_ms,
        values,
        progress,
        ..remote_report(&report, &report.targets.iter().collect::<Vec<_>>())
    };
    RetrieveOutcome::Ok(remote.to_bytes())
}

/// Sends a success frame or the error mapped onto an `Error` frame.
/// Returns false when the peer is unreachable.
fn send_result<B: AsRef<[u8]>>(
    stream: &mut TcpStream,
    shared: &Shared,
    ok_kind: u16,
    result: Result<B>,
) -> bool {
    match result {
        Ok(body) => send_frame(stream, shared, ok_kind, body.as_ref()),
        Err(e) => {
            ServeStats::inc(&shared.stats.counters.errors);
            send_error(stream, shared, &e)
        }
    }
}

fn send_error(stream: &mut TcpStream, shared: &Shared, e: &PqrError) -> bool {
    send_frame(stream, shared, wire::ERROR, &wire::encode_error(e))
}

fn send_frame(stream: &mut TcpStream, shared: &Shared, kind: u16, body: &[u8]) -> bool {
    match write_frame(stream, kind, body) {
        Ok(n) => {
            ServeStats::add(&shared.stats.counters.bytes_out, n as u64);
            true
        }
        Err(_) => false,
    }
}
