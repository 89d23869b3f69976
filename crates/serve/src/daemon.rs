//! The request plane: a std-only TCP daemon over the epoch store.
//!
//! No async runtime — a nonblocking accept loop hands connections to a
//! small worker pool over a channel; each worker speaks line-delimited
//! JSON (one request object in, one response object out, per line). A
//! worker does not own its connection for life: when the connection goes
//! idle (no partial request in flight) and another connection is waiting
//! in the queue, the worker rotates the idle one to the back and picks up
//! the waiter — so more clients than workers still all make progress,
//! with per-request latency degrading to the rotation granularity (the
//! read-timeout tick) instead of a starved client waiting unboundedly.
//! Queries (`whois`, `profile`, `name_group`, `stats`) are answered
//! entirely from the worker's `Arc<Snapshot>` — no lock shared with
//! ingest. Writes (`ingest`, `flush`) go to the single ingest thread over
//! a *bounded* channel: a full queue sheds instead of building unbounded
//! backlog.
//!
//! Hot-name skew is handled at admission: each `whois` holds a per-name
//! slot while it scores (the expensive path — hub name groups have many
//! candidates), and a name already at its in-flight cap gets an immediate
//! `{"ok":false,"shed":true}` instead of queueing behind the hot group.
//! Cold names never wait on a hot name's backlog, which is what bounds
//! their tail latency (pinned by
//! `tests/serve.rs::admission_sheds_carry_cause_and_retry_hint_and_backoff_recovers`).

use std::io::{BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Mutex, TryLockError};
use std::thread::JoinHandle;
use std::time::Duration;

use iuad_core::Decision;
use iuad_corpus::{NameId, Paper, PaperId, VenueId};
use iuad_graph::VertexId;
use rustc_hash::FxHashMap;
use serde::Value;

use crate::checkpoint::CheckpointMeta;
use crate::client::{response_ok, response_shed};
use crate::fault::FaultInjector;
use crate::replica::{ReplicaStatus, ReplicationHub, Role};
use crate::snapshot::EpochStore;
use crate::state::ServeState;
use crate::wal::WalRecord;
use crate::{get, object, read_capped_line, MAX_LINE_BYTES};

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Worker threads answering queries.
    pub workers: usize,
    /// Papers per ingest batch: an epoch is published after this many
    /// accepted papers (or on explicit `flush`).
    pub batch_size: usize,
    /// Per-name-group in-flight `whois` cap; requests beyond it shed.
    pub max_inflight_per_name: u32,
    /// Bound of the ingest queue; `ingest` requests shed when it is full.
    pub ingest_queue: usize,
    /// Fold the WAL into a checkpoint after every this many accepted
    /// papers (0 disables automatic compaction; `checkpoint` requests
    /// still work).
    pub checkpoint_every: u64,
    /// Fault plan for crash-matrix / stall-injection runs (`None` in
    /// production; the hooks then cost one branch each).
    pub faults: Option<Arc<FaultInjector>>,
    /// Replication hub to ship durable records to (`None` for an
    /// unreplicated primary). Attached to the state *before* the first
    /// publish, so even the startup epoch marker reaches followers.
    pub ship: Option<Arc<ReplicationHub>>,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            workers: 4,
            batch_size: 16,
            max_inflight_per_name: 2,
            ingest_queue: 64,
            checkpoint_every: 0,
            faults: None,
            ship: None,
        }
    }
}

/// Monotonic request-plane counters (relaxed atomics; exact totals are
/// read after shutdown, live reads are advisory). `queue_depth` is a
/// gauge, not a counter: the ingest requests currently queued or being
/// applied.
#[derive(Debug, Default)]
pub struct DaemonStats {
    /// Query requests received (`whois` / `profile` / `name_group`).
    pub queries: AtomicU64,
    /// Total requests shed (sum of the per-cause counters below).
    pub shed: AtomicU64,
    /// `whois` requests shed by per-name admission control.
    pub shed_admission: AtomicU64,
    /// `ingest` requests shed because the ingest queue was full.
    pub shed_ingest_full: AtomicU64,
    /// Papers accepted into the network.
    pub ingested: AtomicU64,
    /// Requests answered with an error: every `ok: false` reply that is
    /// not a shed, plus over-long lines.
    pub errors: AtomicU64,
    /// Ingest requests currently queued or being applied (gauge).
    pub queue_depth: AtomicU64,
    /// High-water mark of `queue_depth` over the daemon's lifetime.
    pub queue_hwm: AtomicU64,
    /// WAL compactions performed (automatic + requested).
    pub checkpoints: AtomicU64,
    /// Follower reads shed because replication lag exceeded
    /// `max_lag_epochs` (bounded staleness, never silent staleness).
    pub shed_replica_lag: AtomicU64,
}

/// Per-name-group admission control: a counting semaphore per name.
#[derive(Debug)]
pub(crate) struct Admission {
    max: u32,
    counts: Mutex<FxHashMap<u32, u32>>,
}

impl Admission {
    /// A fresh admission table with an in-flight cap of `max` per name
    /// (shared by [`Daemon::spawn`] and the follower's request plane).
    pub(crate) fn new(max: u32) -> Arc<Admission> {
        Arc::new(Admission {
            max: max.max(1),
            counts: Mutex::new(FxHashMap::default()),
        })
    }

    /// Acquire an in-flight slot for `name`, or report the current
    /// in-flight count (the shed response's `queue_depth`).
    fn try_acquire(self: &Arc<Admission>, name: u32) -> Result<AdmissionGuard, u32> {
        let mut counts = self.counts.lock().expect("admission table poisoned");
        let slot = counts.entry(name).or_insert(0);
        if *slot >= self.max {
            return Err(*slot);
        }
        *slot += 1;
        drop(counts);
        Ok(AdmissionGuard {
            admission: Arc::clone(self),
            name,
        })
    }
}

/// RAII release of an admission slot.
struct AdmissionGuard {
    admission: Arc<Admission>,
    name: u32,
}

impl Drop for AdmissionGuard {
    fn drop(&mut self) {
        let mut counts = self
            .admission
            .counts
            .lock()
            .expect("admission table poisoned");
        if let Some(slot) = counts.get_mut(&self.name) {
            *slot -= 1;
            if *slot == 0 {
                counts.remove(&self.name);
            }
        }
    }
}

pub(crate) enum IngestMsg {
    Paper {
        paper: Paper,
        reply: mpsc::Sender<(PaperId, Vec<(NameId, Decision)>)>,
    },
    Flush {
        reply: mpsc::Sender<u64>,
    },
    Checkpoint {
        reply: mpsc::Sender<Result<CheckpointMeta, String>>,
    },
}

/// The follower-side read context: the replica link's shared status plus
/// the staleness bound past which reads shed with cause `replica-lag`.
#[derive(Debug)]
pub(crate) struct ReplicaReadCtx {
    pub(crate) status: Arc<ReplicaStatus>,
    pub(crate) max_lag_epochs: u64,
}

/// Everything a worker needs to answer requests. Shared by the primary
/// [`Daemon`] and the follower request plane
/// ([`crate::replica::Follower`]), which differ only in the write path
/// (`ingest_tx`) and the replica read context.
pub(crate) struct WorkerCtx {
    pub(crate) store: Arc<EpochStore>,
    pub(crate) stats: Arc<DaemonStats>,
    pub(crate) admission: Arc<Admission>,
    pub(crate) shutdown: Arc<AtomicBool>,
    /// `None` on a follower: writes are refused, not forwarded — ingest
    /// belongs at the primary.
    pub(crate) ingest_tx: Option<SyncSender<IngestMsg>>,
    /// Publish batch size, for shed `retry_after_ms` estimates.
    pub(crate) batch: u64,
    /// Bound of the ingest channel, for clamping shed backlog reports.
    pub(crate) ingest_capacity: u64,
    pub(crate) faults: Option<Arc<FaultInjector>>,
    /// `"primary"` or `"follower"` (`health` / `stats` responses).
    pub(crate) role: &'static str,
    /// The primary's replication hub (`shipped_records` stat source).
    pub(crate) ship: Option<Arc<ReplicationHub>>,
    /// The follower's staleness gate; `None` on the primary.
    pub(crate) replica: Option<ReplicaReadCtx>,
}

/// The TCP request plane the primary [`Daemon`] and the follower
/// ([`crate::replica::Follower`]) both serve through: a loopback listener,
/// one accept thread, and a worker pool over one connection queue, all
/// answering with the same [`WorkerCtx`].
#[derive(Debug)]
pub(crate) struct RequestPlane {
    addr: SocketAddr,
    ctx: Arc<WorkerCtx>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl RequestPlane {
    /// Bind an ephemeral loopback port and start the accept thread plus
    /// `workers` (at least one) worker threads over `ctx`.
    pub(crate) fn spawn(ctx: WorkerCtx, workers: usize) -> std::io::Result<RequestPlane> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let ctx = Arc::new(ctx);
        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let accept = {
            let shutdown = Arc::clone(&ctx.shutdown);
            let conn_tx = conn_tx.clone();
            std::thread::spawn(move || accept_loop(&listener, &conn_tx, &shutdown))
        };
        let workers = (0..workers.max(1))
            .map(|_| {
                let conn_rx = Arc::clone(&conn_rx);
                let conn_tx = conn_tx.clone();
                let ctx = Arc::clone(&ctx);
                std::thread::spawn(move || worker_loop(&conn_rx, &conn_tx, &ctx))
            })
            .collect();
        Ok(RequestPlane {
            addr,
            ctx,
            accept,
            workers,
        })
    }

    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub(crate) fn store(&self) -> &Arc<EpochStore> {
        &self.ctx.store
    }

    pub(crate) fn stats(&self) -> &Arc<DaemonStats> {
        &self.ctx.stats
    }

    pub(crate) fn shutdown_requested(&self) -> bool {
        self.ctx.shutdown.load(Ordering::Relaxed)
    }

    /// Stop accepting, let the workers drain their in-flight requests, and
    /// join the accept thread and then every worker.
    pub(crate) fn shutdown(self) {
        self.ctx.shutdown.store(true, Ordering::Relaxed);
        let _ = self.accept.join();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// A running daemon: the request plane plus the single ingest thread.
///
/// Dropping a `Daemon` without calling [`Daemon::shutdown`] leaks the
/// threads until process exit; always shut down to reclaim the
/// [`ServeState`] (and with it, a clean WAL tail).
#[derive(Debug)]
pub struct Daemon {
    plane: RequestPlane,
    ingest: JoinHandle<ServeState>,
}

impl std::fmt::Debug for WorkerCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerCtx").finish_non_exhaustive()
    }
}

impl std::fmt::Debug for IngestMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestMsg::Paper { paper, .. } => f.debug_tuple("Paper").field(&paper.id).finish(),
            IngestMsg::Flush { .. } => f.write_str("Flush"),
            IngestMsg::Checkpoint { .. } => f.write_str("Checkpoint"),
        }
    }
}

impl Daemon {
    /// Publish epoch 1 from `state` and start serving on an ephemeral
    /// loopback port (see [`Daemon::addr`]).
    pub fn spawn(mut state: ServeState, cfg: &DaemonConfig) -> std::io::Result<Daemon> {
        if let Some(ship) = &cfg.ship {
            // Before the first publish, so the startup epoch marker ships.
            state.set_ship(Some(Arc::clone(ship)));
        }
        let (ingest_tx, ingest_rx) = mpsc::sync_channel::<IngestMsg>(cfg.ingest_queue.max(1));
        let plane = RequestPlane::spawn(
            WorkerCtx {
                store: Arc::new(EpochStore::new(state.publish())),
                stats: Arc::default(),
                admission: Admission::new(cfg.max_inflight_per_name),
                shutdown: Arc::default(),
                ingest_tx: Some(ingest_tx),
                batch: cfg.batch_size.max(1) as u64,
                ingest_capacity: cfg.ingest_queue.max(1) as u64,
                faults: cfg.faults.clone(),
                role: Role::Primary.name(),
                ship: cfg.ship.clone(),
                replica: None,
            },
            cfg.workers,
        )?;
        let ingest = {
            let store = Arc::clone(plane.store());
            let stats = Arc::clone(plane.stats());
            let batch = cfg.batch_size.max(1);
            let checkpoint_every = cfg.checkpoint_every;
            std::thread::spawn(move || {
                ingest_loop(state, &ingest_rx, &store, &stats, batch, checkpoint_every)
            })
        };
        Ok(Daemon { plane, ingest })
    }

    /// The bound loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.plane.addr()
    }

    /// The epoch store (tests read snapshots directly through it).
    pub fn store(&self) -> &Arc<EpochStore> {
        self.plane.store()
    }

    /// Request-plane counters.
    pub fn stats(&self) -> &Arc<DaemonStats> {
        self.plane.stats()
    }

    /// Whether a client requested shutdown over the protocol. A CLI owner
    /// polls this and then calls [`Daemon::shutdown`] to reclaim the state.
    pub fn shutdown_requested(&self) -> bool {
        self.plane.shutdown_requested()
    }

    /// Stop accepting, drain in-flight requests, join every thread, and
    /// hand back the live [`ServeState`]. Pending (unpublished) absorbed
    /// papers remain in the state and in the WAL; a warm restart replays
    /// them identically.
    pub fn shutdown(self) -> ServeState {
        // The plane holds the last ingest sender; once it is gone the
        // ingest loop returns the state.
        self.plane.shutdown();
        self.ingest.join().expect("ingest thread panicked")
    }
}

fn ingest_loop(
    mut state: ServeState,
    rx: &Receiver<IngestMsg>,
    store: &EpochStore,
    stats: &DaemonStats,
    batch: usize,
    checkpoint_every: u64,
) -> ServeState {
    let mut pending = 0usize;
    let mut since_checkpoint = 0u64;
    while let Ok(msg) = rx.recv() {
        match msg {
            IngestMsg::Paper { paper, reply } => {
                let result = state.ingest(paper);
                stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
                // Reply before publishing: the ingest is durable (WALed)
                // already, and the publish belongs to no one request.
                let _ = reply.send(result);
                pending += 1;
                since_checkpoint += 1;
                if pending >= batch {
                    store.publish(state.publish());
                    pending = 0;
                }
                if checkpoint_every > 0 && since_checkpoint >= checkpoint_every && state.has_wal() {
                    // Compaction failure is not fatal to serving: the WAL
                    // still has every record, so durability is intact —
                    // it only stays longer.
                    if state.checkpoint().is_ok() {
                        stats.checkpoints.fetch_add(1, Ordering::Relaxed);
                    }
                    since_checkpoint = 0;
                }
            }
            IngestMsg::Flush { reply } => {
                let epoch = store.publish(state.publish());
                pending = 0;
                let _ = reply.send(epoch);
            }
            IngestMsg::Checkpoint { reply } => {
                let result = state.checkpoint();
                if result.is_ok() {
                    stats.checkpoints.fetch_add(1, Ordering::Relaxed);
                }
                since_checkpoint = 0;
                let _ = reply.send(result);
            }
        }
    }
    state
}

fn accept_loop(listener: &TcpListener, conn_tx: &mpsc::Sender<TcpStream>, shutdown: &AtomicBool) {
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Nagle + delayed ACK would put a ~40ms floor under every
                // one-line response; this is a request/response protocol,
                // so always flush segments immediately.
                let _ = stream.set_nodelay(true);
                // The timeout keeps idle connections from pinning a worker:
                // each tick the read loop re-checks the shutdown flag and
                // offers the idle connection back to the queue if other
                // connections are waiting for a worker.
                let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
                if conn_tx.send(stream).is_err() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => break,
        }
    }
}

/// What became of a connection a worker was serving.
enum ConnState {
    /// Closed, errored, or shutting down — nothing left to serve.
    Closed,
    /// Idle between requests; may be rotated back into the queue.
    Idle(TcpStream),
}

/// Worker body: serve connections off the shared queue, rotating an idle
/// connection to the back whenever another one is waiting, so clients
/// beyond the worker count are multiplexed instead of starved.
fn worker_loop(
    conn_rx: &Mutex<Receiver<TcpStream>>,
    conn_tx: &mpsc::Sender<TcpStream>,
    ctx: &WorkerCtx,
) {
    let mut current: Option<TcpStream> = None;
    loop {
        let stream = match current.take() {
            Some(stream) => stream,
            None => {
                // recv with a timeout: the workers themselves hold sender
                // clones (for rotation), so disconnection alone can't end
                // the loop — the shutdown flag has to.
                let next = conn_rx
                    .lock()
                    .expect("connection queue poisoned")
                    .recv_timeout(Duration::from_millis(100));
                match next {
                    Ok(stream) => stream,
                    Err(RecvTimeoutError::Timeout) => {
                        if ctx.shutdown.load(Ordering::Relaxed) {
                            break;
                        }
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        };
        match serve_connection(stream, ctx) {
            ConnState::Closed => {}
            ConnState::Idle(stream) => {
                // `try_lock`, not `lock`: the idle workers re-take this
                // mutex after every `recv_timeout`, so blocking on it here
                // can starve this worker and leave its connection unread.
                // A worker only holds the lock inside `recv` while the
                // queue is empty, so "busy" means nobody is waiting.
                let waiting = match conn_rx.try_lock() {
                    Ok(rx) => rx.try_recv(),
                    Err(TryLockError::WouldBlock) => Err(TryRecvError::Empty),
                    Err(TryLockError::Poisoned(_)) => panic!("connection queue poisoned"),
                };
                match waiting {
                    // Someone is waiting: rotate the idle connection to
                    // the back of the queue and serve the waiter.
                    Ok(next) => {
                        let _ = conn_tx.send(stream);
                        current = Some(next);
                    }
                    Err(TryRecvError::Empty) => current = Some(stream),
                    Err(TryRecvError::Disconnected) => break,
                }
            }
        }
    }
}

fn serve_connection(stream: TcpStream, ctx: &WorkerCtx) -> ConnState {
    let Ok(read_half) = stream.try_clone() else {
        return ConnState::Closed;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line: Vec<u8> = Vec::new();
    loop {
        if ctx.shutdown.load(Ordering::Relaxed) {
            return ConnState::Closed;
        }
        match read_capped_line(&mut reader, &mut line) {
            Ok(0) => return ConnState::Closed,
            Ok(_) => {
                let response = match std::str::from_utf8(&line).map(str::trim) {
                    Ok("") => None,
                    Ok(request) => Some(handle_request(request, ctx)),
                    Err(_) => Some(err_response("request is not UTF-8")),
                };
                line.clear();
                if let Some(response) = response {
                    // Every refusal that is not a shed counts, whichever
                    // handler refused.
                    if !response_ok(&response) && !response_shed(&response) {
                        ctx.stats.errors.fetch_add(1, Ordering::Relaxed);
                    }
                    let Ok(json) = serde_json::to_string(&response) else {
                        return ConnState::Closed;
                    };
                    if writeln!(writer, "{json}").is_err() {
                        return ConnState::Closed;
                    }
                }
            }
            // Partial bytes read before the timeout stay in `line`; the
            // retry appends the rest of the request to them. Only a fully
            // idle connection — no partial line, nothing buffered — is
            // eligible for rotation (dropping the reader mid-request
            // would lose the buffered bytes).
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if line.is_empty() && reader.buffer().is_empty() {
                    return ConnState::Idle(writer);
                }
            }
            // A line past the cap is refused before it is buffered, and
            // the connection dropped.
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                ctx.stats.errors.fetch_add(1, Ordering::Relaxed);
                if let Ok(json) = serde_json::to_string(&err_response(&e.to_string())) {
                    let _ = writeln!(writer, "{json}");
                }
                return ConnState::Closed;
            }
            Err(_) => return ConnState::Closed,
        }
    }
}

fn handle_request(line: &str, ctx: &WorkerCtx) -> Value {
    let Ok(request) = serde_json::from_str::<Value>(line) else {
        return err_response("malformed request");
    };
    if request.as_object().is_none() {
        return err_response("request must be an object");
    }
    match get::<String>(&request, "op").as_deref() {
        Ok("whois") => whois(&request, ctx),
        Ok("profile") => profile(&request, ctx),
        Ok("name_group") => name_group(&request, ctx),
        Ok("ingest") => ingest(&request, ctx),
        Ok("flush") => flush(ctx),
        Ok("checkpoint") => checkpoint(ctx),
        Ok("stats") => stats(ctx),
        Ok("health") => health(ctx),
        Ok("shutdown") => {
            ctx.shutdown.store(true, Ordering::Relaxed);
            object(vec![("ok", Value::Bool(true))])
        }
        _ => err_response("unknown or missing op"),
    }
}

/// The paper a `whois` or `ingest` request describes: `authors` plus the
/// request's optional `title`, `venue` and `year`.
fn request_paper(request: &Value, id: PaperId, authors: Vec<NameId>) -> Paper {
    Paper {
        id,
        authors,
        title: get(request, "title").unwrap_or_default(),
        venue: VenueId(get::<u64>(request, "venue").unwrap_or(0) as u32),
        year: get::<u64>(request, "year").unwrap_or(2000) as u16,
    }
}

fn whois(request: &Value, ctx: &WorkerCtx) -> Value {
    ctx.stats.queries.fetch_add(1, Ordering::Relaxed);
    let staleness = match replica_gate(ctx) {
        Ok(staleness) => staleness,
        Err(shed) => return shed,
    };
    let Ok(name) = get::<u64>(request, "name") else {
        return err_response("whois requires a numeric `name`");
    };
    let name = name as u32;
    let _guard = match ctx.admission.try_acquire(name) {
        Ok(guard) => guard,
        Err(inflight) => {
            ctx.stats.shed.fetch_add(1, Ordering::Relaxed);
            ctx.stats.shed_admission.fetch_add(1, Ordering::Relaxed);
            let retry_after_ms = retry_after_admission(u64::from(inflight));
            return shed_response("admission", retry_after_ms, u64::from(inflight));
        }
    };
    if let Some(faults) = &ctx.faults {
        // Injected slow-handler stall (holds the admission slot, which is
        // what makes admission sheds reproducible under test).
        if let Some(stall) = faults.whois_stall() {
            std::thread::sleep(stall);
        }
    }
    let mut authors = vec![NameId(name)];
    if let Ok(coauthors) = get::<Vec<u32>>(request, "coauthors") {
        authors.extend(coauthors.into_iter().map(NameId));
    }
    // The paper is transient — never registered — so the dummy id is fine:
    // the query path derives evidence from the paper itself, not from the
    // per-paper context tables.
    let paper = request_paper(request, PaperId(u32::MAX), authors);
    let snapshot = ctx.store.load();
    let decision = snapshot.whois(&paper, 0);
    decision_fields(snapshot.epoch, staleness, &decision)
}

fn profile(request: &Value, ctx: &WorkerCtx) -> Value {
    ctx.stats.queries.fetch_add(1, Ordering::Relaxed);
    let staleness = match replica_gate(ctx) {
        Ok(staleness) => staleness,
        Err(shed) => return shed,
    };
    let Ok(vertex) = get::<u64>(request, "vertex") else {
        return err_response("profile requires a numeric `vertex`");
    };
    let snapshot = ctx.store.load();
    match snapshot.profile(VertexId(vertex as u32)) {
        Some(view) => object(vec![
            ("ok", Value::Bool(true)),
            ("epoch", Value::U64(snapshot.epoch)),
            ("staleness", Value::U64(staleness)),
            ("name", Value::U64(u64::from(view.name.0))),
            ("mentions", Value::U64(view.mentions as u64)),
            ("papers", Value::U64(view.papers as u64)),
            (
                "collaborators",
                Value::Array(
                    view.collaborators
                        .iter()
                        .map(|v| Value::U64(u64::from(v.0)))
                        .collect(),
                ),
            ),
        ]),
        None => err_response("vertex out of range"),
    }
}

fn name_group(request: &Value, ctx: &WorkerCtx) -> Value {
    ctx.stats.queries.fetch_add(1, Ordering::Relaxed);
    let staleness = match replica_gate(ctx) {
        Ok(staleness) => staleness,
        Err(shed) => return shed,
    };
    let Ok(name) = get::<u64>(request, "name") else {
        return err_response("name_group requires a numeric `name`");
    };
    let snapshot = ctx.store.load();
    let vertices = snapshot
        .name_group(NameId(name as u32))
        .iter()
        .map(|v| Value::U64(u64::from(v.0)))
        .collect();
    object(vec![
        ("ok", Value::Bool(true)),
        ("epoch", Value::U64(snapshot.epoch)),
        ("staleness", Value::U64(staleness)),
        ("vertices", Value::Array(vertices)),
    ])
}

fn ingest(request: &Value, ctx: &WorkerCtx) -> Value {
    let Some(ingest_tx) = &ctx.ingest_tx else {
        return err_response("read-only replica: ingest at the primary");
    };
    let Ok(authors) = get::<Vec<u32>>(request, "authors") else {
        return err_response("ingest requires an `authors` array");
    };
    if authors.is_empty() {
        return err_response("ingest requires a non-empty `authors` array");
    }
    // The id is rewritten by the ingest thread.
    let authors = authors.into_iter().map(NameId).collect();
    let paper = request_paper(request, PaperId(0), authors);
    if WalRecord::widest_frame_len(&paper) > MAX_LINE_BYTES {
        return err_response(&format!(
            "paper too large: its logged record could pass {MAX_LINE_BYTES} bytes"
        ));
    }
    let (reply_tx, reply_rx) = mpsc::channel();
    // Gauge before the send so the ingest thread's decrement can never
    // observe the message before the increment (the gauge may transiently
    // over-count by in-flight sends, never under-count).
    let depth = ctx.stats.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
    ctx.stats.queue_hwm.fetch_max(depth, Ordering::Relaxed);
    match ingest_tx.try_send(IngestMsg::Paper {
        paper,
        reply: reply_tx,
    }) {
        Ok(()) => {}
        Err(TrySendError::Full(_)) => {
            ctx.stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
            ctx.stats.shed.fetch_add(1, Ordering::Relaxed);
            ctx.stats.shed_ingest_full.fetch_add(1, Ordering::Relaxed);
            let backlog = shed_ingest_backlog(depth - 1, ctx.ingest_capacity);
            return shed_response(
                "ingest-queue-full",
                retry_after_ingest(backlog, ctx.batch),
                backlog,
            );
        }
        Err(TrySendError::Disconnected(_)) => {
            ctx.stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
            return err_response("ingest unavailable");
        }
    }
    match reply_rx.recv() {
        Ok((id, decisions)) => {
            ctx.stats.ingested.fetch_add(1, Ordering::Relaxed);
            let rendered = decisions
                .iter()
                .map(|(name, d)| {
                    let mut entry = vec![("name", Value::U64(u64::from(name.0)))];
                    entry.extend(decision_kind_fields(d));
                    object(entry)
                })
                .collect();
            object(vec![
                ("ok", Value::Bool(true)),
                ("paper", Value::U64(u64::from(id.0))),
                ("decisions", Value::Array(rendered)),
            ])
        }
        Err(_) => err_response("ingest thread unavailable"),
    }
}

fn flush(ctx: &WorkerCtx) -> Value {
    let Some(ingest_tx) = &ctx.ingest_tx else {
        return err_response("read-only replica: flush at the primary");
    };
    let (reply_tx, reply_rx) = mpsc::channel();
    if ingest_tx
        .send(IngestMsg::Flush { reply: reply_tx })
        .is_err()
    {
        return err_response("ingest unavailable");
    }
    match reply_rx.recv() {
        Ok(epoch) => object(vec![
            ("ok", Value::Bool(true)),
            ("epoch", Value::U64(epoch)),
        ]),
        Err(_) => err_response("ingest thread unavailable"),
    }
}

fn checkpoint(ctx: &WorkerCtx) -> Value {
    let Some(ingest_tx) = &ctx.ingest_tx else {
        return err_response("read-only replica: checkpoint at the primary");
    };
    let (reply_tx, reply_rx) = mpsc::channel();
    if ingest_tx
        .send(IngestMsg::Checkpoint { reply: reply_tx })
        .is_err()
    {
        return err_response("ingest unavailable");
    }
    match reply_rx.recv() {
        Ok(Ok(meta)) => object(vec![
            ("ok", Value::Bool(true)),
            ("seq", Value::U64(meta.seq)),
            ("epoch", Value::U64(meta.epoch)),
            ("records", Value::U64(meta.records)),
        ]),
        Ok(Err(e)) => err_response(&e),
        Err(_) => err_response("ingest thread unavailable"),
    }
}

fn stats(ctx: &WorkerCtx) -> Value {
    let snapshot = ctx.store.load();
    let held = ctx
        .store
        .epochs_still_held()
        .into_iter()
        .map(Value::U64)
        .collect();
    let s = &ctx.stats;
    let counters = [
        ("queries", &s.queries),
        ("shed", &s.shed),
        ("shed_admission", &s.shed_admission),
        ("shed_ingest_full", &s.shed_ingest_full),
        ("ingested", &s.ingested),
        ("errors", &s.errors),
        ("queue_depth", &s.queue_depth),
        ("queue_hwm", &s.queue_hwm),
        ("checkpoints", &s.checkpoints),
        ("shed_replica_lag", &s.shed_replica_lag),
    ]
    .map(|(key, counter)| (key, Value::U64(counter.load(Ordering::Relaxed))));
    let shipped = ctx.ship.as_ref().map_or(0, |ship| ship.shipped_frames());
    let lag = ctx.replica.as_ref().map_or(0, |r| r.status.lag_epochs());
    let head = [
        ("ok", Value::Bool(true)),
        ("role", Value::Str(ctx.role.to_owned())),
        ("epoch", Value::U64(snapshot.epoch)),
    ];
    let tail = [
        ("shipped_records", Value::U64(shipped)),
        ("replica_lag_epochs", Value::U64(lag)),
        ("retained_epochs", Value::Array(held)),
    ];
    object(head.into_iter().chain(counters).chain(tail))
}

fn decision_fields(epoch: u64, staleness: u64, decision: &Decision) -> Value {
    let mut fields = vec![
        ("ok", Value::Bool(true)),
        ("epoch", Value::U64(epoch)),
        ("staleness", Value::U64(staleness)),
    ];
    fields.extend(decision_kind_fields(decision));
    object(fields)
}

fn decision_kind_fields(decision: &Decision) -> Vec<(&'static str, Value)> {
    match *decision {
        Decision::Existing { vertex, score } => vec![
            ("decision", Value::Str("existing".to_owned())),
            ("vertex", Value::U64(u64::from(vertex.0))),
            ("score", Value::F64(score)),
        ],
        Decision::NewAuthor { best_score } => {
            let mut fields = vec![("decision", Value::Str("new".to_owned()))];
            if let Some(score) = best_score {
                fields.push(("score", Value::F64(score)));
            }
            fields
        }
    }
}

fn err_response(message: &str) -> Value {
    object(vec![
        ("ok", Value::Bool(false)),
        ("error", Value::Str(message.to_owned())),
    ])
}

/// Deterministic retry hint for a full ingest queue: ~2ms of apply time
/// per queued paper, plus ~8ms of publish time per batch boundary the
/// backlog will cross. Both constants are intentionally round — the hint
/// is a pacing signal for well-behaved clients, not a latency model.
fn retry_after_ingest(depth: u64, batch: u64) -> u64 {
    2 * depth + 8 * (depth / batch.max(1) + 1)
}

/// Deterministic retry hint for an admission shed: ~2ms of scoring time
/// per request already in flight for the name (the same per-item constant
/// as [`retry_after_ingest`]), floored at one slot's worth so a hint is
/// never 0. Sized from the *observed* in-flight count, not the configured
/// cap — a name at twice its cap (transiently possible only through
/// reconfiguration) waits proportionally longer.
fn retry_after_admission(inflight: u64) -> u64 {
    (2 * inflight).max(2)
}

/// Deterministic retry hint for a `replica-lag` shed: ~8ms of publish
/// cadence per epoch the follower is behind (the publish-interval
/// constant from [`retry_after_ingest`]), floored at one epoch's worth.
fn retry_after_replica(lag: u64) -> u64 {
    (8 * lag).max(8)
}

/// The bounded-staleness gate every read passes through. On the primary
/// (no replica context) staleness is 0 by definition. On a follower, a
/// lag within `max_lag_epochs` is *reported* (the `staleness` response
/// field); a lag beyond it is *refused* with cause `replica-lag` — the
/// bound converts silent staleness into an explicit, retryable shed.
fn replica_gate(ctx: &WorkerCtx) -> Result<u64, Value> {
    let Some(replica) = &ctx.replica else {
        return Ok(0);
    };
    let lag = replica.status.lag_epochs();
    if lag > replica.max_lag_epochs {
        ctx.stats.shed.fetch_add(1, Ordering::Relaxed);
        ctx.stats.shed_replica_lag.fetch_add(1, Ordering::Relaxed);
        return Err(shed_response("replica-lag", retry_after_replica(lag), lag));
    }
    Ok(lag)
}

/// The `health` op: role, served epoch, and replication position. A
/// follower whose link hit a non-recoverable failure (a stream gap)
/// reports `ok:false` so failover clients demote it immediately instead
/// of reading ever-staler snapshots until the lag bound trips.
fn health(ctx: &WorkerCtx) -> Value {
    let snapshot = ctx.store.load();
    let status = ctx.replica.as_ref().map(|replica| &replica.status);
    let failure = status.and_then(|s| s.failure());
    let (primary_epoch, lag, connected) = status.map_or((snapshot.epoch, 0, true), |s| {
        (s.primary_epoch(), s.lag_epochs(), s.connected())
    });
    let mut response = vec![
        ("ok", Value::Bool(failure.is_none())),
        ("role", Value::Str(ctx.role.to_owned())),
        ("epoch", Value::U64(snapshot.epoch)),
        ("primary_epoch", Value::U64(primary_epoch)),
        ("lag_epochs", Value::U64(lag)),
        ("connected", Value::Bool(connected)),
    ];
    response.extend(failure.map(|failure| ("error", Value::Str(failure))));
    object(response)
}

/// The backlog a shed ingest reports. The relaxed `queue_depth` gauge is
/// incremented *before* `try_send` (so the ingest thread's decrement can
/// never observe a message before its increment), which means concurrent
/// senders racing into a full queue each read a gauge transiently inflated
/// past the channel bound. The queue itself never holds more than
/// `capacity` papers, so both the reported depth and the pacing hint
/// derived from it clamp to the configured capacity.
fn shed_ingest_backlog(gauge_depth: u64, capacity: u64) -> u64 {
    gauge_depth.min(capacity)
}

/// A shed response: `cause` is `"admission"` or `"ingest-queue-full"`,
/// `retry_after_ms` is a deterministic pacing hint, and `queue_depth` is
/// the backlog the request would have joined (in-flight whois count for
/// admission, queued papers for ingest).
fn shed_response(cause: &str, retry_after_ms: u64, queue_depth: u64) -> Value {
    object(vec![
        ("ok", Value::Bool(false)),
        ("shed", Value::Bool(true)),
        ("cause", Value::Str(cause.to_owned())),
        ("retry_after_ms", Value::U64(retry_after_ms)),
        ("queue_depth", Value::U64(queue_depth)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_caps_per_name_and_releases_on_drop() {
        let admission = Arc::new(Admission {
            max: 2,
            counts: Mutex::new(FxHashMap::default()),
        });
        let first = admission.try_acquire(7).expect("slot 1");
        let second = admission.try_acquire(7).expect("slot 2");
        assert_eq!(
            admission.try_acquire(7).map(|_| ()).unwrap_err(),
            2,
            "cap is per name, and the rejection reports the in-flight count"
        );
        let other = admission.try_acquire(9).expect("other names unaffected");
        drop(second);
        let third = admission.try_acquire(7).expect("slot freed on drop");
        drop((first, third, other));
        assert!(
            admission.counts.lock().unwrap().is_empty(),
            "fully released names leave no table entries"
        );
    }

    #[test]
    fn admission_retry_hint_scales_with_observed_inflight() {
        // The hint derives from the *observed* in-flight count (~2ms of
        // scoring per request ahead), floored at one slot's worth — it
        // must never read the configured permit cap, whose unit is a
        // count, not milliseconds.
        assert_eq!(retry_after_admission(0), 2);
        assert_eq!(retry_after_admission(1), 2);
        assert_eq!(retry_after_admission(2), 4);
        assert_eq!(retry_after_admission(5), 10);
        // Monotone: a deeper in-flight pile never shortens the hint.
        for inflight in 0..64 {
            assert!(retry_after_admission(inflight + 1) >= retry_after_admission(inflight));
        }
    }

    #[test]
    fn replica_lag_retry_hint_scales_with_lag() {
        assert_eq!(retry_after_replica(0), 8);
        assert_eq!(retry_after_replica(1), 8);
        assert_eq!(retry_after_replica(3), 24);
    }

    #[test]
    fn shed_backlog_clamps_gauge_to_capacity() {
        // In-bound depths pass through untouched...
        assert_eq!(shed_ingest_backlog(0, 64), 0);
        assert_eq!(shed_ingest_backlog(63, 64), 63);
        assert_eq!(shed_ingest_backlog(64, 64), 64);
        // ...while gauge readings inflated by concurrent in-flight sends
        // clamp to the channel bound.
        assert_eq!(shed_ingest_backlog(65, 64), 64);
        assert_eq!(shed_ingest_backlog(1000, 64), 64);
        // The pacing hint is monotone in the backlog, so clamping the
        // input also caps the hint at the full-queue value.
        assert_eq!(
            retry_after_ingest(shed_ingest_backlog(1000, 64), 16),
            retry_after_ingest(64, 16)
        );
    }
}
