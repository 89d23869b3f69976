//! Replication: a primary ships its WAL to read-only followers.
//!
//! The primary's durable stream — paper records with their recorded
//! decisions, plus epoch-publish markers — is exactly what rebuilds its
//! state bit for bit (that is what [`crate::ServeState::replay`] and the
//! crash matrix prove). So replication is WAL shipping: a
//! [`ReplicationHub`] holds the full durable history (seeded from
//! [`crate::ServeState::durable_history`], appended to only *after* each
//! WAL append returns), a [`ReplicationServer`] streams it to any number
//! of followers over length-prefixed TCP frames (the WAL's own
//! `LEN<TAB>JSON\n` framing), and each follower's [`ReplicaLink`] applies
//! the records one at a time through [`crate::ServeState::apply_record`]
//! — the same resume/gap semantics as recovery, so a reconnect resumes
//! idempotently and a gap is refused, never papered over.
//!
//! The **cursor handshake** makes reconnects exact: a follower's cursor is
//! `papers_ingested + epoch` — the number of WAL records its state
//! embodies, *derived* from the state rather than tracked separately, so
//! there is no torn-cursor crash window. Because every checkpoint folds
//! its predecessor, the hub's history always starts at record 0 and any
//! cursor ≤ the hub's length can be served; a cursor *ahead* of the hub is
//! refused (the follower knows records the primary does not — a split
//! brain, not a resume).
//!
//! The **consistency contract**: a follower serves the primary's durable
//! prefix, never ahead of the primary's fsync horizon (records reach the
//! hub only after the WAL append returns) and never at an epoch the
//! primary did not publish (epoch snapshots are produced only by applying
//! the primary's own epoch markers). Staleness is bounded, not hidden:
//! every follower response is stamped with its lag, and a follower past
//! `max_lag_epochs` sheds reads with cause `replica-lag` instead of
//! serving unboundedly stale answers (see [`crate::daemon`]).
//!
//! Faults are first-class, exactly as in [`crate::crash`]: the replica
//! matrix ([`run_replica_matrix`], `make serve-replica`) injects a torn
//! ship frame, follower kills before and after an apply, a seeded link
//! partition, and wholesale primary death, and pins the follower
//! bit-identical to the primary's durable prefix at every one.

use std::collections::VecDeque;
use std::io::{BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use iuad_corpus::Paper;
use serde::{Deserialize, Serialize};

use crate::daemon::{Admission, DaemonStats, ReplicaReadCtx, RequestPlane, WorkerCtx};
use crate::fault::{splitmix, CrashPoint, FaultInjector, SimulatedCrash};
use crate::read_capped_line;
use crate::snapshot::EpochStore;
use crate::state::{RecordOutcome, ServeState};
use crate::wal::{frame, unframe, Wal, WalRecord};

/// Which side of the replication stream a daemon is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Owns the WAL, accepts ingest, ships records to followers.
    Primary,
    /// Replays the shipped stream, serves read-only queries.
    Follower,
}

impl Role {
    /// Stable lowercase name (CLI flag values, `health` responses).
    pub fn name(self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Follower => "follower",
        }
    }

    /// Parse a [`Role::name`] string.
    pub fn parse(s: &str) -> Option<Role> {
        match s {
            "primary" => Some(Role::Primary),
            "follower" => Some(Role::Follower),
            _ => None,
        }
    }
}

/// A replication handshake frame. The vendored `serde_derive` supports
/// structs only, so one tagged struct covers all three shapes: the
/// follower's `t == "sync"` (cursor = records its state already embodies),
/// the primary's `t == "hello"` acceptance (echoed cursor + current
/// epoch), and the primary's `t == "refused"` rejection (reason in
/// `error`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyncFrame {
    /// `"sync"`, `"hello"`, or `"refused"`.
    pub t: String,
    /// Resume cursor (records already embodied / accepted from).
    pub cursor: Option<u64>,
    /// Sender's current epoch.
    pub epoch: Option<u64>,
    /// Refusal reason, for `t == "refused"`.
    pub error: Option<String>,
}

impl SyncFrame {
    /// A follower's resume request.
    pub fn sync(cursor: u64, epoch: u64) -> SyncFrame {
        SyncFrame {
            t: "sync".to_owned(),
            cursor: Some(cursor),
            epoch: Some(epoch),
            error: None,
        }
    }

    /// The primary's acceptance.
    pub fn hello(cursor: u64, epoch: u64) -> SyncFrame {
        SyncFrame {
            t: "hello".to_owned(),
            cursor: Some(cursor),
            epoch: Some(epoch),
            error: None,
        }
    }

    /// The primary's rejection.
    pub fn refused(reason: &str) -> SyncFrame {
        SyncFrame {
            t: "refused".to_owned(),
            cursor: None,
            epoch: None,
            error: Some(reason.to_owned()),
        }
    }
}

fn invalid(message: &str) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, message.to_owned())
}

/// What one framed read produced.
enum FrameRead<T> {
    /// A complete, validated frame.
    Frame(T),
    /// The socket read timed out; any partial bytes stay buffered in the
    /// caller's accumulator for the next attempt.
    TimedOut,
    /// Clean end of stream (peer closed between frames).
    Closed,
}

/// Read one frame, preserving partial bytes across read timeouts. `buf`
/// is the caller's accumulator and must persist between calls: a timeout
/// mid-frame leaves the prefix in `buf`, and the next call appends the
/// rest. A frame [`unframe`] rejects — torn ship, EOF mid-frame, bad
/// UTF-8 or JSON — is an [`ErrorKind::InvalidData`] error (drop the
/// connection; the cursor handshake resyncs, mirroring how WAL replay
/// drops a torn tail), and so is a frame past [`crate::MAX_LINE_BYTES`],
/// which is never buffered beyond one byte over the cap.
fn read_frame<T: Deserialize>(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
) -> std::io::Result<FrameRead<T>> {
    match read_capped_line(reader, buf) {
        Ok(0) if buf.is_empty() => Ok(FrameRead::Closed),
        Ok(_) => {
            let parsed = unframe(buf).map_err(|e| invalid(&e))?;
            buf.clear();
            Ok(FrameRead::Frame(parsed))
        }
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            Ok(FrameRead::TimedOut)
        }
        Err(e) => Err(e),
    }
}

/// Write one frame (sockets are unbuffered; `write_all` is the flush).
fn send<T: Serialize>(writer: &mut TcpStream, value: &T) -> std::io::Result<()> {
    writer.write_all(&frame(value)?)
}

struct HubState {
    /// The full durable history, from record 0 (checkpoints fold their
    /// predecessors, so the seed really is complete).
    records: Vec<WalRecord>,
    /// Highest epoch marker in `records`.
    epoch: u64,
    /// Set on primary shutdown; senders drain and exit.
    closed: bool,
    /// Injected network partition: refuse handshakes until this instant.
    partition_until: Option<Instant>,
}

/// The primary-side record buffer senders stream from. Seeded with the
/// full durable history and appended to by [`crate::ServeState`] only
/// *after* each WAL append returns — which is the whole consistency
/// contract: a follower can never observe a record ahead of the primary's
/// durable horizon.
#[derive(Debug)]
pub struct ReplicationHub {
    state: Mutex<HubState>,
    bell: Condvar,
    shipped: AtomicU64,
}

impl std::fmt::Debug for HubState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HubState")
            .field("records", &self.records.len())
            .field("epoch", &self.epoch)
            .field("closed", &self.closed)
            .finish_non_exhaustive()
    }
}

/// What a sender gets for a cursor position.
enum Batch {
    /// Records from the cursor onward (bounded chunk).
    Records(Vec<WalRecord>),
    /// Nothing new within the wait; keep the follower's epoch view fresh.
    Heartbeat(u64),
    /// The hub is closed and drained; the sender should exit.
    Closed,
}

/// Most records a sender pulls per wakeup (bounds the clone while the
/// lock is held; senders loop, so throughput is unaffected).
const SHIP_CHUNK: usize = 64;

impl ReplicationHub {
    /// Seed a hub with the primary's durable history (see
    /// [`crate::ServeState::durable_history`]).
    pub fn new(history: Vec<WalRecord>) -> Arc<ReplicationHub> {
        let epoch = history
            .iter()
            .filter(|r| r.t == "epoch")
            .filter_map(|r| r.epoch)
            .max()
            .unwrap_or(0);
        Arc::new(ReplicationHub {
            state: Mutex::new(HubState {
                records: history,
                epoch,
                closed: false,
                partition_until: None,
            }),
            bell: Condvar::new(),
            shipped: AtomicU64::new(0),
        })
    }

    /// Offer one durably-logged record to connected followers. Called by
    /// the primary's ingest path strictly after the WAL append returned.
    pub fn append(&self, record: WalRecord) {
        let mut state = self.state.lock().expect("replication hub poisoned");
        if record.t == "epoch" {
            if let Some(epoch) = record.epoch {
                state.epoch = state.epoch.max(epoch);
            }
        }
        state.records.push(record);
        drop(state);
        self.bell.notify_all();
    }

    /// Number of records in the history (the highest servable cursor).
    pub fn cursor(&self) -> u64 {
        self.state
            .lock()
            .expect("replication hub poisoned")
            .records
            .len() as u64
    }

    /// Highest epoch marker appended so far.
    pub fn epoch(&self) -> u64 {
        self.state.lock().expect("replication hub poisoned").epoch
    }

    /// Close the hub: senders drain and exit, handshakes are refused. A
    /// restarted primary builds a fresh hub from its recovered history.
    pub fn close(&self) {
        self.state.lock().expect("replication hub poisoned").closed = true;
        self.bell.notify_all();
    }

    /// Total record frames shipped across all senders (heartbeats and
    /// handshakes excluded) — the `shipped_records` stat.
    pub fn shipped_frames(&self) -> u64 {
        self.shipped.load(Ordering::Relaxed)
    }

    fn note_shipped(&self) {
        self.shipped.fetch_add(1, Ordering::Relaxed);
    }

    /// Refuse handshakes for `window` (injected network partition).
    pub(crate) fn partition_for(&self, window: Duration) {
        self.state
            .lock()
            .expect("replication hub poisoned")
            .partition_until = Some(Instant::now() + window);
    }

    /// Whether an injected partition window is still open.
    pub fn partitioned(&self) -> bool {
        let state = self.state.lock().expect("replication hub poisoned");
        matches!(state.partition_until, Some(until) if Instant::now() < until)
    }

    fn closed(&self) -> bool {
        self.state.lock().expect("replication hub poisoned").closed
    }

    fn next_batch(&self, cursor: u64, wait: Duration) -> Batch {
        let state = self.state.lock().expect("replication hub poisoned");
        let take = |state: &HubState| -> Option<Batch> {
            let at = cursor as usize;
            if at < state.records.len() {
                let end = state.records.len().min(at + SHIP_CHUNK);
                return Some(Batch::Records(state.records[at..end].to_vec()));
            }
            state.closed.then_some(Batch::Closed)
        };
        if let Some(batch) = take(&state) {
            return batch;
        }
        let (state, _) = self
            .bell
            .wait_timeout(state, wait)
            .expect("replication hub poisoned");
        take(&state).unwrap_or(Batch::Heartbeat(state.epoch))
    }
}

/// The primary-side TCP endpoint followers connect to. Accepts on an
/// ephemeral loopback port; each connection gets a detached sender thread
/// that performs the cursor handshake and then streams records (with
/// heartbeats across idle stretches). Senders exit when the hub closes,
/// the connection drops, or an injected fault kills the link.
#[derive(Debug)]
pub struct ReplicationServer {
    addr: SocketAddr,
    hub: Arc<ReplicationHub>,
    stop: Arc<AtomicBool>,
    accept: JoinHandle<()>,
}

impl ReplicationServer {
    /// Bind and start accepting follower connections.
    pub fn spawn(
        hub: Arc<ReplicationHub>,
        faults: Option<Arc<FaultInjector>>,
    ) -> std::io::Result<ReplicationServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let hub = Arc::clone(&hub);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let hub = Arc::clone(&hub);
                            let stop = Arc::clone(&stop);
                            let faults = faults.clone();
                            std::thread::spawn(move || sender(stream, &hub, &stop, faults));
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => break,
                    }
                }
            })
        };
        Ok(ReplicationServer {
            addr,
            hub,
            stop,
            accept,
        })
    }

    /// The bound loopback address (`--replicate-from` target).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, close the hub (draining senders), and join the
    /// accept thread. Sender threads exit on their next wakeup.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.hub.close();
        let _ = self.accept.join();
    }
}

/// One follower connection's sender loop: handshake, then stream.
fn sender(
    stream: TcpStream,
    hub: &ReplicationHub,
    stop: &AtomicBool,
    faults: Option<Arc<FaultInjector>>,
) {
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_millis(2000)))
        .ok();
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut buf = Vec::new();
    let sync: SyncFrame = match read_frame(&mut reader, &mut buf) {
        Ok(FrameRead::Frame(sync)) => sync,
        Err(e) if e.kind() == ErrorKind::InvalidData => {
            let _ = send(&mut writer, &SyncFrame::refused(&e.to_string()));
            return;
        }
        _ => return,
    };
    if sync.t != "sync" {
        return;
    }
    let mut cursor = sync.cursor.unwrap_or(0);
    if hub.partitioned() {
        let _ = send(&mut writer, &SyncFrame::refused("link partitioned"));
        return;
    }
    if hub.closed() {
        let _ = send(&mut writer, &SyncFrame::refused("primary shutting down"));
        return;
    }
    if cursor > hub.cursor() {
        // The follower's state embodies records this hub has never seen —
        // that is a gap (split brain / wrong primary), not a resume.
        let _ = send(
            &mut writer,
            &SyncFrame::refused("cursor ahead of the primary's history"),
        );
        return;
    }
    if send(&mut writer, &SyncFrame::hello(cursor, hub.epoch())).is_err() {
        return;
    }
    while !stop.load(Ordering::Relaxed) {
        match hub.next_batch(cursor, Duration::from_millis(50)) {
            Batch::Closed => return,
            Batch::Heartbeat(epoch) => {
                if send(&mut writer, &WalRecord::heartbeat(epoch)).is_err() {
                    return;
                }
            }
            Batch::Records(records) => {
                // Advertise the primary's live horizon ahead of the chunk:
                // a follower grinding through a backlog learns how far
                // behind it is *now*, not when it finally drains — which
                // is what lets the bounded-staleness gate trip while the
                // records are still in flight.
                if send(&mut writer, &WalRecord::heartbeat(hub.epoch())).is_err() {
                    return;
                }
                for record in records {
                    let Ok(bytes) = frame(&record) else { return };
                    if let Some(faults) = &faults {
                        if faults.hit(CrashPoint::MidShipFrame) {
                            // Torn ship: a seeded prefix of the frame
                            // reaches the follower, then the link dies.
                            // The follower must detect the tear, drop it,
                            // and resync via the cursor handshake.
                            let cut = faults.torn_prefix(bytes.len());
                            let _ = writer.write_all(&bytes[..cut]);
                            return;
                        }
                        if faults.hit(CrashPoint::LinkPartition) {
                            // Drop the link and slam the door: handshakes
                            // are refused for a seeded window, so the
                            // follower provably retries into the
                            // partition before getting back in.
                            hub.partition_for(faults.partition_duration());
                            return;
                        }
                    }
                    if writer.write_all(&bytes).is_err() {
                        return;
                    }
                    cursor += 1;
                    hub.note_shipped();
                }
            }
        }
    }
}

/// Observable state of one follower's replication link (shared between
/// the link thread, the follower's request plane, and test drivers). All
/// counters are relaxed atomics; `lag_epochs` is the staleness bound's
/// input.
#[derive(Debug, Default)]
pub struct ReplicaStatus {
    applied_records: AtomicU64,
    applied_epoch: AtomicU64,
    primary_epoch: AtomicU64,
    connects: AtomicU64,
    connected: AtomicBool,
    stop: AtomicBool,
    failed: Mutex<Option<String>>,
}

impl ReplicaStatus {
    /// WAL records this follower's state embodies (= its resume cursor).
    pub fn applied_records(&self) -> u64 {
        self.applied_records.load(Ordering::Relaxed)
    }

    /// Last epoch this follower published locally.
    pub fn applied_epoch(&self) -> u64 {
        self.applied_epoch.load(Ordering::Relaxed)
    }

    /// The primary's epoch as last heard (hello, heartbeat, or marker).
    pub fn primary_epoch(&self) -> u64 {
        self.primary_epoch.load(Ordering::Relaxed)
    }

    /// Epochs this follower is behind the primary — the staleness every
    /// response is stamped with, and what `max_lag_epochs` bounds.
    pub fn lag_epochs(&self) -> u64 {
        self.primary_epoch().saturating_sub(self.applied_epoch())
    }

    /// Successful handshakes (1 = initial connect; ≥2 proves a reconnect).
    pub fn connects(&self) -> u64 {
        self.connects.load(Ordering::Relaxed)
    }

    /// Whether the link currently holds an accepted connection.
    pub fn connected(&self) -> bool {
        self.connected.load(Ordering::Relaxed)
    }

    /// A permanent failure (stream gap), if the link refused to continue.
    pub fn failure(&self) -> Option<String> {
        self.failed.lock().expect("replica status poisoned").clone()
    }
}

/// A follower's replication link: owns the replica [`ServeState`] on a
/// dedicated thread that connects to the primary, handshakes with the
/// state-derived cursor, applies shipped records one at a time (publishing
/// each epoch snapshot into the follower's [`EpochStore`] as it lands),
/// and reconnects with seeded-jitter backoff on any link death. A stream
/// gap is refused exactly like recovery refuses it: the link records the
/// failure and stops rather than serve a wrong state.
#[derive(Debug)]
pub struct ReplicaLink {
    status: Arc<ReplicaStatus>,
    primary: Arc<Mutex<SocketAddr>>,
    handle: JoinHandle<ServeState>,
}

impl ReplicaLink {
    /// Start replicating `state` from the primary at `primary`. Epoch
    /// snapshots are published into `store`; `faults` arms the follower-
    /// side crash points; `seed` derives the reconnect jitter.
    pub fn spawn(
        state: ServeState,
        store: Arc<EpochStore>,
        primary: SocketAddr,
        faults: Option<Arc<FaultInjector>>,
        seed: u64,
    ) -> ReplicaLink {
        let status = Arc::new(ReplicaStatus::default());
        status
            .applied_records
            .store(state.papers_ingested() + state.epoch(), Ordering::Relaxed);
        status.applied_epoch.store(state.epoch(), Ordering::Relaxed);
        status.primary_epoch.store(state.epoch(), Ordering::Relaxed);
        let primary = Arc::new(Mutex::new(primary));
        let handle = {
            let status = Arc::clone(&status);
            let primary = Arc::clone(&primary);
            std::thread::spawn(move || link_loop(state, &store, &status, &primary, faults, seed))
        };
        ReplicaLink {
            status,
            primary,
            handle,
        }
    }

    /// The link's shared status (lag, cursor, connects, failure).
    pub fn status(&self) -> &Arc<ReplicaStatus> {
        &self.status
    }

    /// Point the link at a different primary (failover after primary
    /// death); takes effect on the next reconnect attempt.
    pub fn set_primary(&self, addr: SocketAddr) {
        *self.primary.lock().expect("replica link poisoned") = addr;
    }

    /// Stop the link and reclaim the replica state.
    pub fn shutdown(self) -> ServeState {
        self.status.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("replica link thread panicked")
    }
}

/// Read one frame under a deadline, tolerating socket-timeout ticks.
fn read_frame_deadline<T: Deserialize>(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    deadline: Instant,
    stop: &AtomicBool,
) -> std::io::Result<FrameRead<T>> {
    loop {
        match read_frame(reader, buf)? {
            FrameRead::TimedOut => {
                if stop.load(Ordering::Relaxed) || Instant::now() > deadline {
                    return Ok(FrameRead::TimedOut);
                }
            }
            done => return Ok(done),
        }
    }
}

/// Pull every frame already sitting on the wire without blocking.
/// Heartbeats advance `primary_epoch` the moment they arrive — a slow
/// follower must learn how far behind it is *while* it is behind, not
/// after draining the backlog (in-band heartbeats would otherwise queue
/// FIFO behind the very records that make it slow). Data records queue in
/// arrival order. Transport errors are left for the next blocking read to
/// surface, after the queued records have been applied.
fn drain_ready(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    pending: &mut VecDeque<WalRecord>,
    status: &ReplicaStatus,
) {
    if reader.get_ref().set_nonblocking(true).is_err() {
        return;
    }
    while let Ok(FrameRead::Frame(record)) = read_frame::<WalRecord>(reader, buf) {
        if record.t == "hb" {
            status
                .primary_epoch
                .fetch_max(record.epoch.unwrap_or(0), Ordering::Relaxed);
        } else {
            pending.push_back(record);
        }
    }
    let _ = reader.get_ref().set_nonblocking(false);
}

fn link_loop(
    mut state: ServeState,
    store: &EpochStore,
    status: &ReplicaStatus,
    primary: &Mutex<SocketAddr>,
    faults: Option<Arc<FaultInjector>>,
    seed: u64,
) -> ServeState {
    let mut rng = seed;
    let mut failures = 0u32;
    'outer: while !status.stop.load(Ordering::Relaxed) {
        if failures > 0 {
            // Seeded-jitter backoff: exponential in consecutive failures,
            // capped, with jitter so concurrent followers de-synchronize
            // — and fully reproducible from the seed.
            let base = (4u64 << failures.min(4)).min(80);
            let wait = base + splitmix(&mut rng) % (base / 2 + 1);
            std::thread::sleep(Duration::from_millis(wait));
        }
        let addr = *primary.lock().expect("replica link poisoned");
        let Ok(stream) = TcpStream::connect(addr) else {
            failures = failures.saturating_add(1);
            continue;
        };
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .ok();
        let Ok(read_half) = stream.try_clone() else {
            failures = failures.saturating_add(1);
            continue;
        };
        let mut reader = BufReader::new(read_half);
        let mut writer = stream;
        let mut buf = Vec::new();

        // Cursor handshake: the cursor is derived from the state itself —
        // papers applied + epochs published = WAL records embodied.
        let cursor = state.papers_ingested() + state.epoch();
        if send(&mut writer, &SyncFrame::sync(cursor, state.epoch())).is_err() {
            failures = failures.saturating_add(1);
            continue;
        }
        let deadline = Instant::now() + Duration::from_millis(2000);
        let hello: SyncFrame =
            match read_frame_deadline(&mut reader, &mut buf, deadline, &status.stop) {
                Ok(FrameRead::Frame(hello)) => hello,
                _ => {
                    failures = failures.saturating_add(1);
                    continue;
                }
            };
        if hello.t != "hello" {
            // Refused (partition window, shutdown, or cursor gap): retry
            // under backoff; a partition eventually expires.
            failures = failures.saturating_add(1);
            continue;
        }
        status
            .primary_epoch
            .fetch_max(hello.epoch.unwrap_or(0), Ordering::Relaxed);
        status.connected.store(true, Ordering::Relaxed);
        status.connects.fetch_add(1, Ordering::Relaxed);
        failures = 0;

        // Records received ahead of the apply point (drained off the wire
        // while an earlier apply was in progress). Dropped on reconnect —
        // the cursor handshake refetches anything not yet applied.
        let mut pending: VecDeque<WalRecord> = VecDeque::new();
        loop {
            if status.stop.load(Ordering::Relaxed) {
                status.connected.store(false, Ordering::Relaxed);
                break 'outer;
            }
            let record: WalRecord = match pending.pop_front() {
                Some(record) => record,
                None => match read_frame(&mut reader, &mut buf) {
                    Ok(FrameRead::Frame(record)) => record,
                    Ok(FrameRead::TimedOut) => continue,
                    // Closed, torn frame, or transport error: reconnect
                    // and resync from the state-derived cursor.
                    Ok(FrameRead::Closed) | Err(_) => break,
                },
            };
            if record.t == "hb" {
                status
                    .primary_epoch
                    .fetch_max(record.epoch.unwrap_or(0), Ordering::Relaxed);
                continue;
            }
            // Before a (possibly slow) apply, sweep the wire so fresher
            // heartbeats move the staleness horizon now, not after the
            // backlog drains.
            drain_ready(&mut reader, &mut buf, &mut pending, status);
            // Apply under catch_unwind: an injected follower kill unwinds
            // here, and is modelled as this follower process dying — the
            // state survives (it is rebuilt from the cursor handshake in
            // a real deployment; here the same object resumes, which is
            // equivalent because apply is transactional per record).
            let applied =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| -> Result<(), String> {
                    if let Some(faults) = &faults {
                        faults.check(CrashPoint::FollowerBeforeApply);
                        if let Some(stall) = faults.apply_stall() {
                            std::thread::sleep(stall);
                        }
                    }
                    let outcome = state.apply_record(&record, true)?;
                    if let RecordOutcome::Published(snapshot) = outcome {
                        store.publish(*snapshot);
                    }
                    if let Some(faults) = &faults {
                        faults.check(CrashPoint::FollowerAfterApply);
                    }
                    Ok(())
                }));
            match applied {
                Err(payload) => {
                    if payload.downcast_ref::<SimulatedCrash>().is_some() {
                        // The injected kill: before-apply loses the
                        // decoded record (the handshake re-fetches it),
                        // after-apply loses only the ack (the handshake
                        // skips it — the cursor already advanced).
                        break;
                    }
                    std::panic::resume_unwind(payload);
                }
                Ok(Err(gap)) => {
                    // A gap is refused exactly like recovery refuses it:
                    // never serve a state the stream cannot rebuild.
                    *status.failed.lock().expect("replica status poisoned") =
                        Some(format!("replication stream gap: {gap}"));
                    status.stop.store(true, Ordering::Relaxed);
                    status.connected.store(false, Ordering::Relaxed);
                    break 'outer;
                }
                Ok(Ok(())) => {}
            }
            status
                .applied_records
                .store(state.papers_ingested() + state.epoch(), Ordering::Relaxed);
            status.applied_epoch.store(state.epoch(), Ordering::Relaxed);
            status
                .primary_epoch
                .fetch_max(state.epoch(), Ordering::Relaxed);
        }
        status.connected.store(false, Ordering::Relaxed);
        failures = failures.saturating_add(1);
    }
    status.connected.store(false, Ordering::Relaxed);
    state
}

/// Follower daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct FollowerConfig {
    /// Worker threads answering read-only queries.
    pub workers: usize,
    /// Per-name-group in-flight `whois` cap; requests beyond it shed.
    pub max_inflight_per_name: u32,
    /// Staleness bound: reads shed with cause `replica-lag` when this
    /// follower is more than this many epochs behind the primary.
    pub max_lag_epochs: u64,
    /// Seed of the replication link's reconnect jitter.
    pub reconnect_seed: u64,
    /// Fault plan for matrix / stall-injection runs (`None` in production).
    pub faults: Option<Arc<FaultInjector>>,
}

impl Default for FollowerConfig {
    fn default() -> FollowerConfig {
        FollowerConfig {
            workers: 2,
            max_inflight_per_name: 2,
            max_lag_epochs: 4,
            reconnect_seed: 0xf011_0e4a,
            faults: None,
        }
    }
}

/// A read-only follower daemon: the primary's request plane minus the
/// write path, stacked on a [`ReplicaLink`]. Queries (`whois` / `profile`
/// / `name_group` / `stats` / `health`) are served from the epoch store
/// the link publishes into, every response stamped with `epoch` and
/// `staleness`; writes are refused; reads past `max_lag_epochs` shed with
/// cause `replica-lag`.
///
/// As with [`crate::Daemon`], dropping a `Follower` without calling
/// [`Follower::shutdown`] leaks its threads until process exit.
#[derive(Debug)]
pub struct Follower {
    plane: RequestPlane,
    link: ReplicaLink,
}

impl Follower {
    /// Bootstrap a follower from `state` (typically
    /// [`ServeState::recover_from_base`] over a copied checkpoint, or a
    /// fresh [`ServeState::clone_base`]) and start replicating from the
    /// primary's replication endpoint at `primary`, serving read-only
    /// queries on an ephemeral loopback port.
    pub fn spawn(
        state: ServeState,
        primary: SocketAddr,
        cfg: &FollowerConfig,
    ) -> std::io::Result<Follower> {
        let store = Arc::new(EpochStore::new(state.snapshot_now()));
        let link = ReplicaLink::spawn(
            state,
            Arc::clone(&store),
            primary,
            cfg.faults.clone(),
            cfg.reconnect_seed,
        );
        let plane = RequestPlane::spawn(
            WorkerCtx {
                store,
                stats: Arc::default(),
                admission: Admission::new(cfg.max_inflight_per_name),
                shutdown: Arc::default(),
                ingest_tx: None,
                batch: 1,
                ingest_capacity: 1,
                faults: cfg.faults.clone(),
                role: Role::Follower.name(),
                ship: None,
                replica: Some(ReplicaReadCtx {
                    status: Arc::clone(link.status()),
                    max_lag_epochs: cfg.max_lag_epochs,
                }),
            },
            cfg.workers,
        )?;
        Ok(Follower { plane, link })
    }

    /// The bound loopback address of the read-only request plane.
    pub fn addr(&self) -> SocketAddr {
        self.plane.addr()
    }

    /// The follower's epoch store (tests read snapshots directly).
    pub fn store(&self) -> &Arc<EpochStore> {
        self.plane.store()
    }

    /// Request-plane counters (including `shed_replica_lag`).
    pub fn stats(&self) -> &Arc<DaemonStats> {
        self.plane.stats()
    }

    /// The replication link's shared status (lag, cursor, connects).
    pub fn status(&self) -> &Arc<ReplicaStatus> {
        self.link.status()
    }

    /// Point the replication link at a different primary (failover).
    pub fn set_primary(&self, addr: SocketAddr) {
        self.link.set_primary(addr);
    }

    /// Whether a client requested shutdown over the protocol.
    pub fn shutdown_requested(&self) -> bool {
        self.plane.shutdown_requested()
    }

    /// Stop serving, stop the replication link, join every thread, and
    /// hand back the replica [`ServeState`].
    pub fn shutdown(self) -> ServeState {
        self.plane.shutdown();
        self.link.shutdown()
    }
}

/// Shape of a replica-matrix run.
#[derive(Debug, Clone)]
pub struct ReplicaSpec {
    /// Papers per epoch publish in the drive schedule.
    pub batch: usize,
    /// Papers the primary ingests before any follower exists (the warmup
    /// ends with a checkpoint, so follower bootstrap exercises
    /// [`ServeState::recover_from_base`] at a nonzero cursor).
    pub warmup: usize,
    /// Seed for fault schedules and reconnect jitter.
    pub seed: u64,
}

impl Default for ReplicaSpec {
    fn default() -> ReplicaSpec {
        ReplicaSpec {
            batch: 5,
            warmup: 14,
            seed: 0x5e71_ca01,
        }
    }
}

/// One replication fault point's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct ReplicaCase {
    /// The fault point's stable name.
    pub point: String,
    /// Which (1-based) hit of the point fired.
    pub nth: u64,
    /// Whether the scheduled fault actually fired.
    pub fault_fired: bool,
    /// Successful handshakes (≥2 proves the follower reconnected).
    pub reconnects: u64,
    /// Record frames shipped by the final hub.
    pub shipped: u64,
    /// Records the follower applied (cursor at the end of the run).
    pub applied: u64,
    /// The primary's final epoch.
    pub primary_epoch: u64,
    /// The follower's final epoch (must equal the primary's).
    pub follower_epoch: u64,
    /// Follower partition fingerprint equals the primary's.
    pub fingerprint_match: bool,
    /// Follower similarity engine is bit-identical to the primary's.
    pub engine_identical: bool,
    /// First failure description, when the case did not pass.
    pub error: Option<String>,
}

impl ReplicaCase {
    /// Whether this case met every gate.
    pub fn passed(&self) -> bool {
        self.fault_fired
            && self.reconnects >= 2
            && self.primary_epoch == self.follower_epoch
            && self.fingerprint_match
            && self.engine_identical
            && self.error.is_none()
    }
}

/// All cases of one replica-matrix run.
#[derive(Debug, Clone, Serialize)]
pub struct ReplicaReport {
    /// One entry per [`CrashPoint::REPLICATION`] point, in order.
    pub cases: Vec<ReplicaCase>,
}

impl ReplicaReport {
    /// Whether every case passed.
    pub fn passed(&self) -> bool {
        !self.cases.is_empty() && self.cases.iter().all(ReplicaCase::passed)
    }
}

/// Which (1-based) hit of each replication point the matrix fires, chosen
/// to land mid-stream (several records shipped and applied on both sides
/// of the fault).
fn scheduled_nth(point: CrashPoint) -> u64 {
    match point {
        CrashPoint::MidShipFrame => 4,
        CrashPoint::FollowerBeforeApply => 3,
        CrashPoint::FollowerAfterApply => 3,
        CrashPoint::LinkPartition => 2,
        CrashPoint::PrimaryDeath => 6,
        // Recovery points are not driven by this matrix (see
        // `crate::crash`).
        _ => 1,
    }
}

/// Run the replication fault matrix: one case per
/// [`CrashPoint::REPLICATION`] point. Each case stands up a real
/// primary → TCP → follower pipeline over a scratch WAL in `dir`, fires
/// the scheduled fault mid-stream, waits for the follower to converge,
/// and pins it bit-identical to the primary (partition fingerprint +
/// [`iuad_core::SimilarityEngine::diff_from`]) at the same epoch.
///
/// # Panics
/// On scratch-directory I/O failure.
pub fn run_replica_matrix(
    base: &ServeState,
    papers: &[Paper],
    dir: &Path,
    spec: &ReplicaSpec,
) -> ReplicaReport {
    crate::crash::silence_simulated_crashes();
    std::fs::create_dir_all(dir).expect("create replica-matrix scratch dir");
    let cases = CrashPoint::REPLICATION
        .iter()
        .enumerate()
        .map(|(i, &point)| run_case(base, papers, dir, spec, point, spec.seed ^ (i as u64 + 1)))
        .collect();
    ReplicaReport { cases }
}

fn run_case(
    base: &ServeState,
    papers: &[Paper],
    dir: &Path,
    spec: &ReplicaSpec,
    point: CrashPoint,
    seed: u64,
) -> ReplicaCase {
    let nth = scheduled_nth(point);
    let mut case = ReplicaCase {
        point: point.name().to_owned(),
        nth,
        fault_fired: false,
        reconnects: 0,
        shipped: 0,
        applied: 0,
        primary_epoch: 0,
        follower_epoch: 0,
        fingerprint_match: false,
        engine_identical: false,
        error: None,
    };
    let wal_path = dir.join(format!("replica-{}.wal", point.name()));
    crate::checkpoint::scrub_wal_and_checkpoints(&wal_path);
    let faults = FaultInjector::seeded(seed);

    // Warmup: the primary ingests and checkpoints before any follower
    // exists, so follower bootstrap exercises the checkpoint path.
    let mut primary = base.clone_base();
    match Wal::create(&wal_path) {
        Ok(wal) => primary.set_wal(Some(wal)),
        Err(e) => {
            case.error = Some(format!("create scratch WAL: {e}"));
            return case;
        }
    }
    let warmup = spec.warmup.min(papers.len());
    let mut pending = 0usize;
    for paper in &papers[..warmup] {
        primary.ingest(paper.clone());
        pending += 1;
        if pending >= spec.batch.max(1) {
            primary.publish();
            pending = 0;
        }
    }
    if let Err(e) = primary.checkpoint() {
        case.error = Some(format!("warmup checkpoint: {e}"));
        return case;
    }

    // Hub + server over the durable history; primary ships from here on.
    let history = match primary.durable_history() {
        Ok(history) => history,
        Err(e) => {
            case.error = Some(format!("durable history: {e}"));
            return case;
        }
    };
    let mut hub = ReplicationHub::new(history);
    primary.set_ship(Some(Arc::clone(&hub)));
    let first_server = match ReplicationServer::spawn(Arc::clone(&hub), Some(Arc::clone(&faults))) {
        Ok(server) => server,
        Err(e) => {
            case.error = Some(format!("replication server: {e}"));
            return case;
        }
    };
    let server_addr = first_server.addr();
    // Held as an Option because primary death shuts the live server down
    // mid-loop and stands up a replacement.
    let mut server = Some(first_server);

    // Follower bootstrap: recover from the newest checkpoint on disk,
    // then connect with the state-derived cursor.
    let boot = match ServeState::recover_from_base(base, &wal_path) {
        Ok(recovery) => recovery,
        Err(e) => {
            case.error = Some(format!("follower bootstrap: {e}"));
            return case;
        }
    };
    let store = Arc::new(EpochStore::new(boot.state.snapshot_now()));
    let link = ReplicaLink::spawn(
        boot.state,
        store,
        server_addr,
        Some(Arc::clone(&faults)),
        seed ^ 0x11,
    );

    faults.arm_crash(point, nth);

    // Drive the rest of the stream through the live pipeline.
    let boot_cursor = link.status().applied_records();
    for paper in &papers[warmup..] {
        if point == CrashPoint::PrimaryDeath && faults.hit(CrashPoint::PrimaryDeath) {
            // Don't kill a primary the follower never met: the in-memory
            // drive outruns the link's first handshake by orders of
            // magnitude, and a death before any record streamed would
            // degenerate into plain bootstrap-against-the-restart. Wait
            // until the follower is connected and demonstrably past its
            // bootstrap cursor so the kill lands mid-stream.
            let ready = Instant::now() + Duration::from_secs(10);
            while link.status().connects() == 0 || link.status().applied_records() <= boot_cursor {
                if Instant::now() > ready {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            // The primary dies wholesale: connections and in-memory state
            // are gone. Everything acknowledged is durable (per-append
            // flush), so a restarted primary recovers the exact prefix,
            // reseeds a fresh hub from it, and followers fail over.
            if let Some(live) = server.take() {
                live.shutdown();
            }
            let recovered = match ServeState::recover_from_base(base, &wal_path) {
                Ok(recovery) => recovery,
                Err(e) => {
                    case.error = Some(format!("primary restart: {e}"));
                    break;
                }
            };
            // The dead primary's in-memory state (and WAL handle) goes here.
            drop(std::mem::replace(&mut primary, recovered.state));
            match Wal::append_to(&wal_path) {
                Ok(wal) => primary.set_wal(Some(wal)),
                Err(e) => {
                    case.error = Some(format!("primary restart WAL: {e}"));
                    break;
                }
            }
            let history = match primary.durable_history() {
                Ok(history) => history,
                Err(e) => {
                    case.error = Some(format!("restart durable history: {e}"));
                    break;
                }
            };
            hub = ReplicationHub::new(history);
            primary.set_ship(Some(Arc::clone(&hub)));
            let restarted =
                match ReplicationServer::spawn(Arc::clone(&hub), Some(Arc::clone(&faults))) {
                    Ok(server) => server,
                    Err(e) => {
                        case.error = Some(format!("restart replication server: {e}"));
                        break;
                    }
                };
            link.set_primary(restarted.addr());
            server = Some(restarted);
        }
        primary.ingest(paper.clone());
        pending += 1;
        if pending >= spec.batch.max(1) {
            primary.publish();
            pending = 0;
        }
    }
    if case.error.is_none() && pending > 0 {
        primary.publish();
    }

    // Convergence: the follower's cursor must reach the primary's full
    // durable stream.
    if case.error.is_none() {
        let target = primary.papers_ingested() + primary.epoch();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if link.status().applied_records() >= target {
                break;
            }
            if let Some(failure) = link.status().failure() {
                case.error = Some(failure);
                break;
            }
            if Instant::now() > deadline {
                case.error = Some(format!(
                    "follower stalled at {}/{target} records",
                    link.status().applied_records()
                ));
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    case.fault_fired = faults.hits(point) >= nth;
    case.reconnects = link.status().connects();
    case.shipped = hub.shipped_frames();
    case.applied = link.status().applied_records();
    case.primary_epoch = primary.epoch();
    let follower = link.shutdown();
    if let Some(live) = server {
        live.shutdown();
    }
    case.follower_epoch = follower.epoch();
    if case.error.is_none() {
        case.fingerprint_match = follower.fingerprint() == primary.fingerprint();
        let diff = follower.engine().diff_from(primary.engine());
        case.engine_identical = diff.is_none();
        if !case.fingerprint_match {
            case.error = Some("follower fingerprint differs from the primary".to_owned());
        } else if let Some(diff) = diff {
            case.error = Some(format!("follower engine differs from the primary: {diff}"));
        }
    }
    if case.passed() {
        crate::checkpoint::scrub_wal_and_checkpoints(&wal_path);
    }
    case
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_parse_their_own_names() {
        for role in [Role::Primary, Role::Follower] {
            assert_eq!(Role::parse(role.name()), Some(role));
        }
        assert_eq!(Role::parse("observer"), None);
    }

    #[test]
    fn frames_roundtrip_and_tears_are_detected() {
        let sync = SyncFrame::sync(17, 3);
        let bytes = frame(&sync).unwrap();
        let back: SyncFrame = unframe(&bytes).unwrap();
        assert_eq!(back.t, "sync");
        assert_eq!(back.cursor, Some(17));
        assert_eq!(back.epoch, Some(3));

        // A torn prefix (with the newline forced back on, as a partial
        // flush could leave it) fails the declared-length check.
        let mut torn = bytes[..bytes.len() / 2].to_vec();
        torn.push(b'\n');
        assert!(unframe::<SyncFrame>(&torn).is_err());
    }

    #[test]
    fn hub_serves_cursors_heartbeats_and_close() {
        let hub = ReplicationHub::new(vec![WalRecord::epoch(1), WalRecord::epoch(2)]);
        assert_eq!(hub.cursor(), 2);
        assert_eq!(hub.epoch(), 2);
        match hub.next_batch(0, Duration::from_millis(1)) {
            Batch::Records(records) => assert_eq!(records.len(), 2),
            _ => panic!("expected records from cursor 0"),
        }
        match hub.next_batch(2, Duration::from_millis(1)) {
            Batch::Heartbeat(epoch) => assert_eq!(epoch, 2),
            _ => panic!("caught-up cursor heartbeats"),
        }
        hub.append(WalRecord::epoch(3));
        assert_eq!(hub.cursor(), 3);
        assert_eq!(hub.epoch(), 3);
        hub.close();
        match hub.next_batch(3, Duration::from_millis(1)) {
            Batch::Closed => {}
            _ => panic!("drained cursor on a closed hub must see Closed"),
        }
        match hub.next_batch(2, Duration::from_millis(1)) {
            Batch::Records(records) => assert_eq!(records.len(), 1, "closed hubs still drain"),
            _ => panic!("undrained cursor must still get records"),
        }
    }

    #[test]
    fn partition_window_expires() {
        let hub = ReplicationHub::new(Vec::new());
        assert!(!hub.partitioned());
        hub.partition_for(Duration::from_millis(30));
        assert!(hub.partitioned());
        std::thread::sleep(Duration::from_millis(40));
        assert!(!hub.partitioned());
    }
}
