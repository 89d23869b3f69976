//! The serving side: a primary `Daemon` with a WAL and a replication hub,
//! driven over loopback TCP by a closed-loop ingest stream and an
//! open-loop read generator; a `Follower` that catches up on the stream;
//! and the in-process replay that both gates the daemon's result and times
//! the state layer.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use iuad_core::Iuad;
use iuad_corpus::{Corpus, NameId, Paper, PaperId};
use iuad_graph::VertexId;
use iuad_serve::{
    checkpoint_path, response_field, response_ok, response_shed, Client, Daemon, DaemonConfig,
    Follower, FollowerConfig, ReplicationHub, ReplicationServer, ServeState, Snapshot, Wal,
};
use serde::Value;

use crate::stats::{backlog_grew, windowed_quantile, LateSends, Sample, Step};
use crate::Acct;

/// Publish cadence of the daemon's default config: an epoch every this
/// many accepted papers.
const BATCH: usize = 16;
/// WAL compaction cadence the primary runs at.
const CHECKPOINT_EVERY: u64 = 500;
/// The read SLO: p99 latency, timed from the due time.
pub const SLO_US: f64 = 5_000.0;
/// Reads per second of the nominal rate `read_p50_us` / `read_p99_us`
/// are measured at; also the first step of the ladder.
pub const NOMINAL_PER_S: f64 = 4_000.0;
/// Offered rates above the nominal one, tried in order until the SLO is
/// missed: steps of 1.25x, so the interpolation between the last passing
/// and the first failing step spans a narrow range.
const LADDER_PER_S: [f64; 12] = [
    5_000.0, 6_250.0, 8_000.0, 10_000.0, 12_500.0, 16_000.0, 20_000.0, 25_000.0, 32_000.0,
    40_000.0, 50_000.0, 64_000.0,
];
/// Shares of the serving time for the traced run's crossing reads and
/// each of its ladder steps.
const CROSSING_SHARE: f64 = 0.3;
const STEP_SHARE: f64 = 0.05;
/// Reads per window of the windowed p99 (ten samples beyond each
/// window's p99).
pub const WINDOW: usize = 1_000;
/// Read requests generated per run; the schedule cycles through them.
const POOL: usize = 8_192;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Whois,
    Profile,
    NameGroup,
}

/// One read request, kept both as its wire line and in a form the
/// in-process snapshot timing can replay.
#[derive(Debug, Clone)]
pub struct ReadReq {
    pub op: Op,
    line: String,
    probe: Option<Paper>,
    vertex: VertexId,
    name: NameId,
}

/// The read mix: 60% `whois`, 20% `profile`, 20% `name_group`. Names and
/// vertices are drawn through a uniformly chosen mention of the base
/// corpus, so they follow the corpus's own mention-frequency skew; each
/// `whois` probe is a held-out paper (its real title, venue, year and
/// coauthors) asked about one of its author slots.
pub fn read_pool(base: &Corpus, iuad: &Iuad, held_out: &[Paper], seed: u64) -> Vec<ReadReq> {
    let mentions: Vec<_> = base.mentions().collect();
    let mut rng = seed ^ 0x00de_ad5e_ed00;
    (0..POOL)
        .map(|_| {
            let roll = splitmix(&mut rng);
            let pick = splitmix(&mut rng);
            let mention = mentions[(pick % mentions.len() as u64) as usize];
            let name = base.name_of(mention);
            match roll % 10 {
                0..=5 => {
                    let paper = &held_out[(pick % held_out.len() as u64) as usize];
                    let slot = (roll >> 8) as usize % paper.authors.len();
                    let mut authors = vec![paper.authors[slot]];
                    authors.extend(
                        paper
                            .authors
                            .iter()
                            .enumerate()
                            .filter(|&(i, _)| i != slot)
                            .map(|(_, &n)| n),
                    );
                    let probe = Paper {
                        id: PaperId(u32::MAX),
                        authors,
                        title: paper.title.clone(),
                        venue: paper.venue,
                        year: paper.year,
                    };
                    let line = request_line(
                        "whois",
                        vec![
                            ("name", Value::U64(u64::from(probe.authors[0].0))),
                            (
                                "coauthors",
                                Value::Array(
                                    probe.authors[1..]
                                        .iter()
                                        .map(|n| Value::U64(u64::from(n.0)))
                                        .collect(),
                                ),
                            ),
                            ("title", Value::Str(probe.title.clone())),
                            ("venue", Value::U64(u64::from(probe.venue.0))),
                            ("year", Value::U64(u64::from(probe.year))),
                        ],
                    );
                    ReadReq {
                        op: Op::Whois,
                        line,
                        probe: Some(probe),
                        vertex: VertexId(0),
                        name,
                    }
                }
                6 | 7 => {
                    let vertex = iuad.network.assignment[&mention];
                    ReadReq {
                        op: Op::Profile,
                        line: request_line(
                            "profile",
                            vec![("vertex", Value::U64(u64::from(vertex.0)))],
                        ),
                        probe: None,
                        vertex,
                        name,
                    }
                }
                _ => ReadReq {
                    op: Op::NameGroup,
                    line: request_line("name_group", vec![("name", Value::U64(u64::from(name.0)))]),
                    probe: None,
                    vertex: VertexId(0),
                    name,
                },
            }
        })
        .collect()
}

fn request_line(op: &str, fields: Vec<(&str, Value)>) -> String {
    let mut line = serde_json::to_string(&Client::request(op, fields)).expect("requests serialize");
    line.push('\n');
    line
}

fn ingest_value(paper: &Paper) -> Value {
    Client::request(
        "ingest",
        vec![
            (
                "authors",
                Value::Array(
                    paper
                        .authors
                        .iter()
                        .map(|n| Value::U64(u64::from(n.0)))
                        .collect(),
                ),
            ),
            ("title", Value::Str(paper.title.clone())),
            ("venue", Value::U64(u64::from(paper.venue.0))),
            ("year", Value::U64(u64::from(paper.year))),
        ],
    )
}

fn field_u64(response: &Value, key: &str) -> Option<u64> {
    match response_field(response, key)? {
        Value::U64(n) => Some(*n),
        _ => None,
    }
}

/// A shed response is well formed when it names its cause and a retry
/// hint.
fn well_formed_shed(response: &Value) -> bool {
    response_shed(response)
        && matches!(response_field(response, "cause"), Some(Value::Str(_)))
        && field_u64(response, "retry_after_ms").is_some()
}

/// A running primary (WAL, fsync off, checkpoints every 500 papers)
/// shipping its records through a replication hub.
pub struct Serving {
    pub daemon: Daemon,
    server: ReplicationServer,
    hub: Arc<ReplicationHub>,
    dir: PathBuf,
}

/// The stack [`start`] builds: the serving primary and two unlogged copies
/// of its fitted base — one for the in-process replay, one to bootstrap
/// the follower from.
pub struct Started {
    pub serving: Serving,
    pub replay_base: ServeState,
    pub follower_base: ServeState,
}

/// Wrap a fitted base into a serving stack under `dir`.
///
/// The WAL runs with fsync off: the benchmark measures the serving code,
/// not the disk of whatever machine runs it.
pub fn start(iuad: Iuad, dir: &Path) -> std::io::Result<Started> {
    std::fs::create_dir_all(dir)?;
    let wal_path = dir.join("primary.wal");
    let mut wal = Wal::create(&wal_path)?;
    wal.set_fsync(false);
    let state = ServeState::new(iuad, Some(wal));
    let replay_base = state.clone_base();
    let follower_base = state.clone_base();
    let history = state.durable_history().map_err(std::io::Error::other)?;
    let hub = ReplicationHub::new(history);
    let server = ReplicationServer::spawn(Arc::clone(&hub), None)?;
    let daemon = Daemon::spawn(
        state,
        &DaemonConfig {
            checkpoint_every: CHECKPOINT_EVERY,
            ship: Some(Arc::clone(&hub)),
            ..DaemonConfig::default()
        },
    )?;
    Ok(Started {
        serving: Serving {
            daemon,
            server,
            hub,
            dir: dir.to_path_buf(),
        },
        replay_base,
        follower_base,
    })
}

/// What a follower catching up from the base measured.
pub struct Replication {
    /// Whether it reached the primary's epoch with the primary's partition.
    pub matches: bool,
    /// From spawning the follower to its applying the primary's epoch.
    pub seconds: f64,
    /// Epochs behind the primary, at most, while it caught up.
    pub lag_epochs_max: u64,
    pub reconnects: u64,
    pub shipped_records: u64,
}

impl Serving {
    /// Attach a follower bootstrapped from `base` (the state the primary
    /// started from), wait (up to a minute) until it has applied the
    /// primary's current epoch from the shipped records, stop it, and
    /// compare it with the primary at that epoch. It runs after the
    /// stream rather than during it: a second publish pipeline on the same
    /// two cores made every stream metric several times noisier.
    pub fn replicate(&self, base: ServeState) -> std::io::Result<Replication> {
        let published = self.daemon.store().load();
        let t = Instant::now();
        let follower = Follower::spawn(base, self.server.addr(), &FollowerConfig::default())?;
        let until = t + Duration::from_secs(60);
        let mut lag_epochs_max = 0;
        while follower.status().applied_epoch() < published.epoch
            && follower.status().failure().is_none()
            && Instant::now() < until
        {
            lag_epochs_max = lag_epochs_max.max(follower.status().lag_epochs());
            std::thread::sleep(Duration::from_millis(1));
        }
        let seconds = t.elapsed().as_secs_f64();
        let reconnects = follower.status().connects().saturating_sub(1);
        let state = follower.shutdown();
        Ok(Replication {
            matches: state.epoch() == published.epoch
                && state.fingerprint() == published.fingerprint(),
            seconds,
            lag_epochs_max,
            reconnects,
            shipped_records: self.hub.shipped_frames(),
        })
    }

    /// Stop everything and hand back the primary's state.
    pub fn shutdown(self) -> ServeState {
        self.server.shutdown();
        let primary = self.daemon.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
        primary
    }
}

/// A pair of connections to the primary, opened for one part of a run.
/// `a` carries the epoch poller during the stream, or the open-loop reads
/// (pipelined: the daemon answers a connection's lines in order); `b`
/// carries the ingests: the closed-loop stream or the paced trickle.
pub struct Conns {
    a: TcpStream,
    a_reader: BufReader<TcpStream>,
    b: TcpStream,
    b_pending: Vec<u8>,
    acks_due: usize,
    /// Position in the read pool, so each step continues the sequence.
    offset: usize,
    /// Highest epoch a read on `a` has returned.
    last_epoch: u64,
}

fn call_on(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Option<Value> {
    stream.write_all(line.as_bytes()).ok()?;
    let mut buf = String::new();
    match reader.read_line(&mut buf) {
        Ok(n) if n > 0 => serde_json::from_str(buf.trim()).ok(),
        _ => None,
    }
}

/// How long any one read or write on a connection may block before the
/// operation counts as failed: a stalled daemon fails the run instead of
/// hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

/// Make `requests` one after another on a fresh connection, closed
/// afterwards. Each counts toward `acct`; a response that is missing or
/// not ok is `None`.
pub fn calls(addr: SocketAddr, requests: &[Value], acct: &mut Acct) -> Vec<Option<Value>> {
    let mut conn = connect(addr).ok();
    let mut pending = Vec::new();
    requests
        .iter()
        .map(|request| {
            let response = conn
                .as_mut()
                .and_then(|c| conns_call_b(c, &mut pending, request))
                .filter(response_ok);
            acct.ops(1, usize::from(response.is_none()));
            response
        })
        .collect()
}

impl Conns {
    /// Open both connections. They are used back to back and dropped at
    /// the end of each phase rather than left idle between phases.
    pub fn open(addr: SocketAddr) -> std::io::Result<Conns> {
        let a = connect(addr)?;
        let b = connect(addr)?;
        Ok(Conns {
            a_reader: BufReader::new(a.try_clone()?),
            a,
            b,
            b_pending: Vec::new(),
            acks_due: 0,
            offset: 0,
            last_epoch: 0,
        })
    }
}

/// What the closed-loop stream measured.
pub struct StreamResult {
    pub papers: usize,
    pub seconds: f64,
    pub visible_ms: Sample,
    /// Whether the flush published the epoch the publish cadence predicts.
    pub flush_as_predicted: bool,
    /// Papers no read showed as visible.
    pub missing: usize,
}

/// Stream `papers` on connection `b`, each sent as soon as the previous
/// one is acknowledged, then flush. Meanwhile connection `a` polls the
/// primary's `health` for its epoch every 2 ms, so each paper's visibility
/// latency is the time from its send to the first read that showed an
/// epoch containing it. The daemon publishes after every [`BATCH`]
/// accepted papers, so the k-th paper streamed after a publish at epoch
/// `e0` lands in epoch `e0 + 1 + k / BATCH` (the flush publishes the
/// partial last batch).
pub fn stream(
    serving: &Serving,
    conns: &mut Conns,
    papers: &[Paper],
    acct: &mut Acct,
) -> StreamResult {
    let start_epoch = serving.daemon.store().load().epoch;
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let mut sent = Vec::with_capacity(papers.len());
    let mut failures = 0usize;
    let mut next_id: Option<u64> = None;
    let health = request_line("health", vec![]);

    let Conns { a, a_reader, .. } = conns;
    let (polled, seconds, flush_epoch) = std::thread::scope(|scope| {
        let stop = &stop;
        let health = &health;
        let poller = scope.spawn(move || {
            let mut seen: Vec<(u64, f64)> = Vec::new();
            let (mut polls, mut errors, mut last) = (0usize, 0usize, 0u64);
            while !stop.load(Ordering::Relaxed) {
                polls += 1;
                match call_on(a, a_reader, health) {
                    Some(r) if response_ok(&r) => {
                        let now = t0.elapsed().as_secs_f64();
                        let epoch = field_u64(&r, "epoch").unwrap_or(0);
                        if epoch < last {
                            errors += 1; // epochs went backwards on this connection
                        }
                        if epoch > last {
                            seen.push((epoch, now));
                            last = epoch;
                        }
                    }
                    _ => errors += 1,
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            (seen, polls, errors)
        });

        for paper in papers {
            sent.push(t0.elapsed().as_secs_f64());
            match conns_call_b(&mut conns.b, &mut conns.b_pending, &ingest_value(paper)) {
                Some(r) if response_ok(&r) => {
                    // Ids are assigned in arrival order: consecutive acks
                    // prove no paper was lost or reordered.
                    let id = field_u64(&r, "paper");
                    if next_id.is_some_and(|n| Some(n) != id) {
                        failures += 1;
                    }
                    next_id = id.map(|i| i + 1);
                }
                _ => failures += 1,
            }
        }
        let seconds = t0.elapsed().as_secs_f64() - sent.first().copied().unwrap_or(0.0);
        let flush = Client::request("flush", vec![]);
        let flush_epoch = conns_call_b(&mut conns.b, &mut conns.b_pending, &flush)
            .filter(response_ok)
            .and_then(|r| field_u64(&r, "epoch"));
        acct.ops(1, usize::from(flush_epoch.is_none()));
        let flush_epoch = flush_epoch.unwrap_or(0);
        // Keep polling until a read showed the flushed epoch.
        let until = Instant::now() + Duration::from_secs(60);
        while serving.daemon.store().load().epoch < flush_epoch && Instant::now() < until {
            std::thread::sleep(Duration::from_millis(2));
        }
        std::thread::sleep(Duration::from_millis(10));
        stop.store(true, Ordering::Relaxed);
        let polled = poller.join().expect("poller thread panicked");
        (polled, seconds, flush_epoch)
    });
    let (seen, polls, poll_errors) = polled;

    // Every full batch publishes, then the flush publishes once more.
    let expected_epoch = start_epoch + (papers.len() / BATCH) as u64 + 1;
    let mut missing = 0;
    let visible_ms = sent
        .iter()
        .enumerate()
        .filter_map(|(k, &t_send)| {
            let epoch = start_epoch + 1 + (k / BATCH) as u64;
            match seen.iter().find(|&&(e, _)| e >= epoch) {
                Some(&(_, t_seen)) => Some((t_seen - t_send) * 1e3),
                None => {
                    missing += 1;
                    None
                }
            }
        })
        .collect();
    acct.ops(papers.len(), failures);
    acct.ops(polls, poll_errors);
    StreamResult {
        papers: papers.len(),
        seconds,
        visible_ms: Sample::new(visible_ms),
        flush_as_predicted: flush_epoch == expected_epoch,
        missing,
    }
}

/// Take the next complete line off `stream` (buffering partial reads in
/// `pending`), blocking or not.
fn next_line(
    stream: &mut TcpStream,
    pending: &mut Vec<u8>,
    block: bool,
) -> Option<Result<Vec<u8>, ()>> {
    stream.set_nonblocking(!block).ok();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(pos) = pending.iter().position(|&x| x == b'\n') {
            return Some(Ok(pending.drain(..=pos).collect()));
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Some(Err(())),
            Ok(n) => pending.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return None,
            Err(_) => return Some(Err(())),
        }
    }
}

fn parse_line(line: Result<Vec<u8>, ()>) -> Option<Value> {
    let line = String::from_utf8(line.ok()?).ok()?;
    serde_json::from_str(line.trim()).ok()
}

fn conns_call_b(stream: &mut TcpStream, pending: &mut Vec<u8>, request: &Value) -> Option<Value> {
    let mut line = serde_json::to_string(request).expect("requests serialize");
    line.push('\n');
    stream.set_nonblocking(false).ok()?;
    stream.write_all(line.as_bytes()).ok()?;
    parse_line(next_line(stream, pending, true)?)
}

/// One open-loop step of the read generator, as measured.
#[derive(Debug, Default)]
pub struct ReadStep {
    pub offered_per_s: f64,
    /// Latency (µs, from the due time) of every served read, in due order.
    pub latencies_us: Vec<f64>,
    pub per_op_us: [Vec<f64>; 3],
    pub late: LateSends,
    pub sent: usize,
    pub shed: usize,
    pub failed: usize,
    pub trickled: usize,
}

impl ReadStep {
    /// Append another step at the same rate (a later block of it).
    pub fn absorb(&mut self, other: ReadStep) {
        self.latencies_us.extend(other.latencies_us);
        for (mine, theirs) in self.per_op_us.iter_mut().zip(other.per_op_us) {
            mine.extend(theirs);
        }
        self.late.extend(&other.late);
        self.sent += other.sent;
        self.shed += other.shed;
        self.failed += other.failed;
        self.trickled += other.trickled;
    }

    /// The step's p99: the median over [`WINDOW`]-read windows of each
    /// window's p99 (see [`windowed_quantile`]).
    pub fn p99_us(&self) -> f64 {
        windowed_quantile(&self.latencies_us, WINDOW, 0.99)
    }

    pub fn step(&self) -> Step {
        Step {
            offered_per_s: self.offered_per_s,
            p99_us: self.p99_us(),
            backlog_grew: backlog_grew(&self.latencies_us, SLO_US),
        }
    }
}

pub fn op_index(op: Op) -> usize {
    match op {
        Op::Whois => 0,
        Op::Profile => 1,
        Op::NameGroup => 2,
    }
}

/// Write all of `bytes` to a nonblocking socket, waiting out short
/// `WouldBlock`s.
fn write_nb(stream: &mut TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(50));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Parse every trickle ack that has arrived on `b` (all of them, if
/// `block`), counting the ones that were not ok into `failed`.
fn drain_acks(
    b: &mut TcpStream,
    pending: &mut Vec<u8>,
    acks_due: &mut usize,
    failed: &mut usize,
    block: bool,
) {
    while *acks_due > 0 {
        let Some(line) = next_line(b, pending, block) else {
            break;
        };
        *acks_due -= 1;
        if !parse_line(line).is_some_and(|v| response_ok(&v)) {
            *failed += 1;
        }
    }
}

impl Conns {
    /// Offer reads from `pool` at `rate` per second for `seconds`, open
    /// loop on connection `a`: request `i` is due at `i / rate` and is
    /// timed from then, however late the generator sent it. A receiver
    /// thread reads the responses as they come. With a trickle, one ingest
    /// from `trickle` is sent on connection `b` every `1 / trickle_per_s`
    /// seconds. Returns once every read has been answered.
    fn step(
        &mut self,
        pool: &[ReadReq],
        rate: f64,
        seconds: f64,
        trickle: &mut std::slice::Iter<'_, Paper>,
        trickle_per_s: f64,
    ) -> ReadStep {
        let mut step = ReadStep {
            offered_per_s: rate,
            ..ReadStep::default()
        };
        let total = (rate * seconds).round().max(1.0) as usize;
        let (meta_tx, meta_rx) = mpsc::channel::<(f64, Op)>();
        let t0 = Instant::now();
        let trickle_every = if trickle_per_s > 0.0 {
            1.0 / trickle_per_s
        } else {
            f64::INFINITY
        };
        let Conns {
            a,
            a_reader,
            b,
            b_pending,
            acks_due,
            offset: pool_offset,
            last_epoch,
        } = self;
        let offset = *pool_offset;
        let mut writer = a.try_clone().expect("clone read connection");
        let start_epoch = *last_epoch;
        let received = std::thread::scope(|scope| {
            let receiver = scope.spawn(move || {
                let mut line = String::new();
                let mut out: Vec<(Op, Option<f64>)> = Vec::with_capacity(total);
                let (mut shed, mut failed, mut last) = (0usize, 0usize, start_epoch);
                let mut broken = false;
                while let Ok((due_us, op)) = meta_rx.recv() {
                    line.clear();
                    // After a read error or timeout the connection is not
                    // trusted again: the rest of the step counts as failed.
                    let got = if broken {
                        Ok(0)
                    } else {
                        a_reader.read_line(&mut line)
                    };
                    let now_us = t0.elapsed().as_secs_f64() * 1e6;
                    let response = match got {
                        Ok(n) if n > 0 => serde_json::from_str::<Value>(line.trim()).ok(),
                        _ => {
                            broken = true;
                            None
                        }
                    };
                    match response {
                        Some(r) if response_ok(&r) => {
                            let epoch = field_u64(&r, "epoch").unwrap_or(0);
                            if epoch < last {
                                failed += 1; // epochs went backwards on this connection
                            }
                            last = last.max(epoch);
                            out.push((op, Some(now_us - due_us)));
                        }
                        Some(r) if well_formed_shed(&r) => {
                            shed += 1;
                            out.push((op, None));
                        }
                        _ => {
                            failed += 1;
                            out.push((op, None));
                        }
                    }
                }
                (out, shed, failed, last)
            });

            let mut next_trickle = 0.0;
            let mut i = 0;
            while i < total {
                if t0.elapsed().as_secs_f64() >= next_trickle {
                    if let Some(paper) = trickle.next() {
                        let mut line = serde_json::to_string(&ingest_value(paper))
                            .expect("requests serialize")
                            .into_bytes();
                        line.push(b'\n');
                        b.set_nonblocking(true).ok();
                        if write_nb(b, &line).is_ok() {
                            *acks_due += 1;
                            step.trickled += 1;
                        } else {
                            step.failed += 1;
                        }
                    }
                    next_trickle += trickle_every;
                    drain_acks(b, b_pending, acks_due, &mut step.failed, false);
                }
                // Send every request already due, then sleep until the
                // next one (or the next trickle) is.
                let now_us = t0.elapsed().as_secs_f64() * 1e6;
                while i < total {
                    let due_us = i as f64 * 1e6 / rate;
                    if due_us > now_us {
                        break;
                    }
                    let req = &pool[(offset + i) % pool.len()];
                    let sent_us = t0.elapsed().as_secs_f64() * 1e6;
                    if writer.write_all(req.line.as_bytes()).is_err() {
                        step.failed += total - i;
                        i = total;
                        break;
                    }
                    step.late.record(due_us, sent_us);
                    meta_tx.send((due_us, req.op)).expect("receiver alive");
                    i += 1;
                }
                if i < total {
                    let wake = (i as f64 / rate).min(next_trickle);
                    let now = t0.elapsed().as_secs_f64();
                    if wake > now {
                        std::thread::sleep(Duration::from_secs_f64(wake - now));
                    }
                }
            }
            step.sent = i;
            drop(meta_tx);
            receiver.join().expect("receiver thread panicked")
        });
        let (out, shed, failed, last) = received;
        *last_epoch = last;
        *pool_offset += step.sent;
        drain_acks(b, b_pending, acks_due, &mut step.failed, false);
        step.shed += shed;
        step.failed += failed;
        for (op, latency) in out {
            if let Some(us) = latency {
                step.latencies_us.push(us);
                step.per_op_us[op_index(op)].push(us);
            }
        }
        step
    }
}

/// One round's reads: the nominal rate for `seconds` with no writes
/// alongside, on fresh connections closed when it ends.
pub fn nominal_block(
    addr: SocketAddr,
    pool: &[ReadReq],
    seconds: f64,
) -> std::io::Result<ReadStep> {
    Ok(Conns::open(addr)?.step(pool, NOMINAL_PER_S, seconds, &mut [].iter(), 0.0))
}

/// What the traced run's extra reads measured.
pub struct ReadPhase {
    /// The ladder, its first step the rounds' nominal reads.
    pub ladder: Vec<ReadStep>,
    /// Reads at the nominal rate with the write trickle alongside, so
    /// they cross epoch publishes.
    pub crossing: ReadStep,
}

/// The traced run's extra reads, after the rounds. First the nominal rate
/// runs for [`CROSSING_SHARE`] of `seconds` with `trickle_per_s` ingests
/// from `trickle` alongside. Then, from the rounds' `nominal` step, the
/// offered rate climbs at [`STEP_SHARE`] of `seconds` per step until a
/// step misses the SLO. Each part opens its own connections and closes
/// them when it ends.
pub fn read_phase(
    addr: SocketAddr,
    pool: &[ReadReq],
    seconds: f64,
    trickle: &[Paper],
    trickle_per_s: f64,
    nominal: ReadStep,
) -> std::io::Result<ReadPhase> {
    let mut conns = Conns::open(addr)?;
    let mut crossing = conns.step(
        pool,
        NOMINAL_PER_S,
        seconds * CROSSING_SHARE,
        &mut trickle.iter(),
        trickle_per_s,
    );
    drain_acks(
        &mut conns.b,
        &mut conns.b_pending,
        &mut conns.acks_due,
        &mut crossing.failed,
        true,
    );
    // Acks still missing after the blocking drain timed out.
    crossing.failed += conns.acks_due;
    drop(conns);
    let mut ladder = vec![nominal];
    let mut conns = Conns::open(addr)?;
    for rate in LADDER_PER_S {
        if !ladder.last().is_some_and(|s| s.step().passes(SLO_US)) {
            break;
        }
        ladder.push(conns.step(pool, rate, seconds * STEP_SHARE, &mut [].iter(), 0.0));
    }
    Ok(ReadPhase { ladder, crossing })
}

/// The same request sequence answered in process straight from the
/// published snapshot: the read path minus the request plane. Returns
/// per-op latencies (µs).
pub fn snapshot_reads(snapshot: &Snapshot, pool: &[ReadReq], n: usize) -> [Sample; 3] {
    let mut per_op: [Vec<f64>; 3] = Default::default();
    for req in pool.iter().cycle().take(n) {
        let t = Instant::now();
        match req.op {
            Op::Whois => {
                let probe = req.probe.as_ref().expect("whois requests carry a probe");
                std::hint::black_box(snapshot.whois(probe, 0));
            }
            Op::Profile => {
                std::hint::black_box(snapshot.profile(req.vertex));
            }
            Op::NameGroup => {
                std::hint::black_box(snapshot.name_group(req.name).len());
            }
        }
        per_op[op_index(req.op)].push(t.elapsed().as_secs_f64() * 1e6);
    }
    per_op.map(Sample::new)
}

/// One event of the daemon's ingest thread, replayed in process.
pub enum Event<'a> {
    Paper(&'a Paper),
    Flush,
}

/// What the in-process replay of the daemon's ingest loop measured.
pub struct Replay {
    pub state: ServeState,
    pub ingest_us: Sample,
    /// (publish ms, mentions touched since the previous publish).
    pub publishes: Vec<(f64, usize)>,
    pub checkpoint_ms: Sample,
    pub checkpoint_bytes: u64,
    pub wal_bytes: u64,
    pub papers: usize,
    pub seconds: f64,
}

/// Replay the daemon's ingest loop in process on `state`: the same
/// events, publish cadence and checkpoint cadence, timing each
/// `ServeState::ingest`, `publish` and `checkpoint` call. Its final
/// fingerprint must equal the daemon's.
pub fn replay(mut state: ServeState, events: &[Event<'_>], dir: &Path) -> std::io::Result<Replay> {
    std::fs::create_dir_all(dir)?;
    let wal_path = dir.join("replay.wal");
    let mut wal = Wal::create(&wal_path)?;
    wal.set_fsync(false);
    state.set_wal(Some(wal));
    let (mut ingest_us, mut publishes, mut checkpoint_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut pending, mut touched, mut since_checkpoint, mut papers) = (0usize, 0usize, 0u64, 0);
    let (mut wal_bytes, mut checkpoint_bytes) = (0u64, 0u64);
    let t0 = Instant::now();
    let mut publish = |state: &mut ServeState, touched: &mut usize| {
        let t = Instant::now();
        std::hint::black_box(state.publish());
        publishes.push((t.elapsed().as_secs_f64() * 1e3, *touched));
        *touched = 0;
    };
    for event in events {
        match event {
            Event::Paper(paper) => {
                let t = Instant::now();
                state.ingest((*paper).clone());
                ingest_us.push(t.elapsed().as_secs_f64() * 1e6);
                papers += 1;
                touched += paper.authors.len();
                pending += 1;
                since_checkpoint += 1;
                if pending >= BATCH {
                    publish(&mut state, &mut touched);
                    pending = 0;
                }
                if since_checkpoint >= CHECKPOINT_EVERY {
                    wal_bytes += std::fs::metadata(&wal_path)?.len();
                    let t = Instant::now();
                    let meta = state.checkpoint().map_err(std::io::Error::other)?;
                    checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    checkpoint_bytes =
                        std::fs::metadata(checkpoint_path(&wal_path, meta.seq))?.len();
                    since_checkpoint = 0;
                }
            }
            Event::Flush => {
                publish(&mut state, &mut touched);
                pending = 0;
            }
        }
    }
    let seconds = t0.elapsed().as_secs_f64();
    wal_bytes += std::fs::metadata(&wal_path)?.len();
    state.set_wal(None);
    let _ = std::fs::remove_dir_all(dir);
    Ok(Replay {
        state,
        ingest_us: Sample::new(ingest_us),
        publishes,
        checkpoint_ms: Sample::new(checkpoint_ms),
        checkpoint_bytes,
        wal_bytes,
        papers,
        seconds,
    })
}
