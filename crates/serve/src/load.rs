//! The serving CI gates: [`run_smoke`] and [`run_replica_smoke`] drive a
//! live daemon (and, for the replica smoke, two followers) over loopback
//! with a concurrent paper stream and a mixed query load.
//!
//! [`run_smoke`] is the end-to-end gate CI runs on every push: seeded
//! corpus, live daemon, ≥50 streamed papers with 200 concurrent mixed
//! queries, zero protocol errors, ≥2 epoch advances, clean shutdown, and
//! a warm restart from the WAL that reproduces the live state bit for bit.
//! [`run_replica_smoke`] is the replication gate: the same stream through
//! a [`FailoverClient`] across a link partition and a primary death.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use iuad_core::{Iuad, IuadConfig};
use iuad_corpus::{Corpus, CorpusConfig, Paper};
use rustc_hash::FxHashMap;
use serde::{Serialize, Value};

use crate::client::{response_field, response_ok, response_shed, Backoff, Client, FailoverClient};
use crate::daemon::{Daemon, DaemonConfig};
use crate::fault::{splitmix, CrashPoint, FaultInjector};
use crate::replica::{Follower, FollowerConfig, ReplicationHub, ReplicationServer};
use crate::state::ServeState;
use crate::wal::Wal;

/// What the CI smoke observed. See [`SmokeOutcome::passed`].
#[derive(Debug, Clone, Serialize)]
pub struct SmokeOutcome {
    /// Papers streamed through `ingest` (gate: ≥ 50).
    pub papers_streamed: u64,
    /// Queries answered (gate: ≥ 200).
    pub queries: u64,
    /// Requests shed (allowed; sheds are not errors).
    pub shed: u64,
    /// Daemon-side protocol errors (gate: 0).
    pub errors: u64,
    /// Client-observed failures (gate: 0).
    pub client_errors: u64,
    /// Epoch at shutdown (gate: ≥ 2).
    pub final_epoch: u64,
    /// Partition fingerprint of the live state at shutdown.
    pub live_fingerprint: u64,
    /// Partition fingerprint after WAL warm restart (gate: equal).
    pub replay_fingerprint: u64,
    /// Engine difference live vs replayed, `None` when bit-identical
    /// (gate: `None`).
    pub engine_diff: Option<String>,
}

impl SmokeOutcome {
    /// All gates at once.
    pub fn passed(&self) -> bool {
        self.papers_streamed >= 50
            && self.queries >= 200
            && self.errors == 0
            && self.client_errors == 0
            && self.final_epoch >= 2
            && self.live_fingerprint == self.replay_fingerprint
            && self.engine_diff.is_none()
    }
}

/// Stream one paper through [`Client::call_with_backoff`]: sheds are
/// retried on the server's `retry_after_ms` pacing with seeded jitter
/// (derived from the paper id, so runs replay exactly), and a stream that
/// stays shed through the full budget is a failure.
fn ingest_with_retry(client: &mut Client, paper: &Paper) -> bool {
    let request = Client::ingest_request(paper);
    let backoff = Backoff {
        attempts: 60,
        base_ms: 2,
        cap_ms: 32,
        jitter_seed: 0x0010_6357 ^ u64::from(paper.id.0),
    };
    match client.call_with_backoff(&request, &backoff) {
        Ok(response) => response_ok(&response),
        Err(_) => false,
    }
}

/// The seeded corpus both smokes fit and stream.
fn smoke_corpus() -> Corpus {
    Corpus::generate(&CorpusConfig {
        num_authors: 150,
        num_papers: 560,
        seed: 0x10ad_5eed,
        ..CorpusConfig::default()
    })
}

/// Names ranked by how often they appear on the corpus' papers; the head
/// of the ranking is the "hot" name of the skewed query mix.
fn names_by_frequency(corpus: &Corpus) -> Vec<u32> {
    let mut freq: FxHashMap<u32, usize> = FxHashMap::default();
    for paper in &corpus.papers {
        for name in &paper.authors {
            *freq.entry(name.0).or_insert(0) += 1;
        }
    }
    let mut ranked: Vec<(u32, usize)> = freq.into_iter().collect();
    ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.into_iter().map(|(name, _)| name).collect()
}

/// One read of the smokes' skewed query mix, aimed by the seeded `roll`:
/// a `whois` (kind 0), a `profile` (kind 1) or a `name_group`.
fn read_request(kind: u64, roll: u64, names: &[u32], num_vertices: usize) -> Value {
    let name = Value::U64(u64::from(names[roll as usize % names.len()]));
    match kind {
        0 => Client::request(
            "whois",
            vec![
                ("name", name),
                ("title", Value::Str("stable collaboration probe".to_owned())),
                ("venue", Value::U64(0)),
                ("year", Value::U64(2021)),
            ],
        ),
        1 => Client::request(
            "profile",
            vec![("vertex", Value::U64(roll % num_vertices as u64))],
        ),
        _ => Client::request("name_group", vec![("name", name)]),
    }
}

/// The end-to-end CI smoke (see module docs). Uses a WAL under the OS
/// temp directory; the file is removed on success.
///
/// # Panics
/// On daemon spawn, connection, WAL I/O or recovery failure.
pub fn run_smoke() -> SmokeOutcome {
    let dir = std::env::temp_dir().join("iuad-serve-smoke");
    std::fs::create_dir_all(&dir).expect("create smoke dir");
    let wal_path = dir.join("smoke.wal");
    crate::checkpoint::scrub_wal_and_checkpoints(&wal_path);

    let (base, tail) = smoke_corpus().split_tail(55);
    let fit = || Iuad::fit(&base, &IuadConfig::default());

    let state = ServeState::new(fit(), Some(Wal::create(&wal_path).expect("create WAL")));
    let num_vertices = state.network().graph.num_vertices();
    let daemon = Daemon::spawn(state, &DaemonConfig::default()).expect("bind loopback listener");
    let addr = daemon.addr();
    let names = names_by_frequency(&base);

    let client_errors = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let tail = &tail;
        let names = &names;
        let client_errors = &client_errors;
        let ingester = scope.spawn(move || {
            let mut client = Client::connect(addr).expect("connect ingest client");
            for (paper, _) in tail {
                if !ingest_with_retry(&mut client, paper) {
                    client_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        let queriers: Vec<_> = (0..2)
            .map(|t: u64| {
                scope.spawn(move || {
                    let mut rng = 0x5e7e_c7ed ^ t;
                    let mut client = Client::connect(addr).expect("connect query client");
                    for i in 0..100usize {
                        let roll = splitmix(&mut rng);
                        let kind = [0, 0, 1, 2][i % 4];
                        let request = read_request(kind, roll, names, num_vertices);
                        match client.call(&request) {
                            Ok(response) => {
                                if !response_ok(&response) && !response_shed(&response) {
                                    client_errors.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            Err(_) => {
                                client_errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                })
            })
            .collect();
        ingester.join().expect("ingest thread panicked");
        for q in queriers {
            q.join().expect("query thread panicked");
        }
    });

    // Two explicit epoch advances on top of whatever batching published.
    let mut client = Client::connect(addr).expect("connect control client");
    for _ in 0..2 {
        let response = client
            .call(&Client::request("flush", vec![]))
            .expect("flush failed");
        if !response_ok(&response) {
            client_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    let stats = daemon.stats();
    let queries = stats.queries.load(Ordering::Relaxed);
    let shed = stats.shed.load(Ordering::Relaxed);
    let errors = stats.errors.load(Ordering::Relaxed);
    let live = daemon.shutdown();
    let live_fingerprint = live.fingerprint();

    let recovery = ServeState::recover(fit(), &wal_path).expect("recover from the WAL");
    assert_eq!(recovery.checkpoint_seq, None, "the smoke never checkpoints");
    let replayed = recovery.state;
    let replay_fingerprint = replayed.fingerprint();
    let engine_diff = replayed.engine().diff_from(live.engine());

    let outcome = SmokeOutcome {
        papers_streamed: live.papers_ingested(),
        queries,
        shed,
        errors,
        client_errors: client_errors.load(Ordering::Relaxed),
        final_epoch: live.epoch(),
        live_fingerprint,
        replay_fingerprint,
        engine_diff,
    };
    if outcome.passed() {
        std::fs::remove_file(&wal_path).ok();
    }
    outcome
}

/// What the replication/failover smoke observed. See
/// [`ReplicaSmokeOutcome::passed`].
#[derive(Debug, Clone, Serialize)]
pub struct ReplicaSmokeOutcome {
    /// Papers streamed through the failover client (gate: ≥ 40).
    pub papers_streamed: u64,
    /// Reads answered by the follower request planes (gate: ≥ 100).
    pub follower_reads: u64,
    /// Follower reads shed with cause `replica-lag` (allowed, not gated).
    pub replica_lag_sheds: u64,
    /// Reads whose `epoch` exceeded the primary's published horizon at
    /// response time (gate: 0 — a follower must never serve an epoch the
    /// primary did not publish).
    pub wrong_epoch_reads: u64,
    /// Client-observed failures across the whole mixed run (gate: 0).
    pub client_errors: u64,
    /// Whether the seeded mid-stream link partition actually fired
    /// (gate: true).
    pub partition_fired: bool,
    /// Whether the primary was killed and restarted mid-run (gate: true).
    pub failover_completed: bool,
    /// Minimum successful handshakes across followers (gate: ≥ 2 — both
    /// reconnected after the partition / primary death).
    pub min_reconnects: u64,
    /// The primary's epoch at the end of the run (gate: ≥ 2).
    pub final_epoch: u64,
    /// Every follower's partition fingerprint equals the primary's
    /// (gate: true).
    pub fingerprints_match: bool,
    /// Every follower's similarity engine is bit-identical to the
    /// primary's (gate: true).
    pub engine_identical: bool,
}

impl ReplicaSmokeOutcome {
    /// All gates at once.
    pub fn passed(&self) -> bool {
        self.papers_streamed >= 40
            && self.follower_reads >= 100
            && self.wrong_epoch_reads == 0
            && self.client_errors == 0
            && self.partition_fired
            && self.failover_completed
            && self.min_reconnects >= 2
            && self.final_epoch >= 2
            && self.fingerprints_match
            && self.engine_identical
    }
}

/// The replication/failover end-to-end smoke (`make serve-replica`): a
/// primary daemon with two live followers, a seeded mixed ingest/read
/// drive through a [`FailoverClient`], a seeded link partition mid-stream,
/// then wholesale primary death and restart — gates on zero client errors,
/// zero wrong-epoch reads, both followers reconnecting, and bit-identity
/// of every follower against the final primary.
///
/// # Panics
/// On daemon spawn, connection, or WAL I/O failure.
pub fn run_replica_smoke() -> ReplicaSmokeOutcome {
    let dir = std::env::temp_dir().join("iuad-serve-replica-smoke");
    std::fs::create_dir_all(&dir).expect("create replica smoke dir");
    let wal_path = dir.join("replica-smoke.wal");
    crate::checkpoint::scrub_wal_and_checkpoints(&wal_path);

    let (base, tail) = smoke_corpus().split_tail(55);
    let fit = Iuad::fit(&base, &IuadConfig::default());
    // The shared bootstrap base: the primary and both followers clone it,
    // so followers start at cursor 0 and catch up over the wire.
    let base_state = ServeState::new(fit, None);
    let num_vertices = base_state.network().graph.num_vertices();
    let names = names_by_frequency(&base);
    let faults = FaultInjector::seeded(0x5e71_ca5e);

    let mut primary_state = base_state.clone_base();
    primary_state.set_wal(Some(
        Wal::create(&wal_path).expect("create replica smoke WAL"),
    ));
    let mut hub = ReplicationHub::new(
        primary_state
            .durable_history()
            .expect("fresh WAL has a (possibly empty) durable history"),
    );
    let mut rep_server = Some(
        ReplicationServer::spawn(Arc::clone(&hub), Some(Arc::clone(&faults)))
            .expect("bind replication listener"),
    );
    let mut daemon = Some(
        Daemon::spawn(
            primary_state,
            &DaemonConfig {
                ship: Some(Arc::clone(&hub)),
                faults: Some(Arc::clone(&faults)),
                ..DaemonConfig::default()
            },
        )
        .expect("bind primary listener"),
    );

    let follower_cfg = |seed: u64| FollowerConfig {
        max_lag_epochs: 8,
        reconnect_seed: seed,
        faults: Some(Arc::clone(&faults)),
        ..FollowerConfig::default()
    };
    let rep_addr = rep_server.as_ref().expect("server live").addr();
    let followers = [
        Follower::spawn(
            base_state.clone_base(),
            rep_addr,
            &follower_cfg(0xf011_0001),
        )
        .expect("spawn follower 1"),
        Follower::spawn(
            base_state.clone_base(),
            rep_addr,
            &follower_cfg(0xf011_0002),
        )
        .expect("spawn follower 2"),
    ];

    let backoff = Backoff {
        attempts: 60,
        base_ms: 2,
        cap_ms: 32,
        jitter_seed: 0x0010_6357,
    };
    let mut failover = FailoverClient::new(
        daemon.as_ref().expect("daemon live").addr(),
        &[followers[0].addr(), followers[1].addr()],
        backoff,
    );

    let mut client_errors = 0u64;
    let mut wrong_epoch_reads = 0u64;
    let mut failover_completed = false;
    let mut rng = 0x5e7e_c7ed_u64;
    for (i, (paper, _)) in tail.iter().enumerate() {
        if i == 15 {
            // Mid-stream: the next shipped record tears the link and opens
            // a seeded partition window against reconnects.
            faults.arm_crash(CrashPoint::LinkPartition, 1);
        }
        if i == 30 {
            // Make sure both followers have met this primary before it
            // dies, so the kill exercises reconnection, not bootstrap.
            let ready = Instant::now() + Duration::from_secs(10);
            while followers.iter().any(|f| f.status().connects() == 0) {
                if Instant::now() > ready {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            // Wholesale primary death: daemon and replication server go
            // away, the in-memory state is discarded, and a new primary
            // recovers from disk. Everything acknowledged was durable.
            drop(daemon.take().expect("daemon live").shutdown());
            rep_server.take().expect("server live").shutdown();
            let recovered = ServeState::recover_from_base(&base_state, &wal_path)
                .expect("primary restart recovery");
            let mut restarted = recovered.state;
            restarted.set_wal(Some(Wal::append_to(&wal_path).expect("reopen WAL")));
            hub = ReplicationHub::new(
                restarted
                    .durable_history()
                    .expect("restarted durable history"),
            );
            let server = ReplicationServer::spawn(Arc::clone(&hub), Some(Arc::clone(&faults)))
                .expect("rebind replication listener");
            for follower in &followers {
                follower.set_primary(server.addr());
            }
            rep_server = Some(server);
            let fresh = Daemon::spawn(
                restarted,
                &DaemonConfig {
                    ship: Some(Arc::clone(&hub)),
                    ..DaemonConfig::default()
                },
            )
            .expect("rebind primary listener");
            failover.set_primary(fresh.addr());
            daemon = Some(fresh);
            failover_completed = true;
        }

        match failover.call_primary(&Client::ingest_request(paper)) {
            Ok(response) if response_ok(&response) => {}
            _ => client_errors += 1,
        }

        for k in 0..3u64 {
            let roll = splitmix(&mut rng);
            let request = read_request(k, roll, &names, num_vertices);
            match failover.call_read(&request) {
                Ok(response) => {
                    if response_ok(&response) {
                        // The consistency gate: the epoch a read was served
                        // at must already be on the primary's published
                        // horizon — the hub epoch advances before any
                        // follower can apply the marker, so reading it
                        // *after* the response gives a safe upper bound.
                        if let Some(Value::U64(epoch)) = response_field(&response, "epoch") {
                            if *epoch > hub.epoch() {
                                wrong_epoch_reads += 1;
                            }
                        }
                    } else if !response_shed(&response) {
                        client_errors += 1;
                    }
                }
                Err(_) => client_errors += 1,
            }
        }
    }

    // Final epoch marker, then wait for both followers to converge on it.
    let final_epoch = match failover.call_primary(&Client::request("flush", vec![])) {
        Ok(response) if response_ok(&response) => match response_field(&response, "epoch") {
            Some(Value::U64(epoch)) => *epoch,
            _ => 0,
        },
        _ => {
            client_errors += 1;
            0
        }
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut converged = true;
    for follower in &followers {
        while follower.status().applied_epoch() < final_epoch {
            if Instant::now() > deadline || follower.status().failure().is_some() {
                converged = false;
                client_errors += 1;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    let follower_reads: u64 = followers
        .iter()
        .map(|f| f.stats().queries.load(Ordering::Relaxed))
        .sum();
    let replica_lag_sheds: u64 = followers
        .iter()
        .map(|f| f.stats().shed_replica_lag.load(Ordering::Relaxed))
        .sum();
    let min_reconnects = followers
        .iter()
        .map(|f| f.status().connects())
        .min()
        .unwrap_or(0);
    let partition_fired = faults.hits(CrashPoint::LinkPartition) >= 1;

    let follower_states: Vec<ServeState> = followers.into_iter().map(Follower::shutdown).collect();
    if let Some(server) = rep_server {
        server.shutdown();
    }
    let primary = daemon.expect("daemon live").shutdown();

    let fingerprints_match = converged
        && follower_states
            .iter()
            .all(|f| f.fingerprint() == primary.fingerprint());
    let engine_identical = converged
        && follower_states
            .iter()
            .all(|f| f.engine().diff_from(primary.engine()).is_none());

    let outcome = ReplicaSmokeOutcome {
        papers_streamed: primary.papers_ingested(),
        follower_reads,
        replica_lag_sheds,
        wrong_epoch_reads,
        client_errors,
        partition_fired,
        failover_completed,
        min_reconnects,
        final_epoch,
        fingerprints_match,
        engine_identical,
    };
    if outcome.passed() {
        crate::checkpoint::scrub_wal_and_checkpoints(&wal_path);
    }
    outcome
}
