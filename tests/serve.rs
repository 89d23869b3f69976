//! Integration tests for the serving tier: epoch-snapshot semantics,
//! write-ahead-log warm restarts, and the TCP daemon end to end.
//!
//! The epoch contract under test: a reader holding an `Arc<Snapshot>` at
//! epoch N keeps a bit-frozen, internally consistent view across any
//! number of publishes (no torn reads — the partition, CSR, and caches in
//! one snapshot all belong to the same epoch), and a superseded epoch's
//! memory is reclaimed exactly when its last reader drops.

use std::sync::atomic::Ordering;
use std::sync::OnceLock;
use std::time::Duration;

use proptest::prelude::*;

use iuad_suite::core::{CacheScope, Decision, Iuad, IuadConfig, SimilarityEngine};
use iuad_suite::corpus::{Corpus, CorpusConfig, Paper};
use iuad_suite::serve::{
    checkpoint_path, list_checkpoints, read_wal, response_field, response_ok, response_shed,
    run_crash_matrix, run_replica_matrix, run_replica_smoke, Backoff, Client, CrashSpec, Daemon,
    DaemonConfig, EpochStore, FaultInjector, Follower, FollowerConfig, ReplicaSpec, ReplicationHub,
    ReplicationServer, ServeState, Wal, WalRecord, MAX_LINE_BYTES,
};
use serde::Value;

fn corpus() -> Corpus {
    Corpus::generate(&CorpusConfig {
        num_authors: 120,
        num_papers: 420,
        seed: 0x5e7e,
        ..Default::default()
    })
}

/// A scratch path under the system temp dir; any stale file is removed.
fn scratch_wal(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("iuad-serve-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn snapshot_epochs_stay_frozen_and_retire_with_their_readers() {
    let (base, tail) = corpus().split_tail(40);
    let mut state = ServeState::new(Iuad::fit(&base, &IuadConfig::default()), None);
    let store = EpochStore::new(state.publish());

    let reader = store.load();
    assert_eq!(reader.epoch, 1);
    let frozen_fp = reader.fingerprint();
    let frozen_vertices = reader.network.graph.num_vertices();
    let frozen_assignments = reader.network.assignment.len();

    // Publish epoch 2 while the reader is live.
    let half = tail.len() / 2;
    for (paper, _) in &tail[..half] {
        state.ingest(paper.clone());
    }
    store.publish(state.publish());

    // The reader's view is frozen at epoch 1, internally consistent: the
    // partition it started with is the partition it still sees, and its
    // CSR covers exactly its own vertices (no torn read of epoch-2 state).
    assert_eq!(reader.epoch, 1);
    assert_eq!(reader.fingerprint(), frozen_fp);
    assert_eq!(reader.network.graph.num_vertices(), frozen_vertices);
    assert_eq!(reader.network.assignment.len(), frozen_assignments);
    assert_eq!(reader.csr.num_vertices(), frozen_vertices);

    // New loads see epoch 2 with the absorbed papers...
    let current = store.load();
    assert_eq!(current.epoch, 2);
    assert!(current.network.assignment.len() > frozen_assignments);
    // ...and the store reports epoch 1 as superseded-but-pinned.
    assert_eq!(store.epochs_still_held(), vec![1]);

    // Epoch 2's snapshot is released before the next publish, so only the
    // still-pinned epoch 1 survives retirement.
    drop(current);
    for (paper, _) in &tail[half..] {
        state.ingest(paper.clone());
    }
    store.publish(state.publish());
    assert_eq!(store.epochs_still_held(), vec![1]);

    drop(reader);
    assert!(
        store.epochs_still_held().is_empty(),
        "dropping the last reader must reclaim the epoch"
    );
}

#[test]
fn wal_replay_reproduces_live_state_bit_identically() {
    let (base, tail) = corpus().split_tail(48);
    let config = IuadConfig::default();
    let path = scratch_wal("replay.wal");

    let wal = Wal::create(&path).expect("create WAL");
    let mut live = ServeState::new(Iuad::fit(&base, &config), Some(wal));
    live.publish();
    for (i, (paper, _)) in tail.iter().enumerate() {
        live.ingest(paper.clone());
        if (i + 1) % 8 == 0 {
            live.publish();
        }
    }
    live.publish();

    let records = read_wal(&path).expect("read WAL");
    let replayed = ServeState::replay(Iuad::fit(&base, &config), &records);
    assert_eq!(replayed.epoch(), live.epoch());
    assert_eq!(replayed.papers_ingested(), live.papers_ingested());
    assert_eq!(replayed.fingerprint(), live.fingerprint());
    assert_eq!(
        replayed.engine().diff_from(live.engine()),
        None,
        "replayed similarity caches must be bit-identical to the live ones"
    );

    // The epoch publish (an in-place engine refresh) must match a
    // from-scratch engine build over the same network: a stale
    // cache surviving absorb would silently skew every later decision.
    let rebuilt = SimilarityEngine::build(
        live.network(),
        live.ctx(),
        live.engine().alpha(),
        live.engine().wl_iters(),
        CacheScope::All,
    );
    assert_eq!(live.engine().diff_from(&rebuilt), None);

    let _ = std::fs::remove_file(&path);
}

/// Streaming adds mentions and vertices but never an edge — the
/// precondition that lets an epoch publish keep every pre-stream vertex's
/// WL and triangle caches. A change that makes streamed papers add their
/// collaborations to the network must change this test on purpose.
#[test]
fn streaming_leaves_the_edge_set_untouched() {
    let (base, tail) = corpus().split_tail(40);
    let mut state = ServeState::new(Iuad::fit(&base, &IuadConfig::default()), None);
    let before = state.network().graph.clone();
    let (mut existing, mut founded) = (0usize, 0usize);
    for (paper, _) in &tail {
        for (_, decision) in state.ingest(paper.clone()).1 {
            match decision {
                Decision::Existing { .. } => existing += 1,
                Decision::NewAuthor { .. } => founded += 1,
            }
        }
    }
    assert!(existing > 0, "the tail matched no existing author");
    assert!(founded > 0, "the tail founded no new author");
    let snapshot = state.publish();
    let after = &state.network().graph;
    assert_eq!(after.num_vertices(), before.num_vertices() + founded);
    assert_eq!(after.num_edges(), before.num_edges());
    for (v, _) in before.vertices() {
        let neighbours = before.sorted_neighbors(v);
        assert_eq!(after.sorted_neighbors(v), neighbours, "{v:?}");
        assert_eq!(snapshot.csr.neighbors(v), neighbours.as_slice(), "{v:?}");
    }
}

#[test]
fn more_clients_than_workers_all_make_progress() {
    let (base, _) = corpus().split_tail(50);
    let state = ServeState::new(Iuad::fit(&base, &IuadConfig::default()), None);
    let daemon = Daemon::spawn(
        state,
        &DaemonConfig {
            workers: 1,
            ..DaemonConfig::default()
        },
    )
    .expect("spawn daemon");
    let addr = daemon.addr();

    // With a single worker, the second long-lived connection only makes
    // progress if idle connections rotate back into the queue instead of
    // pinning the worker for their lifetime.
    let ping = Client::request("name_group", vec![("name", Value::U64(1))]);
    let mut first = Client::connect(addr).expect("connect first client");
    assert!(response_ok(
        &first.call(&ping).expect("first client served")
    ));

    let mut second = Client::connect(addr).expect("connect second client");
    for _ in 0..3 {
        assert!(response_ok(
            &second.call(&ping).expect("second client served")
        ));
        assert!(response_ok(
            &first.call(&ping).expect("first client still served")
        ));
    }

    daemon.shutdown();
}

/// A connection that idles past the daemon's 250 ms read tick goes back
/// through the shared connection queue. The worker rotating it must not
/// block on the queue's mutex, which the idle workers keep re-taking
/// between their `recv_timeout`s, or the connection is never read again.
#[test]
fn idle_connection_is_still_served_after_read_ticks() {
    let (base, _) = corpus().split_tail(50);
    let state = ServeState::new(Iuad::fit(&base, &IuadConfig::default()), None);
    // Many idle workers make the mutex hand-off race easy to lose.
    let daemon = Daemon::spawn(
        state,
        &DaemonConfig {
            workers: 8,
            ..DaemonConfig::default()
        },
    )
    .expect("spawn daemon");
    let addr = daemon.addr();

    // The client runs on its own thread so a starved request fails the
    // test instead of hanging it.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let ping = Client::request("name_group", vec![("name", Value::U64(1))]);
        let mut client = Client::connect(addr).expect("connect client");
        for _ in 0..8 {
            let t = std::time::Instant::now();
            let ok = client.call(&ping).is_ok_and(|r| response_ok(&r));
            if tx.send((ok, t.elapsed())).is_err() {
                return;
            }
            // Idle across at least one read tick before the next request.
            std::thread::sleep(Duration::from_millis(300));
        }
    });
    for i in 0..8 {
        let (ok, latency) = rx
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("request {i} after an idle read tick went unanswered"));
        assert!(ok, "request {i} failed");
        assert!(
            latency < Duration::from_secs(1),
            "request {i} after an idle read tick took {latency:?}"
        );
    }
    daemon.shutdown();
}

#[test]
fn daemon_serves_queries_while_streaming_and_warm_restarts() {
    let (base, tail) = corpus().split_tail(50);
    let config = IuadConfig::default();
    let path = scratch_wal("daemon.wal");
    let fit = || Iuad::fit(&base, &config);

    let wal = Wal::create(&path).expect("create WAL");
    let state = ServeState::new(fit(), Some(wal));
    let daemon = Daemon::spawn(
        state,
        &DaemonConfig {
            batch_size: 8,
            ..DaemonConfig::default()
        },
    )
    .expect("spawn daemon");
    let addr = daemon.addr();

    // Reader thread: mixed queries concurrent with the ingest stream below.
    // Shed responses are legal under admission control; anything else must
    // be ok.
    let queries = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect query client");
        let mut served = 0u32;
        for i in 0..120u64 {
            let request = if i % 2 == 0 {
                Client::request("name_group", vec![("name", Value::U64(i % 40))])
            } else {
                Client::request(
                    "whois",
                    vec![("name", Value::U64(i % 40)), ("year", Value::U64(2005))],
                )
            };
            let response = client.call(&request).expect("query round-trip");
            assert!(
                response_ok(&response) || response_shed(&response),
                "unexpected query response: {response:?}"
            );
            if response_ok(&response) {
                served += 1;
            }
        }
        served
    });

    let mut client = Client::connect(addr).expect("connect ingest client");
    for (paper, _) in &tail {
        let authors: Vec<Value> = paper
            .authors
            .iter()
            .map(|n| Value::U64(u64::from(n.0)))
            .collect();
        let request = Client::request(
            "ingest",
            vec![
                ("authors", Value::Array(authors)),
                ("title", Value::Str(paper.title.clone())),
                ("venue", Value::U64(u64::from(paper.venue.0))),
                ("year", Value::U64(u64::from(paper.year))),
            ],
        );
        // The bounded ingest queue may momentarily shed; retry until
        // accepted so every tail paper lands exactly once.
        loop {
            let response = client.call(&request).expect("ingest round-trip");
            if response_ok(&response) {
                assert!(response_field(&response, "paper").is_some());
                break;
            }
            assert!(response_shed(&response), "ingest failed: {response:?}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let flush = client
        .call(&Client::request("flush", vec![]))
        .expect("flush round-trip");
    assert!(response_ok(&flush));

    let served = queries.join().expect("query thread");
    assert!(served > 0, "no query was served");

    let stats = daemon.stats();
    assert_eq!(
        stats.errors.load(Ordering::Relaxed),
        0,
        "request plane reported errors"
    );
    assert_eq!(stats.ingested.load(Ordering::Relaxed), tail.len() as u64);
    let final_epoch = daemon.store().load().epoch;
    assert!(
        final_epoch >= 2,
        "expected at least two published epochs, got {final_epoch}"
    );

    let state = daemon.shutdown();
    assert_eq!(state.papers_ingested(), tail.len() as u64);
    let live_fp = state.fingerprint();
    drop(state); // close the WAL before reopening it

    // Warm restart: replaying the WAL over a fresh fit of the same base
    // corpus must land on the exact pre-shutdown partition.
    let records = read_wal(&path).expect("read WAL");
    let replayed = ServeState::replay(fit(), &records);
    assert_eq!(
        replayed.fingerprint(),
        live_fp,
        "warm restart diverged from the pre-shutdown state"
    );

    let _ = std::fs::remove_file(&path);
}

/// Remove a WAL file and every checkpoint (and temp) file next to it.
fn scrub_serving_files(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    for (_, ckpt) in list_checkpoints(path).unwrap_or_default() {
        let _ = std::fs::remove_file(ckpt);
    }
}

#[test]
fn crash_matrix_recovers_bit_identically_at_every_point() {
    let (base, tail) = corpus().split_tail(24);
    let state = ServeState::new(Iuad::fit(&base, &IuadConfig::default()), None);
    let papers: Vec<Paper> = tail.iter().map(|(p, _)| p.clone()).collect();
    let dir = std::env::temp_dir()
        .join("iuad-serve-tests")
        .join("crash-matrix");

    let report = run_crash_matrix(&state, &papers, &dir, &CrashSpec::default());
    for case in &report.cases {
        assert!(
            case.passed(),
            "crash point `{}` (hit {}) failed: crashed={} recovered={} fp_match={} \
             engine_identical={} error={:?}",
            case.point,
            case.nth,
            case.crashed,
            case.recovered,
            case.fingerprint_match,
            case.engine_identical,
            case.error
        );
    }
    assert_eq!(report.cases.len(), 6, "one case per named crash point");
    assert!(report.passed());
    // The matrix must exercise both recovery modes: checkpoint-based
    // (crashes after the first checkpoint landed) and plain WAL replay
    // (crashes before or during the first checkpoint write).
    assert!(
        report.cases.iter().any(|c| c.checkpoint_seq.is_some()),
        "no case recovered from a checkpoint"
    );
    assert!(
        report.cases.iter().any(|c| c.checkpoint_seq.is_none()),
        "no case exercised plain WAL replay"
    );
}

#[test]
fn checkpoint_compacts_wal_and_recovery_resumes_from_it() {
    let (base, tail) = corpus().split_tail(30);
    let config = IuadConfig::default();
    let path = scratch_wal("compact.wal");
    scrub_serving_files(&path);

    let fit_state = ServeState::new(Iuad::fit(&base, &config), None);
    let mut live = fit_state.clone_base();
    live.set_wal(Some(Wal::create(&path).expect("create WAL")));
    for (i, (paper, _)) in tail.iter().enumerate() {
        live.ingest(paper.clone());
        if (i + 1) % 8 == 0 {
            live.publish();
        }
        if i + 1 == 16 {
            live.checkpoint().expect("first checkpoint");
        }
    }

    // The checkpoint truncated the WAL: only post-checkpoint records remain.
    let wal_tail = read_wal(&path).expect("read WAL");
    assert!(
        !wal_tail.is_empty() && wal_tail.len() < tail.len(),
        "expected a compacted WAL holding only the post-checkpoint tail, got {} records",
        wal_tail.len()
    );

    let recovery = ServeState::recover_from_base(&fit_state, &path).expect("recover");
    assert_eq!(recovery.checkpoint_seq, Some(1));
    assert!(recovery.tail_records > 0);
    assert_eq!(recovery.corrupt_checkpoints, 0);
    assert_eq!(recovery.state.epoch(), live.epoch());
    assert_eq!(recovery.state.papers_ingested(), live.papers_ingested());
    assert_eq!(recovery.state.fingerprint(), live.fingerprint());
    assert_eq!(
        recovery.state.engine().diff_from(live.engine()),
        None,
        "recovered similarity caches must be bit-identical to the live ones"
    );

    // A second checkpoint folds the first plus the tail, and empties the WAL.
    live.checkpoint().expect("second checkpoint");
    assert!(read_wal(&path).expect("read WAL").is_empty());
    let recovery = ServeState::recover_from_base(&fit_state, &path).expect("recover from fold");
    assert_eq!(recovery.checkpoint_seq, Some(2));
    assert_eq!(recovery.tail_records, 0);
    assert_eq!(recovery.state.fingerprint(), live.fingerprint());

    // Checkpoint-only recovery: the WAL file itself may be gone.
    std::fs::remove_file(&path).expect("remove WAL");
    let recovery = ServeState::recover_from_base(&fit_state, &path).expect("recover without WAL");
    assert_eq!(recovery.checkpoint_seq, Some(2));
    assert_eq!(recovery.state.fingerprint(), live.fingerprint());

    scrub_serving_files(&path);
}

#[test]
fn recovery_falls_back_past_corruption_but_refuses_unprovable_gaps() {
    let (base, tail) = corpus().split_tail(20);
    let config = IuadConfig::default();
    let path = scratch_wal("fallback.wal");
    scrub_serving_files(&path);

    let fit_state = ServeState::new(Iuad::fit(&base, &config), None);
    let mut live = fit_state.clone_base();
    live.set_wal(Some(Wal::create(&path).expect("create WAL")));
    for (i, (paper, _)) in tail.iter().enumerate() {
        live.ingest(paper.clone());
        if (i + 1) % 8 == 0 {
            live.publish();
        }
        if i + 1 == 12 {
            live.checkpoint().expect("checkpoint");
        }
    }

    // A corrupt *newer* checkpoint whose records the WAL tail still covers:
    // recovery must reject it and fall back to checkpoint 1 + tail.
    let bogus = checkpoint_path(&path, 2);
    std::fs::write(&bogus, b"not a checkpoint\n").expect("write bogus checkpoint");
    let recovery = ServeState::recover_from_base(&fit_state, &path).expect("fall back");
    assert_eq!(recovery.checkpoint_seq, Some(1));
    assert_eq!(recovery.corrupt_checkpoints, 1);
    assert_eq!(recovery.state.fingerprint(), live.fingerprint());
    assert_eq!(recovery.state.epoch(), live.epoch());
    std::fs::remove_file(&bogus).expect("remove bogus checkpoint");

    // Now take a real second checkpoint (truncating the WAL) and corrupt
    // it. Its records exist nowhere else — the older checkpoint plus an
    // empty tail cannot be proven current, so recovery must refuse to
    // serve rather than silently rewind to a stale epoch.
    live.checkpoint().expect("second checkpoint");
    assert!(read_wal(&path).expect("read WAL").is_empty());
    std::fs::write(checkpoint_path(&path, 2), b"bit rot\n").expect("corrupt checkpoint 2");
    let err = ServeState::recover_from_base(&fit_state, &path)
        .expect_err("recovery must refuse a stale fallback");
    assert!(
        err.contains("refusing to serve"),
        "unexpected recovery error: {err}"
    );

    scrub_serving_files(&path);
}

/// Shared fixture for the corrupt-checkpoint proptest: one fitted base, a
/// driven live state checkpointed mid-stream, and the resulting durable
/// bytes (fitting per proptest case would dominate the suite's runtime).
struct RecoveryFixture {
    base: ServeState,
    live_fingerprint: u64,
    live_epoch: u64,
    wal_bytes: Vec<u8>,
    ckpt_bytes: Vec<u8>,
}

fn recovery_fixture() -> &'static RecoveryFixture {
    static FIXTURE: OnceLock<RecoveryFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (base, tail) = corpus().split_tail(24);
        let path = scratch_wal("prop-fixture.wal");
        scrub_serving_files(&path);
        let fit_state = ServeState::new(Iuad::fit(&base, &IuadConfig::default()), None);
        let mut live = fit_state.clone_base();
        live.set_wal(Some(Wal::create(&path).expect("create WAL")));
        for (i, (paper, _)) in tail.iter().enumerate() {
            live.ingest(paper.clone());
            if (i + 1) % 8 == 0 {
                live.publish();
            }
            if i + 1 == 20 {
                live.checkpoint().expect("fixture checkpoint");
            }
        }
        let wal_bytes = std::fs::read(&path).expect("read fixture WAL");
        let ckpt_bytes = std::fs::read(checkpoint_path(&path, 1)).expect("read fixture ckpt");
        let fixture = RecoveryFixture {
            base: fit_state,
            live_fingerprint: live.fingerprint(),
            live_epoch: live.epoch(),
            wal_bytes,
            ckpt_bytes,
        };
        scrub_serving_files(&path);
        fixture
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Feed recovery an arbitrarily torn or bit-flipped "newest" checkpoint
    /// next to a valid older checkpoint and an intact WAL tail. Whatever
    /// the damage, recovery must not panic and must land on the exact live
    /// state — the mutated checkpoint either survives validation (only
    /// possible when its payload is still equivalent) or is rejected in
    /// favour of the provably-current fallback. It must never serve a
    /// wrong epoch.
    #[test]
    fn corrupt_checkpoint_bytes_never_panic_or_serve_a_wrong_epoch(
        variant in 0usize..2,
        cut in 0usize..4096,
        pos in 0usize..4096,
        xor in 1u8..255,
    ) {
        let fixture = recovery_fixture();
        let path = scratch_wal("prop-case.wal");
        scrub_serving_files(&path);
        std::fs::write(&path, &fixture.wal_bytes).expect("write case WAL");
        std::fs::write(checkpoint_path(&path, 1), &fixture.ckpt_bytes)
            .expect("write valid checkpoint");

        let mut mutated = fixture.ckpt_bytes.clone();
        if variant == 0 {
            mutated.truncate(cut % (mutated.len() + 1));
        } else {
            let pos = pos % mutated.len();
            mutated[pos] ^= xor;
        }
        std::fs::write(checkpoint_path(&path, 2), &mutated).expect("write mutated checkpoint");

        let recovery = ServeState::recover_from_base(&fixture.base, &path);
        scrub_serving_files(&path);
        let recovery = recovery.expect("a valid fallback candidate always exists");
        prop_assert_eq!(recovery.state.fingerprint(), fixture.live_fingerprint);
        prop_assert_eq!(recovery.state.epoch(), fixture.live_epoch);
    }
}

#[test]
fn admission_sheds_carry_cause_and_retry_hint_and_backoff_recovers() {
    let (base, _) = corpus().split_tail(50);
    let state = ServeState::new(Iuad::fit(&base, &IuadConfig::default()), None);
    let faults = FaultInjector::seeded(0xfa_17);
    faults.arm_whois_stall(1, 200);
    let daemon = Daemon::spawn(
        state,
        &DaemonConfig {
            workers: 2,
            max_inflight_per_name: 1,
            faults: Some(std::sync::Arc::clone(&faults)),
            ..DaemonConfig::default()
        },
    )
    .expect("spawn daemon");
    let addr = daemon.addr();
    let whois = Client::request(
        "whois",
        vec![("name", Value::U64(3)), ("year", Value::U64(2005))],
    );

    // One client parks in the injected 200ms stall *while holding the
    // admission slot* for name 3...
    let slow = {
        let whois = whois.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect slow client");
            let response = client.call(&whois).expect("slow whois round-trip");
            assert!(response_ok(&response), "stalled whois failed: {response:?}");
        })
    };
    std::thread::sleep(Duration::from_millis(60));

    // ...so a second query for the same name is shed with a structured
    // response: the cause, the current depth, and a retry hint.
    let mut client = Client::connect(addr).expect("connect shed client");
    let response = client.call(&whois).expect("shed whois round-trip");
    assert!(response_shed(&response), "expected a shed: {response:?}");
    assert_eq!(
        response_field(&response, "cause"),
        Some(&Value::Str("admission".to_owned()))
    );
    assert!(matches!(
        response_field(&response, "retry_after_ms"),
        Some(Value::U64(ms)) if *ms > 0
    ));
    assert!(matches!(
        response_field(&response, "queue_depth"),
        Some(Value::U64(_))
    ));

    // Admission is per name: with name 3's slot still held, a query for a
    // cold name is served, not shed (unstalled, so it returns while the
    // hot holder is still parked).
    faults.arm_whois_stall(1, 0);
    let cold = Client::request(
        "whois",
        vec![("name", Value::U64(4)), ("year", Value::U64(2005))],
    );
    let response = client.call(&cold).expect("cold whois round-trip");
    assert!(response_ok(&response), "cold name not served: {response:?}");

    // The seeded backoff client turns that hint into an eventual success
    // once the stalled holder drains.
    let response = client
        .call_with_backoff(
            &whois,
            &Backoff {
                attempts: 10,
                base_ms: 40,
                cap_ms: 250,
                jitter_seed: 0x5e7e,
            },
        )
        .expect("backoff whois round-trip");
    assert!(
        response_ok(&response),
        "backoff client never got through: {response:?}"
    );

    slow.join().expect("slow client thread");
    let stats = daemon.stats();
    assert!(
        stats.shed_admission.load(Ordering::Relaxed) >= 1,
        "per-cause shed counter did not record the admission shed"
    );
    assert_eq!(
        stats.shed_admission.load(Ordering::Relaxed)
            + stats.shed_ingest_full.load(Ordering::Relaxed),
        stats.shed.load(Ordering::Relaxed),
        "per-cause shed counters must partition the total"
    );
    daemon.shutdown();
}

#[test]
fn daemon_checkpoint_op_compacts_and_warm_restart_uses_it() {
    let (base, tail) = corpus().split_tail(20);
    let config = IuadConfig::default();
    let path = scratch_wal("daemon-ckpt.wal");
    scrub_serving_files(&path);
    let fit = || Iuad::fit(&base, &config);

    let wal = Wal::create(&path).expect("create WAL");
    let daemon = Daemon::spawn(
        ServeState::new(fit(), Some(wal)),
        &DaemonConfig {
            batch_size: 8,
            ..DaemonConfig::default()
        },
    )
    .expect("spawn daemon");

    let mut client = Client::connect(daemon.addr()).expect("connect");
    for (paper, _) in &tail {
        let authors: Vec<Value> = paper
            .authors
            .iter()
            .map(|n| Value::U64(u64::from(n.0)))
            .collect();
        let request = Client::request(
            "ingest",
            vec![
                ("authors", Value::Array(authors)),
                ("title", Value::Str(paper.title.clone())),
                ("venue", Value::U64(u64::from(paper.venue.0))),
                ("year", Value::U64(u64::from(paper.year))),
            ],
        );
        let response = client
            .call_with_backoff(&request, &Backoff::default())
            .expect("ingest round-trip");
        assert!(response_ok(&response), "ingest failed: {response:?}");
    }
    let flush = client
        .call(&Client::request("flush", vec![]))
        .expect("flush round-trip");
    assert!(response_ok(&flush));

    // The wire-level checkpoint op compacts the WAL in the ingest thread.
    let response = client
        .call(&Client::request("checkpoint", vec![]))
        .expect("checkpoint round-trip");
    assert!(response_ok(&response), "checkpoint failed: {response:?}");
    assert_eq!(response_field(&response, "seq"), Some(&Value::U64(1)));
    assert_eq!(daemon.stats().checkpoints.load(Ordering::Relaxed), 1);
    assert!(read_wal(&path).expect("read WAL").is_empty());

    let state = daemon.shutdown();
    let live_fp = state.fingerprint();
    drop(state); // close the WAL before recovery reopens the files

    // Warm restart now goes through the checkpoint, not a full replay.
    let recovery = ServeState::recover(fit(), &path).expect("recover");
    assert_eq!(recovery.checkpoint_seq, Some(1));
    assert_eq!(recovery.tail_records, 0);
    assert_eq!(
        recovery.state.fingerprint(),
        live_fp,
        "checkpoint warm restart diverged from the pre-shutdown state"
    );

    scrub_serving_files(&path);
}

#[test]
fn replica_matrix_pins_followers_bit_identical_at_every_point() {
    let (base, tail) = corpus().split_tail(40);
    let state = ServeState::new(Iuad::fit(&base, &IuadConfig::default()), None);
    let papers: Vec<Paper> = tail.iter().map(|(p, _)| p.clone()).collect();
    let dir = std::env::temp_dir()
        .join("iuad-serve-tests")
        .join("replica-matrix");

    let report = run_replica_matrix(&state, &papers, &dir, &ReplicaSpec::default());
    for case in &report.cases {
        assert!(
            case.passed(),
            "replication point `{}` (hit {}) failed: fired={} reconnects={} \
             applied={}/{} epochs={}≟{} fp_match={} engine_identical={} error={:?}",
            case.point,
            case.nth,
            case.fault_fired,
            case.reconnects,
            case.applied,
            case.shipped,
            case.follower_epoch,
            case.primary_epoch,
            case.fingerprint_match,
            case.engine_identical,
            case.error
        );
        // The consistency contract, point by point: the follower ends at
        // exactly the primary's published epoch (it can never observe an
        // epoch the primary never published — epoch snapshots come only
        // from applying the primary's own markers) and is bit-identical
        // to the primary's durable prefix.
        assert_eq!(case.follower_epoch, case.primary_epoch);
        assert!(case.fingerprint_match && case.engine_identical);
        assert!(
            case.reconnects >= 2,
            "`{}`: the follower must have survived a link death and come back",
            case.point
        );
    }
    assert_eq!(
        report.cases.len(),
        5,
        "one case per replication fault point"
    );
    assert!(report.passed());
}

#[test]
fn follower_sheds_past_staleness_bound_and_recovers_when_lag_drains() {
    let (base, tail) = corpus().split_tail(16);
    let fit_state = ServeState::new(Iuad::fit(&base, &IuadConfig::default()), None);
    let path = scratch_wal("replica-lag.wal");
    scrub_serving_files(&path);

    let mut primary = fit_state.clone_base();
    primary.set_wal(Some(Wal::create(&path).expect("create WAL")));
    let hub = ReplicationHub::new(primary.durable_history().expect("empty history"));
    primary.set_ship(Some(std::sync::Arc::clone(&hub)));
    let server =
        ReplicationServer::spawn(std::sync::Arc::clone(&hub), None).expect("replication server");

    let faults = FaultInjector::seeded(0x1a6_5eed);
    let follower = Follower::spawn(
        fit_state.clone_base(),
        server.addr(),
        &FollowerConfig {
            max_lag_epochs: 1,
            faults: Some(std::sync::Arc::clone(&faults)),
            ..FollowerConfig::default()
        },
    )
    .expect("spawn follower");

    // Let the follower sync cleanly first.
    primary.publish();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while follower.status().applied_epoch() < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "follower never synced epoch 1"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Stall every apply while the primary publishes several epochs: lag
    // grows past the bound while the records are still in flight.
    faults.arm_apply_stall(1, 400);
    for chunk in tail.chunks(2) {
        for (paper, _) in chunk {
            primary.ingest(paper.clone());
        }
        primary.publish();
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while follower.status().lag_epochs() <= 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "stalled follower never exceeded the staleness bound \
             (lag = {})",
            follower.status().lag_epochs()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // A read past the bound sheds with the structured replica-lag cause.
    let whois = Client::request(
        "whois",
        vec![("name", Value::U64(3)), ("year", Value::U64(2005))],
    );
    let mut client = Client::connect(follower.addr()).expect("connect follower");
    let response = client.call(&whois).expect("whois round-trip");
    assert!(response_shed(&response), "expected a shed: {response:?}");
    assert_eq!(
        response_field(&response, "cause"),
        Some(&Value::Str("replica-lag".to_owned()))
    );
    assert!(matches!(
        response_field(&response, "retry_after_ms"),
        Some(Value::U64(ms)) if *ms >= 8
    ));
    assert!(
        follower.stats().shed_replica_lag.load(Ordering::Relaxed) >= 1,
        "per-cause replica-lag counter did not record the shed"
    );

    // Writes are refused outright on a follower — they belong at the
    // primary, lagging or not.
    let refused = client
        .call(&Client::request(
            "ingest",
            vec![("authors", Value::Array(vec![Value::U64(3)]))],
        ))
        .expect("ingest round-trip");
    assert!(!response_ok(&refused) && !response_shed(&refused));

    // Drain the lag (stall off) and the same read succeeds, stamped with
    // the primary's exact epoch and zero staleness.
    faults.arm_apply_stall(1, 0);
    let target = primary.epoch();
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while follower.status().applied_epoch() < target {
        assert!(
            std::time::Instant::now() < deadline,
            "follower never drained its backlog"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let response = client.call(&whois).expect("whois after catch-up");
    assert!(
        response_ok(&response),
        "caught-up read failed: {response:?}"
    );
    assert_eq!(
        response_field(&response, "epoch"),
        Some(&Value::U64(target))
    );
    assert_eq!(response_field(&response, "staleness"), Some(&Value::U64(0)));

    // The follower's health op reports role and replication position.
    let health = client
        .call(&Client::request("health", vec![]))
        .expect("health round-trip");
    assert!(response_ok(&health));
    assert_eq!(
        response_field(&health, "role"),
        Some(&Value::Str("follower".to_owned()))
    );
    assert_eq!(response_field(&health, "lag_epochs"), Some(&Value::U64(0)));

    let follower_state = follower.shutdown();
    server.shutdown();
    assert_eq!(follower_state.fingerprint(), primary.fingerprint());
    assert_eq!(
        follower_state.engine().diff_from(primary.engine()),
        None,
        "caught-up follower must be bit-identical to the primary"
    );
    scrub_serving_files(&path);
}

#[test]
fn replica_smoke_survives_partition_and_primary_death_with_zero_errors() {
    let outcome = run_replica_smoke();
    assert!(
        outcome.passed(),
        "replica smoke failed its gates: {outcome:?}"
    );
    assert_eq!(outcome.wrong_epoch_reads, 0);
    assert_eq!(outcome.client_errors, 0);
    assert!(outcome.partition_fired && outcome.failover_completed);
}

#[test]
fn ingest_shed_backlog_never_exceeds_queue_capacity() {
    // The relaxed `queue_depth` gauge is incremented before `try_send`, so
    // senders racing into a full queue each read a depth transiently
    // inflated past the channel bound. The shed response must clamp: a
    // client pacing itself off `queue_depth` / `retry_after_ms` should see
    // the real backlog bound, not the race artefact.
    const CAPACITY: u64 = 1;
    const SENDERS: usize = 8;
    let (base, tail) = corpus().split_tail(64);
    let state = ServeState::new(Iuad::fit(&base, &IuadConfig::default()), None);
    let daemon = Daemon::spawn(
        state,
        &DaemonConfig {
            workers: SENDERS,
            ingest_queue: CAPACITY as usize,
            ..DaemonConfig::default()
        },
    )
    .expect("spawn daemon");
    let addr = daemon.addr();
    let papers: Vec<Paper> = tail.iter().map(|(p, _)| p.clone()).collect();

    let threads: Vec<_> = (0..SENDERS)
        .map(|_| {
            let papers = papers.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect ingest client");
                let mut sheds = 0u64;
                for paper in &papers {
                    let authors: Vec<Value> = paper
                        .authors
                        .iter()
                        .map(|n| Value::U64(u64::from(n.0)))
                        .collect();
                    let request = Client::request(
                        "ingest",
                        vec![
                            ("authors", Value::Array(authors)),
                            ("title", Value::Str(paper.title.clone())),
                            ("venue", Value::U64(u64::from(paper.venue.0))),
                            ("year", Value::U64(u64::from(paper.year))),
                        ],
                    );
                    let response = client.call(&request).expect("ingest round-trip");
                    if response_shed(&response) {
                        sheds += 1;
                        match response_field(&response, "queue_depth") {
                            Some(Value::U64(depth)) => assert!(
                                *depth <= CAPACITY,
                                "shed reported backlog {depth} past the \
                                 {CAPACITY}-slot ingest queue"
                            ),
                            other => panic!("shed without a numeric queue_depth: {other:?}"),
                        }
                        match response_field(&response, "retry_after_ms") {
                            Some(Value::U64(ms)) => assert!(*ms > 0, "zero retry hint"),
                            other => panic!("shed without a numeric retry_after_ms: {other:?}"),
                        }
                    } else {
                        assert!(response_ok(&response), "ingest failed: {response:?}");
                    }
                }
                sheds
            })
        })
        .collect();
    let total_sheds: u64 = threads.into_iter().map(|t| t.join().expect("sender")).sum();

    // 8 senders against a single-slot queue must collide at least once;
    // without sheds the clamp above was never exercised.
    assert!(total_sheds >= 1, "hammer produced no ingest sheds");
    let stats = daemon.stats();
    assert_eq!(stats.shed_ingest_full.load(Ordering::Relaxed), total_sheds);
    assert_eq!(stats.errors.load(Ordering::Relaxed), 0);
    daemon.shutdown();
}

/// Send `payload` to a fresh daemon and require an error reply containing
/// `expect`, exactly one `errors` increment, the hostile connection closed
/// afterwards when `closes`, and the daemon still serving other clients.
fn assert_hostile_line_refused(payload: &[u8], expect: &str, closes: bool) {
    use std::io::{BufRead, BufReader, Read, Write};

    let (base, _) = corpus().split_tail(50);
    let state = ServeState::new(Iuad::fit(&base, &IuadConfig::default()), None);
    let daemon = Daemon::spawn(state, &DaemonConfig::default()).expect("spawn daemon");
    let addr = daemon.addr();
    let errors_before = daemon.stats().errors.load(Ordering::Relaxed);

    let mut hostile = std::net::TcpStream::connect(addr).expect("connect hostile client");
    hostile
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    hostile.write_all(payload).expect("send hostile line");
    let mut reader = BufReader::new(&hostile);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    assert!(
        reply.contains("\"ok\":false") && reply.contains(expect),
        "expected an error reply, got {reply:?}"
    );
    if closes {
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).expect("connection closed");
        assert!(rest.is_empty(), "unexpected bytes after the reply");
    }
    assert_eq!(
        daemon.stats().errors.load(Ordering::Relaxed),
        errors_before + 1
    );

    let mut client = Client::connect(addr).expect("connect after the hostile line");
    let ping = Client::request("name_group", vec![("name", Value::U64(1))]);
    assert!(response_ok(&client.call(&ping).expect("still served")));
    daemon.shutdown();
}

/// A request line of 100,000 `[` is refused as malformed. The JSON parser
/// recurses once per nesting level, so without a depth cap this line runs
/// a worker off its 2 MiB stack, and a stack overflow aborts the whole
/// process rather than panicking one thread.
#[test]
fn deeply_nested_request_is_an_error_not_an_abort() {
    let mut line = "[".repeat(100_000);
    line.push('\n');
    assert_hostile_line_refused(line.as_bytes(), "malformed request", false);
}

/// A peer that never sends a newline must not grow daemon memory without
/// bound: past `MAX_LINE_BYTES` the request line is refused and the
/// connection closed.
#[test]
fn oversized_request_line_is_refused_and_the_daemon_keeps_serving() {
    assert_hostile_line_refused(&vec![b'x'; MAX_LINE_BYTES + 1], "too long", true);
}

/// The replication endpoint bounds its frame reads the same way: a
/// "follower" whose handshake frame runs past `MAX_LINE_BYTES` without a
/// newline is refused and disconnected at once, not buffered until the
/// read times out.
#[test]
fn oversized_replication_frame_is_refused() {
    use std::io::{BufRead, BufReader, Write};

    let hub = ReplicationHub::new(Vec::new());
    let server = ReplicationServer::spawn(hub, None).expect("spawn replication server");
    let mut hostile = std::net::TcpStream::connect(server.addr()).expect("connect");
    hostile
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    hostile
        .write_all(&vec![b'x'; MAX_LINE_BYTES + 1])
        .expect("send oversized frame");
    let mut reply = String::new();
    BufReader::new(&hostile)
        .read_line(&mut reply)
        .expect("read reply");
    assert!(
        reply.contains("\"refused\"") && reply.contains("too long"),
        "expected a refused frame, got {reply:?}"
    );
    server.shutdown();
}

/// A logged record frames wider than its request, so a request under
/// `MAX_LINE_BYTES` could log a record past the follower's frame cap and
/// stall every follower on its resend. The daemon refuses that ingest.
#[test]
fn ingest_whose_record_could_pass_the_frame_cap_is_refused() {
    let line = format!(
        "{{\"op\":\"ingest\",\"authors\":[3],\"title\":\"{}\"}}\n",
        "x".repeat(MAX_LINE_BYTES - 100)
    );
    assert_hostile_line_refused(line.as_bytes(), "paper too large", false);
}

/// A record whose widest frame is exactly the cap is logged, shipped and
/// applied: a live follower catches up bit-identical to the primary.
#[test]
fn record_at_the_frame_cap_replicates() {
    let (base, tail) = corpus().split_tail(1);
    let fit_state = ServeState::new(Iuad::fit(&base, &IuadConfig::default()), None);
    let path = scratch_wal("frame-cap.wal");
    scrub_serving_files(&path);
    let mut primary = fit_state.clone_base();
    primary.set_wal(Some(Wal::create(&path).expect("create WAL")));
    let hub = ReplicationHub::new(primary.durable_history().expect("empty history"));
    primary.set_ship(Some(std::sync::Arc::clone(&hub)));
    let server = ReplicationServer::spawn(hub, None).expect("replication server");
    let follower = Follower::spawn(
        fit_state.clone_base(),
        server.addr(),
        &FollowerConfig::default(),
    )
    .expect("spawn follower");

    // The length prefix grows with the title, so step down onto the cap.
    let mut paper = tail[0].0.clone();
    paper.title = "x".repeat(MAX_LINE_BYTES);
    while WalRecord::widest_frame_len(&paper) > MAX_LINE_BYTES {
        let excess = WalRecord::widest_frame_len(&paper) - MAX_LINE_BYTES;
        paper.title.truncate(paper.title.len() - excess);
    }
    assert_eq!(WalRecord::widest_frame_len(&paper), MAX_LINE_BYTES);
    primary.ingest(paper);
    primary.publish();
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while follower.status().applied_epoch() < primary.epoch() {
        assert!(
            std::time::Instant::now() < deadline,
            "follower never applied the record at the cap"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let follower_state = follower.shutdown();
    server.shutdown();
    assert_eq!(follower_state.fingerprint(), primary.fingerprint());
    assert_eq!(follower_state.engine().diff_from(primary.engine()), None);
    scrub_serving_files(&path);
}
