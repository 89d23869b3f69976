//! `iuad` — command-line interface for the disambiguation pipeline.
//!
//! ```sh
//! iuad generate --papers 8000 --authors 2000 --seed 42 corpus.jsonl
//! iuad fit corpus.jsonl                      # fit + evaluate + report
//! iuad evaluate corpus.jsonl --eta 3         # with overrides
//! iuad serve corpus.jsonl --wal serve.wal    # long-lived daemon
//! iuad serve-smoke                           # end-to-end serving gate
//! ```
//!
//! `serve` fits the corpus and starts the serving daemon (README
//! § Serving): line-delimited JSON over loopback TCP, epoch snapshots,
//! write-ahead persistence. With `--wal`, an existing log is replayed
//! first (warm restart) and then appended to. The process runs until a
//! client sends `{"op":"shutdown"}`.
//!
//! Corpora are the JSONL format of `iuad_corpus::save_jsonl` (self-contained
//! header + one record per paper). Since generated corpora carry ground
//! truth, `fit`/`evaluate` also report pairwise micro metrics and B³ over
//! the ambiguous test names.

use std::path::PathBuf;
use std::process::exit;

use iuad_core::{Iuad, IuadConfig};
use iuad_corpus::{load_jsonl, save_jsonl, select_test_names, Corpus, CorpusConfig};
use iuad_eval::{pairwise_confusion, Confusion, Table};

fn usage() -> ! {
    eprintln!(
        "usage:\n  iuad generate [--papers N] [--authors N] [--seed S] <out.jsonl>\n  iuad fit <corpus.jsonl> [--eta N] [--delta X] [--bench-json PATH]\n  iuad evaluate <corpus.jsonl> [--eta N] [--delta X] [--bench-json PATH]\n  iuad serve <corpus.jsonl> [--role primary|follower] [--wal PATH] [--fsync true] [--workers N] [--batch N] [--max-inflight N] [--queue N] [--checkpoint-every N] [--replicate-from ADDR] [--max-lag-epochs N] [--eta N] [--delta X]\n  iuad serve-smoke\n  iuad serve-crash [--json PATH]\n  iuad serve-replica [--json PATH]"
    );
    exit(2)
}

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(argv: &[String]) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let Some(v) = it.next() else { usage() };
                flags.push((name.to_string(), v.clone()));
            } else {
                positional.push(a.clone());
            }
        }
        Args { positional, flags }
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.parse().ok())
    }
}

fn report(corpus: &Corpus, iuad: &Iuad) {
    let test = select_test_names(corpus, 2, 3, 50);
    let mut conf = Confusion::default();
    let mut b3_p = 0.0;
    let mut b3_r = 0.0;
    for row in &test.names {
        let mentions = corpus.mentions_of_name(row.name);
        let truth: Vec<u32> = mentions.iter().map(|m| corpus.truth_of(*m).0).collect();
        let pred = iuad.labels_of_name(corpus, row.name);
        conf.add(pairwise_confusion(&pred, &truth));
        let (p, r, _) = iuad_eval::b_cubed(&pred, &truth);
        b3_p += p;
        b3_r += r;
    }
    let m = conf.metrics();
    let n = test.names.len().max(1) as f64;
    let mut t = Table::new(["metric", "value"]);
    t.row(["ambiguous test names", &test.names.len().to_string()]);
    t.row(["MicroA", &format!("{:.4}", m.accuracy)]);
    t.row(["MicroP", &format!("{:.4}", m.precision)]);
    t.row(["MicroR", &format!("{:.4}", m.recall)]);
    t.row(["MicroF", &format!("{:.4}", m.f1)]);
    t.row(["B3 precision (avg)", &format!("{:.4}", b3_p / n)]);
    t.row(["B3 recall (avg)", &format!("{:.4}", b3_r / n)]);
    println!("{t}");
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        usage();
    }
    let cmd = argv[0].as_str();
    let args = Args::parse(&argv[1..]);

    match cmd {
        "generate" => {
            let Some(out) = args.positional.first() else {
                usage()
            };
            let config = CorpusConfig {
                num_papers: args.get("papers").unwrap_or(8_000),
                num_authors: args.get("authors").unwrap_or(2_000),
                seed: args.get("seed").unwrap_or(42),
                ..Default::default()
            };
            let (corpus, rep) = Corpus::generate_with_report(&config);
            if let Err(e) = save_jsonl(&corpus, &PathBuf::from(out)) {
                eprintln!("error: {e}");
                exit(1);
            }
            println!(
                "wrote {out}: {} papers, {} names ({} ambiguous, max {} authors/name), {} mentions",
                corpus.papers.len(),
                rep.num_names,
                rep.ambiguous_names,
                rep.max_authors_per_name,
                rep.num_mentions
            );
        }
        "fit" | "evaluate" => {
            let Some(input) = args.positional.first() else {
                usage()
            };
            let corpus = match load_jsonl(&PathBuf::from(input)) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error loading {input}: {e}");
                    exit(1);
                }
            };
            let mut config = IuadConfig::default();
            if let Some(eta) = args.get("eta") {
                config.eta = eta;
            }
            if let Some(delta) = args.get("delta") {
                config.gcn.delta = delta;
            }
            let (iuad, elapsed) = iuad_eval::time_it(|| Iuad::fit(&corpus, &config));
            // `--bench-json PATH`: this fit's recorded stage timings, per
            // the BENCH_pipeline.json schema of README § Performance.
            if let Some(path) = args.get::<PathBuf>("bench-json") {
                let bench = iuad_bench::experiments::perf::bench_of(&corpus, &iuad);
                match serde_json::to_string(&bench)
                    .map_err(std::io::Error::other)
                    .and_then(|json| std::fs::write(&path, json))
                {
                    Ok(()) => eprintln!("wrote {}", path.display()),
                    Err(e) => {
                        eprintln!("error writing {}: {e}", path.display());
                        exit(1);
                    }
                }
            }
            println!(
                "fitted in {elapsed:.2?}: {} SCN vertices, {} η-SCRs, {} GCN clusters ({} merges)\n",
                iuad.scn.graph.num_vertices(),
                iuad.scn.scrs.len(),
                iuad.gcn.num_clusters,
                iuad.gcn.num_merges
            );
            report(&corpus, &iuad);
        }
        "serve" => {
            let Some(input) = args.positional.first() else {
                usage()
            };
            let corpus = match load_jsonl(&PathBuf::from(input)) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error loading {input}: {e}");
                    exit(1);
                }
            };
            let mut config = IuadConfig::default();
            if let Some(eta) = args.get("eta") {
                config.eta = eta;
            }
            if let Some(delta) = args.get("delta") {
                config.gcn.delta = delta;
            }
            let role_name = args
                .get::<String>("role")
                .unwrap_or_else(|| "primary".to_owned());
            let Some(role) = iuad_serve::Role::parse(&role_name) else {
                eprintln!("error: --role must be `primary` or `follower`, got `{role_name}`");
                exit(2);
            };
            let (iuad, elapsed) = iuad_eval::time_it(|| Iuad::fit(&corpus, &config));
            eprintln!(
                "fitted in {elapsed:.2?}: {} vertices over {} papers",
                iuad.network.graph.num_vertices(),
                corpus.papers.len()
            );
            if role == iuad_serve::Role::Follower {
                // Read-only replica: bootstrap from the fitted base and
                // replay the primary's shipped WAL stream from there. The
                // cursor handshake resumes the stream exactly; ingest is
                // refused and routed to the primary by clients.
                let Some(primary) = args.get::<std::net::SocketAddr>("replicate-from") else {
                    eprintln!("error: --role follower requires --replicate-from HOST:PORT");
                    exit(2);
                };
                let follower_config = iuad_serve::FollowerConfig {
                    workers: args.get("workers").unwrap_or(2),
                    max_inflight_per_name: args.get("max-inflight").unwrap_or(2),
                    max_lag_epochs: args.get("max-lag-epochs").unwrap_or(4),
                    ..Default::default()
                };
                let state = iuad_serve::ServeState::new(iuad, None);
                let follower = match iuad_serve::Follower::spawn(state, primary, &follower_config) {
                    Ok(f) => f,
                    Err(e) => {
                        eprintln!("error starting follower: {e}");
                        exit(1);
                    }
                };
                println!(
                    "follower serving on {} (replicating from {primary}, \
                     max lag {} epochs) — send {{\"op\":\"shutdown\"}} to stop",
                    follower.addr(),
                    follower_config.max_lag_epochs
                );
                while !follower.shutdown_requested() {
                    if let Some(failure) = follower.status().failure() {
                        eprintln!("replication failed: {failure}");
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(200));
                }
                let state = follower.shutdown();
                println!(
                    "follower shut down at epoch {} after {} applied papers, fingerprint {}",
                    state.epoch(),
                    state.papers_ingested(),
                    iuad_serve::fingerprint_hex(state.fingerprint())
                );
                return;
            }
            if args.get::<String>("replicate-from").is_some() {
                eprintln!("error: --replicate-from only applies to --role follower");
                exit(2);
            }
            let fsync = args.get("fsync").unwrap_or(false);
            let state = match args.get::<PathBuf>("wal") {
                Some(path)
                    if path.exists()
                        || !iuad_serve::list_checkpoints(&path)
                            .map(|l| l.is_empty())
                            .unwrap_or(true) =>
                {
                    // Warm restart: run the recovery state machine (newest
                    // valid checkpoint + WAL tail, with fallback), then
                    // keep appending to the same log (append_to truncates
                    // any torn tail a crash left behind).
                    let recovery = match iuad_serve::ServeState::recover(iuad, &path) {
                        Ok(r) => r,
                        Err(e) => {
                            eprintln!("error recovering from {}: {e}", path.display());
                            exit(1);
                        }
                    };
                    let mut state = recovery.state;
                    match recovery.checkpoint_seq {
                        Some(seq) => eprintln!(
                            "recovered from checkpoint {seq} ({} records) + {} WAL tail \
                             records ({} corrupt checkpoint(s) skipped): {} papers, epoch {}",
                            recovery.checkpoint_records,
                            recovery.tail_records,
                            recovery.corrupt_checkpoints,
                            state.papers_ingested(),
                            state.epoch()
                        ),
                        None => eprintln!(
                            "replayed {} WAL records: {} papers, epoch {}",
                            recovery.tail_records,
                            state.papers_ingested(),
                            state.epoch()
                        ),
                    }
                    if !path.exists() {
                        // Checkpoint-only recovery (the WAL file itself was
                        // lost): start a fresh, empty log.
                        if let Err(e) = std::fs::File::create(&path) {
                            eprintln!("error recreating WAL {}: {e}", path.display());
                            exit(1);
                        }
                    }
                    match iuad_serve::Wal::append_to(&path) {
                        Ok(mut wal) => {
                            wal.set_fsync(fsync);
                            state.set_wal(Some(wal));
                        }
                        Err(e) => {
                            eprintln!("error reopening WAL {}: {e}", path.display());
                            exit(1);
                        }
                    }
                    state
                }
                Some(path) => match iuad_serve::Wal::create(&path) {
                    Ok(mut wal) => {
                        wal.set_fsync(fsync);
                        iuad_serve::ServeState::new(iuad, Some(wal))
                    }
                    Err(e) => {
                        eprintln!("error creating WAL {}: {e}", path.display());
                        exit(1);
                    }
                },
                None => iuad_serve::ServeState::new(iuad, None),
            };
            // A primary with a durable log ships it: seed the hub with the
            // folded history (so followers can bootstrap from record 0)
            // and accept follower connections alongside the query plane.
            let replication = match args.get::<PathBuf>("wal") {
                Some(_) => {
                    let history = match state.durable_history() {
                        Ok(h) => h,
                        Err(e) => {
                            eprintln!("error folding durable history: {e}");
                            exit(1);
                        }
                    };
                    let hub = iuad_serve::ReplicationHub::new(history);
                    let server = match iuad_serve::ReplicationServer::spawn(
                        std::sync::Arc::clone(&hub),
                        None,
                    ) {
                        Ok(s) => s,
                        Err(e) => {
                            eprintln!("error starting replication server: {e}");
                            exit(1);
                        }
                    };
                    eprintln!(
                        "shipping WAL to followers on {} (--replicate-from target)",
                        server.addr()
                    );
                    Some((hub, server))
                }
                None => None,
            };
            let daemon_config = iuad_serve::DaemonConfig {
                workers: args.get("workers").unwrap_or(4),
                batch_size: args.get("batch").unwrap_or(16),
                max_inflight_per_name: args.get("max-inflight").unwrap_or(2),
                ingest_queue: args.get("queue").unwrap_or(64),
                checkpoint_every: args.get("checkpoint-every").unwrap_or(0),
                faults: None,
                ship: replication
                    .as_ref()
                    .map(|(hub, _)| std::sync::Arc::clone(hub)),
            };
            let daemon = match iuad_serve::Daemon::spawn(state, &daemon_config) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("error starting daemon: {e}");
                    exit(1);
                }
            };
            println!(
                "serving on {} — send {{\"op\":\"shutdown\"}} to stop",
                daemon.addr()
            );
            while !daemon.shutdown_requested() {
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
            if let Some((_, server)) = replication {
                server.shutdown();
            }
            let state = daemon.shutdown();
            println!(
                "shut down at epoch {} after {} streamed papers, fingerprint {}",
                state.epoch(),
                state.papers_ingested(),
                iuad_serve::fingerprint_hex(state.fingerprint())
            );
        }
        "serve-crash" => {
            // The release crash-matrix gate: seeded corpus, streamed
            // ingest with publishes and checkpoints, an injected kill at
            // every named crash point, recovery, and a bit-identity
            // assertion against an uncrashed control.
            let corpus = Corpus::generate(&CorpusConfig {
                num_authors: 120,
                num_papers: 440,
                seed: 0xc4a5_5eed,
                ..Default::default()
            });
            let (base, tail) = corpus.split_tail(24);
            let iuad = Iuad::fit(&base, &IuadConfig::default());
            let state = iuad_serve::ServeState::new(iuad, None);
            let papers: Vec<_> = tail.iter().map(|(p, _)| p.clone()).collect();
            let dir = std::env::temp_dir().join("iuad-serve-crash");
            let report = iuad_serve::run_crash_matrix(
                &state,
                &papers,
                &dir,
                &iuad_serve::CrashSpec::default(),
            );
            let mut t = Table::new(["crash point", "nth", "papers", "epoch", "from", "status"]);
            for case in &report.cases {
                let from = match case.checkpoint_seq {
                    Some(seq) => format!("ckpt {seq} + {} tail", case.tail_records),
                    None => format!("replay ({} records)", case.tail_records),
                };
                let status = if case.passed() {
                    "bit-identical".to_owned()
                } else {
                    case.error.clone().unwrap_or_else(|| "failed".to_owned())
                };
                t.row([
                    &case.point,
                    &case.nth.to_string(),
                    &case.papers.to_string(),
                    &case.epoch.to_string(),
                    &from,
                    &status,
                ]);
            }
            println!("{t}");
            if let Some(path) = args.get::<PathBuf>("json") {
                match serde_json::to_string(&report)
                    .map_err(std::io::Error::other)
                    .and_then(|json| std::fs::write(&path, json))
                {
                    Ok(()) => eprintln!("wrote {}", path.display()),
                    Err(e) => {
                        eprintln!("error writing {}: {e}", path.display());
                        exit(1);
                    }
                }
            }
            if report.passed() {
                println!("serve crash matrix OK");
            } else {
                eprintln!("serve crash matrix FAILED");
                exit(1);
            }
        }
        "serve-replica" => {
            // The replication gate, two halves mirroring serve-crash +
            // serve-smoke: (1) the replica fault matrix — one real
            // primary → TCP → follower pipeline per replication fault
            // point, follower pinned bit-identical to the primary's
            // durable prefix; (2) the failover smoke — a seeded mixed
            // ingest/read run through a FailoverClient across a link
            // partition and a primary death, with zero client errors.
            let corpus = Corpus::generate(&CorpusConfig {
                num_authors: 120,
                num_papers: 440,
                seed: 0xc4a5_5eed,
                ..Default::default()
            });
            let (base, tail) = corpus.split_tail(40);
            let iuad = Iuad::fit(&base, &IuadConfig::default());
            let state = iuad_serve::ServeState::new(iuad, None);
            let papers: Vec<_> = tail.iter().map(|(p, _)| p.clone()).collect();
            let dir = std::env::temp_dir().join("iuad-serve-replica");
            let report = iuad_serve::run_replica_matrix(
                &state,
                &papers,
                &dir,
                &iuad_serve::ReplicaSpec::default(),
            );
            let mut t = Table::new([
                "replication point",
                "nth",
                "reconnects",
                "applied",
                "epoch",
                "status",
            ]);
            for case in &report.cases {
                let status = if case.passed() {
                    "bit-identical".to_owned()
                } else {
                    case.error.clone().unwrap_or_else(|| "failed".to_owned())
                };
                t.row([
                    &case.point,
                    &case.nth.to_string(),
                    &case.reconnects.to_string(),
                    &format!("{}/{}", case.applied, case.shipped),
                    &format!("{}≟{}", case.follower_epoch, case.primary_epoch),
                    &status,
                ]);
            }
            println!("{t}");

            let smoke = iuad_serve::run_replica_smoke();
            println!(
                "failover smoke: {} papers ingested, {} follower reads ({} replica-lag sheds), \
                 {} wrong-epoch reads, {} client errors, partition fired: {}, failover \
                 completed: {}, min reconnects {}, final epoch {}",
                smoke.papers_streamed,
                smoke.follower_reads,
                smoke.replica_lag_sheds,
                smoke.wrong_epoch_reads,
                smoke.client_errors,
                smoke.partition_fired,
                smoke.failover_completed,
                smoke.min_reconnects,
                smoke.final_epoch
            );
            if let Some(path) = args.get::<PathBuf>("json") {
                let combined = serde_json::to_string(&report)
                    .and_then(|matrix| {
                        serde_json::to_string(&smoke)
                            .map(|s| format!("{{\"matrix\":{matrix},\"smoke\":{s}}}"))
                    })
                    .map_err(std::io::Error::other);
                match combined.and_then(|json| std::fs::write(&path, json)) {
                    Ok(()) => eprintln!("wrote {}", path.display()),
                    Err(e) => {
                        eprintln!("error writing {}: {e}", path.display());
                        exit(1);
                    }
                }
            }
            if report.passed() && smoke.passed() {
                println!("serve replica matrix OK");
            } else {
                eprintln!("serve replica matrix FAILED");
                exit(1);
            }
        }
        "serve-smoke" => {
            let outcome = iuad_serve::run_smoke();
            println!(
                "streamed {} papers, answered {} queries ({} shed), {} daemon errors, \
                 {} client errors\nfinal epoch {}, live fingerprint {}, replay fingerprint {}",
                outcome.papers_streamed,
                outcome.queries,
                outcome.shed,
                outcome.errors,
                outcome.client_errors,
                outcome.final_epoch,
                iuad_serve::fingerprint_hex(outcome.live_fingerprint),
                iuad_serve::fingerprint_hex(outcome.replay_fingerprint)
            );
            if let Some(diff) = &outcome.engine_diff {
                println!("engine diverged after replay: {diff}");
            }
            if outcome.passed() {
                println!("serve smoke OK");
            } else {
                eprintln!("serve smoke FAILED");
                exit(1);
            }
        }
        _ => usage(),
    }
}
