//! The repository benchmark. One command runs a named workload, checks
//! its outputs and prints every metric with its name and unit; the last
//! line of standard output is the machine-readable result:
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload ingest-stream --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with the fit split into per-stage spans and the serving layers
//! timed in process, and prints the per-layer metrics instead. See
//! `benchmark/README.md` for the workloads, the metric → layer map and the
//! correctness gates.

mod fit;
mod host;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::time::Instant;

use iuad_corpus::Paper;
use iuad_serve::{response_field, Client};
use serde::Value;

use crate::serve::{Event, Op};
use crate::stats::Sample;
use crate::trace::Tracer;

/// Operations attempted and failed, and the correctness gates.
#[derive(Debug, Default)]
pub struct Acct {
    attempted: usize,
    failed: usize,
    gates: Vec<(String, bool)>,
}

impl Acct {
    pub fn ops(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// A correctness gate: counts as one operation, failed unless `ok`.
    pub fn gate(&mut self, name: &str, ok: bool) {
        self.ops(1, usize::from(!ok));
        self.gates.push((name.to_owned(), ok));
    }
}

/// What a workload runs. Every workload fits a corpus and then serves a
/// fitted base through a primary daemon, so every end-to-end metric is
/// measured on every workload; what differs is where the work goes.
struct Workload {
    name: &'static str,
    /// (papers, authors) of a corpus fitted on its own after serving.
    fit_corpus: Option<(usize, usize)>,
    /// Whether the untraced run also catches a follower up on the stream
    /// and replays the stream in process, checking both against the
    /// primary (the traced run always does).
    replicate: bool,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "fit-100k",
        fit_corpus: Some((100_000, 25_000)),
        replicate: false,
    },
    Workload {
        name: "ingest-stream",
        fit_corpus: None,
        replicate: true,
    },
];

/// The serving corpus: the 12k-paper benchmark shape, of which the last
/// [`TAIL`] papers are held out of the fit: streamed, trickled, and used
/// as `whois` probes.
const SERVE_PAPERS: usize = 12_000;
const SERVE_AUTHORS: usize = 2_400;
const TAIL: usize = 2_200;
/// Papers each serving round streams: eight publish batches.
const ROUND_PAPERS: usize = 128;
/// Seconds of reads at the nominal rate in each round.
const ROUND_READ_S: f64 = 1.0;
/// Rounds run at least this many times, however slow the host is.
const MIN_ROUNDS: usize = 3;
/// Papers of the tail the rounds leave for the traced run's trickle.
const TRICKLE_RESERVE: usize = 500;
/// Ingests per second alongside the traced run's crossing reads.
const TRICKLE_PER_S: f64 = 50.0;
/// Set-up repetitions per run.
const SETUP_REPS: usize = 5;
/// Fits of the large corpus per untraced run.
const FIT_REPS: usize = 2;
/// In-process snapshot reads timed in the traced run.
const SNAPSHOT_READS: usize = 20_000;

/// Partition fingerprints recorded per corpus and seed.
const FINGERPRINTS: &str = include_str!("../fingerprints.txt");

fn recorded_fingerprint(corpus: &str, seed: u64) -> Option<u64> {
    FINGERPRINTS.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next()? == corpus && f.next()?.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(f.next()?, 16).ok())
            .flatten()
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: iuad-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).map(String::as_str)
    };
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        get("--workload"),
        get("--seed").and_then(|s| s.parse().ok()),
        get("--seconds").and_then(|s| s.parse::<f64>().ok()),
        get("--trace"),
    ) else {
        usage()
    };
    if !(seconds > 0.0 && seconds <= 600.0 && matches!(trace, "0" | "1")) {
        usage();
    }
    Args {
        workload: workload.to_owned(),
        seed,
        seconds,
        trace: trace == "1",
    }
}

/// The commit the checkout was built from, when it is a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".to_owned();
    };
    match head.trim().strip_prefix("ref: ") {
        Some(r) => read(&format!(".git/{r}"))
            .map_or_else(|| format!("unresolved {r}"), |c| c.trim().to_owned()),
        None => head.trim().to_owned(),
    }
}

fn median(values: &[f64]) -> f64 {
    Sample::new(values.to_vec()).median()
}

/// Report line for a sampled metric: value, unit and the sample behind it.
fn sampled(name: &str, value: f64, unit: &str, s: &Sample, q: f64) -> String {
    format!(
        "{name} = {value} {unit} (n={}, {} beyond)",
        s.len(),
        s.beyond(q)
    )
}

/// Check a fit's partition: complete, and — for a seed with a recorded
/// fingerprint — equal to the recording. Returns the fingerprint.
fn check_fit(
    acct: &mut Acct,
    corpus_tag: &str,
    seed: u64,
    corpus: &iuad_corpus::Corpus,
    iuad: &iuad_core::Iuad,
) -> u64 {
    acct.gate(
        &format!("{corpus_tag}: the partition covers every mention once"),
        fit::partition_complete(corpus, iuad),
    );
    let fp = fit::fingerprint(iuad);
    println!("# fingerprint {corpus_tag} {seed} {fp:016x}");
    match recorded_fingerprint(corpus_tag, seed) {
        Some(want) => acct.gate(
            &format!("{corpus_tag}: the partition fingerprint matches the one recorded for seed {seed}"),
            fp == want,
        ),
        None => println!("# note: no fingerprint recorded for {corpus_tag} seed {seed}; completeness checked only"),
    }
    fp
}

/// The traced stage-by-stage fit, gated against the shipped fit's
/// fingerprint; its tracing overhead is measured against `shipped_s`.
fn trace_fit(
    tr: &mut Tracer,
    acct: &mut Acct,
    corpus: &iuad_corpus::Corpus,
    shipped_fp: u64,
    shipped_s: f64,
) {
    let (fp, traced_s) = fit::traced_fit(corpus, tr);
    acct.gate(
        "trace: the stage-by-stage fit reproduces the shipped fit's partition",
        fp == shipped_fp,
    );
    tr.metric("trace.overhead_frac", traced_s / shipped_s - 1.0, "ratio");
}

type Metrics = Vec<(String, f64, &'static str)>;

/// The factor that scales a unit of work to nominal host speed: nominal
/// over the reference's time around it (see `host`).
fn speed_factor(reference_s: f64) -> f64 {
    host::NOMINAL_S / reference_s
}

/// A timing taken once per repetition or round, each unit scaled to
/// nominal host speed by the reference around it. Its value is the
/// median of the scaled units.
#[derive(Default)]
struct Timing {
    raw: Vec<f64>,
    scaled: Vec<f64>,
}

impl Timing {
    /// Record a duration or latency and the reference around it.
    fn time(&mut self, raw: f64, reference_s: f64) {
        self.raw.push(raw);
        self.scaled.push(raw * speed_factor(reference_s));
    }

    fn value(&self) -> f64 {
        median(&self.scaled)
    }

    /// Report line: the reported value, what it is the median of, the
    /// median as measured, and every unit scaled.
    fn line(&self, name: &str, unit: &str, what: &str) -> String {
        let each: Vec<String> = self.scaled.iter().map(|v| format!("{v:.4}")).collect();
        format!(
            "{name} = {} {unit} ({what}, at nominal host speed; as measured {} {unit}; each at nominal speed: {})",
            self.value(),
            median(&self.raw),
            each.join(" ")
        )
    }
}

/// What the recorded serving rounds measured: the stream pooled over the
/// rounds (one round's papers vary too much with the authors they touch),
/// the reads once per round. Each round's stream is scaled by the
/// reference around it before pooling.
#[derive(Default)]
struct Rounds {
    papers: usize,
    stream_s: f64,
    stream_scaled_s: f64,
    visible_ms: Vec<f64>,
    visible_scaled_ms: Vec<f64>,
    read_p50_us: Timing,
    read_p99_us: Timing,
}

impl Rounds {
    fn stream(&mut self, sr: &serve::StreamResult, reference_s: f64) {
        let f = speed_factor(reference_s);
        self.papers += sr.papers;
        self.stream_s += sr.seconds;
        self.stream_scaled_s += sr.seconds * f;
        self.visible_ms.extend_from_slice(sr.visible_ms.values());
        self.visible_scaled_ms
            .extend(sr.visible_ms.values().iter().map(|v| v * f));
    }
}

/// The reference kernel, measured between timed units of work.
struct Host {
    reference: host::Reference,
    last_s: f64,
}

impl Host {
    fn new() -> std::io::Result<Host> {
        let mut reference = host::Reference::spawn()?;
        let last_s = reference.measure()?;
        Ok(Host { reference, last_s })
    }

    /// Start a bracket: measure the reference now.
    fn mark(&mut self) -> std::io::Result<()> {
        self.last_s = self.reference.measure()?;
        Ok(())
    }

    /// Close the bracket around the unit that ran since the last
    /// measurement (which also opens the next one): the faster of the
    /// reference's two times around it. A slowdown that lasts minutes
    /// slows both ends; a burst that hits one end alone is left out.
    fn bracket(&mut self) -> std::io::Result<f64> {
        let now_s = self.reference.measure()?;
        let faster_s = self.last_s.min(now_s);
        self.last_s = now_s;
        Ok(faster_s)
    }
}

fn run(
    args: &Args,
    wl: &Workload,
    tr: &mut Tracer,
    report: &mut Vec<String>,
) -> std::io::Result<(Acct, Metrics)> {
    let mut acct = Acct::default();
    let mut e2e: Metrics = Vec::new();
    let seed = args.seed;
    let work = PathBuf::from(".bench_work").join(format!("{}-{}", wl.name, std::process::id()));

    // The serving set-up, repeated: generate, fit the base, start the
    // primary. The last repetition is kept.
    let span = tr.begin("setup");
    let (mut setups, mut base_fits) = (Timing::default(), Timing::default());
    let mut kept = None;
    let mut host = Host::new()?;
    for rep in 0..SETUP_REPS {
        let (corpus, gen_s) = fit::generate(SERVE_PAPERS, SERVE_AUTHORS, seed);
        let (base, tail) = corpus.split_tail(TAIL);
        drop(corpus);
        let tail: Vec<Paper> = tail.into_iter().map(|(p, _)| p).collect();
        let (iuad, base_fit_s) = fit::shipped_fit(&base);
        let last = rep + 1 == SETUP_REPS;
        let mut checked = None;
        if last {
            // Untimed: gates, quality and the read mix need the fitted
            // base before it moves into the serving state.
            let fp = check_fit(&mut acct, "base-12k", seed, &base, &iuad);
            let quality = fit::quality(&base, &iuad);
            let pool = serve::read_pool(&base, &iuad, &tail, seed);
            if args.trace {
                if wl.fit_corpus.is_none() {
                    trace_fit(tr, &mut acct, &base, fp, base_fit_s);
                }
                let (decide_us, existing) = tr
                    .span("incremental.decide", |_| fit::decide_tail(&iuad, &tail))
                    .0;
                tr.metric("incremental.decide_us_p50", decide_us.median(), "us");
                tr.metric("incremental.decide_us_p99", decide_us.quantile(0.99), "us");
                tr.metric("incremental.existing_frac", existing, "ratio");
            }
            checked = Some((fp, quality, pool));
        }
        let t = Instant::now();
        let started = serve::start(iuad, &work.join(format!("rep{rep}")))?;
        let start_s = t.elapsed().as_secs_f64();
        let r = host.bracket()?;
        setups.time(gen_s + base_fit_s + start_s, r);
        base_fits.time(base_fit_s, r);
        match checked {
            Some(checked) => kept = Some((started, base, tail, checked)),
            None => drop(started.serving.shutdown()),
        }
    }
    tr.end(span);
    let (started, base, tail, (base_fp, base_quality, pool)) =
        kept.expect("at least one set-up repetition");
    let serve::Started {
        serving,
        replay_base,
        follower_base,
    } = started;
    let addr = serving.daemon.addr();
    let stats_request = Client::request("stats", vec![]);
    let stats_before =
        serve::calls(addr, std::slice::from_ref(&stats_request), &mut acct).remove(0);

    // The rounds, for `--seconds`: a closed-loop stream of
    // the next papers of the tail, then open-loop reads at the nominal
    // rate, then (without a fit corpus of its own) a refit of the base.
    // Each phase opens its connections and closes them when it ends. The
    // first round warms up and is not recorded.
    let span = tr.begin("serve.rounds");
    let mut rounds = Rounds::default();
    let mut nominal = serve::ReadStep {
        offered_per_s: serve::NOMINAL_PER_S,
        ..serve::ReadStep::default()
    };
    let (mut streamed, mut missing, mut flushes_ok, mut refits_ok) = (0, 0, true, true);
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut n_rounds = 0;
    let mut warm_reads = None;
    while streamed + ROUND_PAPERS <= TAIL - TRICKLE_RESERVE
        && (n_rounds <= MIN_ROUNDS || Instant::now() < deadline)
    {
        let record = n_rounds > 0;
        n_rounds += 1;
        let chunk = &tail[streamed..streamed + ROUND_PAPERS];
        host.mark()?;
        let sr = serve::stream(&serving, &mut serve::Conns::open(addr)?, chunk, &mut acct);
        let r = host.bracket()?;
        streamed += ROUND_PAPERS;
        flushes_ok &= sr.flush_as_predicted;
        missing += sr.missing;
        let block = serve::nominal_block(addr, &pool, ROUND_READ_S)?;
        let read_r = host.bracket()?;
        if record {
            rounds.stream(&sr, r);
            let block_all = Sample::new(block.latencies_us.clone());
            rounds.read_p50_us.time(block_all.median(), read_r);
            rounds.read_p99_us.time(block.p99_us(), read_r);
            nominal.absorb(block);
        } else {
            warm_reads = Some(block);
        }
        if wl.fit_corpus.is_none() {
            let (iuad, s) = fit::shipped_fit(&base);
            base_fits.time(s, host.bracket()?);
            refits_ok &= fit::fingerprint(&iuad) == base_fp;
        }
    }
    tr.end(span);
    let n_rounds = n_rounds - 1;
    acct.gate(
        "stream: every round's flush published the epoch the publish cadence predicts",
        flushes_ok,
    );
    acct.gate(
        "stream: every paper became visible on the primary",
        missing == 0,
    );
    if wl.fit_corpus.is_none() {
        acct.gate(
            "base-12k: every timed refit reproduced the set-up fit's partition",
            refits_ok,
        );
    }
    if wl.replicate || args.trace {
        let span = tr.begin("replica.catchup");
        let rep = serving.replicate(follower_base)?;
        tr.end(span);
        acct.gate(
            "replica: the follower reached the primary's epoch with the primary's partition",
            rep.matches,
        );
        let catchup_per_s = streamed as f64 / rep.seconds;
        report.push(format!(
            "replica caught up on {streamed} papers in {} s ({catchup_per_s} papers/s), {} records shipped",
            rep.seconds, rep.shipped_records
        ));
        tr.metric("replica.catchup_s", rep.seconds, "s");
        tr.metric("replica.apply_papers_per_s", catchup_per_s, "1/s");
        tr.metric("replica.lag_epochs_max", rep.lag_epochs_max as f64, "count");
        tr.metric("replica.reconnects", rep.reconnects as f64, "count");
        tr.metric(
            "replica.shipped_records",
            rep.shipped_records as f64,
            "count",
        );
    }
    // The traced run's extra reads: crossing publishes, then the ladder.
    let nominal_all = Sample::new(nominal.latencies_us.clone());
    let (steps, crossing) = if args.trace {
        let span = tr.begin("serve.reads");
        let reads = serve::read_phase(
            addr,
            &pool,
            args.seconds,
            &tail[streamed..],
            TRICKLE_PER_S,
            nominal,
        )?;
        tr.end(span);
        (reads.ladder, Some(reads.crossing))
    } else {
        (vec![nominal], None)
    };
    let mut after = serve::calls(
        addr,
        &[Client::request("flush", vec![]), stats_request],
        &mut acct,
    );
    let stats_after = after.pop().flatten();
    let final_epoch = match after
        .pop()
        .flatten()
        .as_ref()
        .and_then(|r| response_field(r, "epoch"))
    {
        Some(Value::U64(e)) => *e,
        _ => 0,
    };

    let pooled = format!("{} papers of {n_rounds} rounds, pooled", rounds.papers);
    let ingest = rounds.papers as f64 / rounds.stream_scaled_s;
    e2e.push(("ingest_papers_per_s".into(), ingest, "1/s"));
    report.push(format!(
        "ingest_papers_per_s = {ingest} 1/s ({pooled}, at nominal host speed; as measured {} 1/s)",
        rounds.papers as f64 / rounds.stream_s
    ));
    let visible = Sample::new(rounds.visible_scaled_ms.clone());
    let visible_raw = Sample::new(rounds.visible_ms.clone());
    for (name, q) in [("visible_p50_ms", 0.5), ("visible_p99_ms", 0.99)] {
        e2e.push((name.into(), visible.quantile(q), "ms"));
        report.push(format!(
            "{name} = {} ms ({pooled}, {} beyond, at nominal host speed; as measured {} ms)",
            visible.quantile(q),
            visible.beyond(q),
            visible_raw.quantile(q)
        ));
    }
    let per_round = format!(
        "median of {n_rounds} rounds of {} reads; a round's p99 is the median of its {}-read windows' p99s",
        nominal_all.len() / n_rounds.max(1),
        serve::WINDOW
    );
    e2e.push(("read_p50_us".into(), rounds.read_p50_us.value(), "us"));
    report.push(rounds.read_p50_us.line("read_p50_us", "us", &per_round));
    // Per-layer, not end-to-end: the host's tail jitter spread it 0.34
    // over ten runs, past any bound the benchmark may set.
    tr.metric("reads.nominal_p99_us", rounds.read_p99_us.value(), "us");
    report.push(
        rounds
            .read_p99_us
            .line("reads.nominal_p99_us", "us", &per_round),
    );
    report.push(sampled(
        "all rounds' reads: p99",
        nominal_all.quantile(0.99),
        "us",
        &nominal_all,
        0.99,
    ));
    if args.trace {
        let ladder: Vec<stats::Step> = steps.iter().map(serve::ReadStep::step).collect();
        let qps = stats::qps_at_slo(&ladder, serve::SLO_US);
        tr.metric("reads.qps_at_slo", qps, "1/s");
        for (s, st) in steps.iter().zip(&ladder) {
            report.push(format!(
                "ladder {} reads/s: p99 {} us over {} reads, backlog grew: {}, late > 1 ms: {}, shed {}, failed {}",
                st.offered_per_s,
                st.p99_us,
                s.latencies_us.len(),
                st.backlog_grew,
                s.late.count_over(1_000.0),
                s.shed,
                s.failed
            ));
        }
        report.push(format!(
            "read_qps_at_slo = {qps} 1/s (p99 <= {} us, no growing backlog)",
            serve::SLO_US
        ));
    }
    if let Some(c) = &crossing {
        let all = Sample::new(c.latencies_us.clone());
        report.push(format!(
            "reads crossing publishes ({TRICKLE_PER_S} ingests/s alongside, {} trickled): p50 {} us, p99 {} us (n={}, {} beyond), windowed p99 {} us",
            c.trickled,
            all.median(),
            all.quantile(0.99),
            all.len(),
            all.beyond(0.99),
            c.p99_us()
        ));
        tr.metric("reads.crossing_p50_us", all.median(), "us");
        tr.metric("reads.crossing_p99_us", all.quantile(0.99), "us");
    }
    let mut late = stats::LateSends::default();
    let (mut read_failed, mut sheds) = (0, 0);
    for s in steps.iter().chain(&crossing).chain(&warm_reads) {
        late.extend(&s.late);
        read_failed += s.failed;
        sheds += s.shed;
        acct.ops(s.sent + s.trickled, s.failed + s.shed);
    }
    acct.gate(
        "reads: every response was ok or a well-formed shed, epochs never went backwards",
        read_failed == 0,
    );
    let late = late.sample();
    tr.metric("generator.late_p99_us", late.quantile(0.99), "us");
    report.push(sampled(
        "generator.late_p99_us",
        late.quantile(0.99),
        "us",
        &late,
        0.99,
    ));

    // Per-layer reads off the live daemon and the stats op.
    if args.trace {
        let snapshot = serving.daemon.store().load();
        let per_op = tr
            .span("snapshot.reads", |_| {
                serve::snapshot_reads(&snapshot, &pool, SNAPSHOT_READS)
            })
            .0;
        drop(snapshot);
        let mut weighted = 0.0;
        for (op, label, weight) in [
            (Op::Whois, "whois", 0.6),
            (Op::Profile, "profile", 0.2),
            (Op::NameGroup, "name_group", 0.2),
        ] {
            let s = &per_op[serve::op_index(op)];
            tr.metric(&format!("snapshot.{label}_us_p50"), s.median(), "us");
            tr.metric(&format!("snapshot.{label}_us_p99"), s.quantile(0.99), "us");
            weighted += weight * s.median();
        }
        tr.metric(
            "daemon.read_overhead_us",
            nominal_all.median() - weighted,
            "us",
        );
    }
    let stat = |v: &Option<Value>, key: &str| -> f64 {
        match v.as_ref().and_then(|v| response_field(v, key)) {
            Some(Value::U64(n)) => *n as f64,
            Some(Value::Array(a)) => a.len() as f64,
            _ => f64::NAN,
        }
    };
    for key in ["shed_admission", "shed_ingest_full", "errors"] {
        tr.metric(
            &format!("daemon.{key}"),
            stat(&stats_after, key) - stat(&stats_before, key),
            "count",
        );
    }
    tr.metric("daemon.queue_hwm", stat(&stats_after, "queue_hwm"), "count");
    tr.metric(
        "daemon.retained_epochs",
        stat(&stats_after, "retained_epochs"),
        "count",
    );
    acct.gate(
        "daemon: the stats op counted no errors",
        stat(&stats_after, "errors") - stat(&stats_before, "errors") == 0.0,
    );
    report.push(format!("daemon sheds during the run: {sheds}"));

    let span = tr.begin("shutdown");
    let primary = serving.shutdown();
    tr.end(span);
    acct.gate(
        "daemon: the final flush published the primary's last epoch",
        final_epoch == primary.epoch(),
    );

    if wl.replicate || args.trace {
        let trickled = crossing.as_ref().map_or(0, |c| c.trickled);
        let mut events = vec![Event::Flush];
        for chunk in tail[..streamed].chunks(ROUND_PAPERS) {
            events.extend(chunk.iter().map(Event::Paper));
            events.push(Event::Flush);
        }
        events.extend(tail[streamed..streamed + trickled].iter().map(Event::Paper));
        events.push(Event::Flush);
        let span = tr.begin("serve.replay");
        let rp = serve::replay(replay_base, &events, &work.join("replay"))?;
        tr.end(span);
        acct.gate(
            "replay: the daemon's final partition equals an in-process replay of the same stream",
            rp.state.fingerprint() == primary.fingerprint() && rp.state.epoch() == primary.epoch(),
        );
        if args.trace {
            let publish_ms = Sample::new(rp.publishes.iter().map(|p| p.0).collect());
            let touched = Sample::new(rp.publishes.iter().map(|p| p.1 as f64).collect());
            tr.metric("state.ingest_us_p50", rp.ingest_us.median(), "us");
            tr.metric("state.ingest_us_p99", rp.ingest_us.quantile(0.99), "us");
            tr.metric("state.publish_ms_p50", publish_ms.median(), "ms");
            tr.metric("state.publish_ms_p99", publish_ms.quantile(0.99), "ms");
            tr.metric("state.touched_mentions_per_epoch", touched.mean(), "count");
            tr.metric(
                "state.publish_share",
                publish_ms.sum() / 1e3 / rp.seconds,
                "ratio",
            );
            let clones: Vec<f64> = (0..5)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(rp.state.snapshot_now());
                    t.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            tr.metric("state.snapshot_clone_ms", median(&clones), "ms");
            tr.metric(
                "wal.bytes_per_paper",
                rp.wal_bytes as f64 / rp.papers.max(1) as f64,
                "bytes",
            );
            tr.metric("checkpoint.ms_p50", rp.checkpoint_ms.median(), "ms");
            tr.metric("checkpoint.ms_max", rp.checkpoint_ms.max(), "ms");
            tr.metric("checkpoint.bytes", rp.checkpoint_bytes as f64, "bytes");
            report.push(format!(
                "publish per epoch (ms, touched mentions): {}",
                rp.publishes
                    .iter()
                    .map(|(ms, t)| format!("({ms:.2},{t})"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ));
        }
    }
    drop(primary);
    drop(base);
    let _ = std::fs::remove_dir_all(&work);

    // The large fit, on its own corpus, after the serving part has shut
    // down: run first, freeing its GiB-scale heap made the reads after it
    // noisier. Each repetition generates the corpus afresh; the traced
    // run fits once, then stage by stage.
    let (mut gens, mut fits) = (Timing::default(), Timing::default());
    let mut quality = base_quality;
    if let Some((papers, authors)) = wl.fit_corpus {
        let span = tr.begin("fit-corpus");
        let reps = if args.trace { 1 } else { FIT_REPS };
        let (mut first_fp, mut same, mut traced) = (None, true, None);
        for _ in 0..reps {
            host.mark()?;
            let (corpus, gen_s) = fit::generate(papers, authors, seed);
            gens.time(gen_s, host.bracket()?);
            let (iuad, s) = fit::shipped_fit(&corpus);
            fits.time(s, host.bracket()?);
            match first_fp {
                None => {
                    quality = fit::quality(&corpus, &iuad);
                    first_fp = Some(check_fit(&mut acct, wl.name, seed, &corpus, &iuad));
                }
                Some(fp) => same &= fit::fingerprint(&iuad) == fp,
            }
            drop(iuad);
            if args.trace {
                traced = Some(corpus);
            }
        }
        acct.gate(
            &format!(
                "{}: every timed fit gave the first fit's partition",
                wl.name
            ),
            same,
        );
        tr.end(span);
        if let (Some(corpus), Some(fp)) = (traced, first_fp) {
            trace_fit(tr, &mut acct, &corpus, fp, fits.raw[0]);
        }
    }

    let fit_corpus = !gens.raw.is_empty();
    let setup_s = setups.value() + if fit_corpus { gens.value() } else { 0.0 };
    let fits = if fit_corpus { fits } else { base_fits };
    e2e.push(("setup_s".into(), setup_s, "s"));
    e2e.push(("fit_s".into(), fits.value(), "s"));
    e2e.push(("b3_f1".into(), quality.b3_f1, "ratio"));
    e2e.push(("pairwise_f1".into(), quality.pairwise_f1, "ratio"));
    report.push(setups.line(
        "serving set-up",
        "s",
        &format!("median of {SETUP_REPS} set-ups (generate, fit the base, start the primary)"),
    ));
    if fit_corpus {
        report.push(gens.line(
            "generating the fit corpus",
            "s",
            &format!("median of {} generations", gens.raw.len()),
        ));
    }
    report.push(format!(
        "setup_s = {setup_s} s ({})",
        if fit_corpus {
            "the serving set-up plus generating the fit corpus"
        } else {
            "the serving set-up"
        }
    ));
    report.push(fits.line("fit_s", "s", &format!("median of {} fits", fits.raw.len())));
    report.push(format!(
        "quality over {} evaluation names: b3_f1 = {}, pairwise_f1 = {}",
        quality.names, quality.b3_f1, quality.pairwise_f1
    ));

    let peak = stats::peak_rss_mib().unwrap_or(f64::NAN);
    e2e.push(("peak_rss_mib".into(), peak, "MiB"));
    let ok_frac = 1.0 - acct.failed as f64 / acct.attempted.max(1) as f64;
    e2e.push(("ok_frac".into(), ok_frac, "ratio"));
    report.push(format!(
        "ok_frac = {ok_frac} ({} failed, shed or refused of {} attempted)",
        acct.failed, acct.attempted
    ));
    Ok((acct, e2e))
}

fn json_metrics(metrics: &[(String, f64, &str)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--reference") {
        host::serve();
    }
    let args = parse_args();
    let Some(wl) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        usage()
    };
    let threads = iuad_core::IuadConfig::default().parallel.resolved_threads();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let shape = match wl.fit_corpus {
        Some((p, a)) => format!(
            "fit {p} papers / {a} authors; serve {SERVE_PAPERS} / {SERVE_AUTHORS}, {TAIL} held out"
        ),
        None => format!("serve {SERVE_PAPERS} papers / {SERVE_AUTHORS} authors, {TAIL} held out"),
    };
    let env = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"threads\": {threads}, \"fsync\": \"off\", \"corpus\": \"{shape}\", \"commit\": \"{}\"}}",
        wl.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_commit()
    );
    println!("# env {env}");
    // The run must end within three minutes; every socket operation has
    // its own timeout, and this bounds the whole. It exits without a
    // result line.
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(170));
        eprintln!("error: the run exceeded 170 s");
        host::stop();
        std::process::exit(1);
    });

    let mut tr = Tracer::new();
    let mut report = Vec::new();
    let (acct, e2e) = match run(&args, wl, &mut tr, &mut report) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    for line in &report {
        println!("# {line}");
    }
    for (gate, ok) in &acct.gates {
        println!("# gate {}: {gate}", if *ok { "pass" } else { "FAIL" });
    }
    let metrics: Metrics = if args.trace {
        tr.metric("trace.coverage", tr.coverage(), "ratio");
        let spans = tr.spans_json();
        let dir = Path::new(".bench_work");
        let written = std::fs::create_dir_all(dir).and_then(|()| {
            std::fs::write(
                dir.join(format!("trace-{}.json", wl.name)),
                format!("{{\"env\": {env}, \"spans\": {spans}}}\n"),
            )
        });
        if let Err(e) = written {
            eprintln!("warning: trace not written: {e}");
        }
        tr.metrics()
            .iter()
            .map(|(n, v, u)| (n.clone(), *v, *u))
            .collect()
    } else {
        e2e
    };
    for (name, value, unit) in &metrics {
        println!("# metric {name} = {value} {unit}");
    }
    let unmeasured: Vec<String> = metrics
        .iter()
        .filter(|m| !m.1.is_finite())
        .map(|m| m.0.clone())
        .collect();
    if !unmeasured.is_empty() {
        println!("# FAIL: not measured: {}", unmeasured.join(", "));
    }
    let finite: Metrics = metrics
        .into_iter()
        .map(|(n, v, u)| (n, if v.is_finite() { v } else { -1.0 }, u))
        .collect();
    let correct = acct.gates.iter().all(|g| g.1) && unmeasured.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        acct.attempted,
        acct.failed,
        json_metrics(&finite)
    );
}
