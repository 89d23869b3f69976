//! Million-paper scale tier: streamed corpus generation plus the shipped
//! fit, written as the machine-readable `BENCH_scale.json` (see README
//! § Performance for the schema).
//!
//! Schema version 4. Two tiers are defined — 100k papers (always run; the
//! CI `bench-scale` job guards it with `scripts/perf_guard.py`) and 1M
//! papers (opt-in via `IUAD_SCALE_1M=1`; manual/nightly only — it is a
//! multi-minute, multi-GB run). The guarded tier's `total_seconds`,
//! `pairs_per_sec` and `stages` are mirrored at the top level of the
//! document so the perf guard reads `BENCH_scale.json` exactly like
//! `BENCH_pipeline.json`. (Version 3 had no `group_evidence` row: the
//! join evidence it times was built inside both engine-build rows, as in
//! `BENCH_pipeline.json` schema 4. Version 2 named the last stage
//! `engine_derive`; version 1 timed a name-block-sharded copy of the fit
//! and carried a `shard_blocks` field.)
//!
//! Each stage row is a timing [`Iuad::fit`] records itself, under the same
//! stage ids as `BENCH_pipeline.json`. Corpora are drawn through
//! [`iuad_corpus::PaperGenerator`] in bounded chunks: generation streams
//! papers into the corpus under construction instead of building
//! throwaway intermediates, and progress is reported per chunk.

use std::time::Instant;

use iuad_core::{Iuad, IuadConfig};
use iuad_corpus::{Corpus, CorpusConfig, PaperGenerator};
use iuad_eval::Table;
use iuad_par::ParallelConfig;
use serde::{Serialize, Value};

use super::perf::{bench_of, StageTiming};
use crate::write_results;

/// Papers drained from the streaming generator per progress chunk.
const GENERATE_CHUNK: usize = 50_000;

/// One scale tier: corpus shape, generation cost, and the fit's stage
/// timings.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleTier {
    /// Tier id (`"100k"`, `"1m"`).
    pub tier: String,
    /// Papers generated.
    pub papers: usize,
    /// Distinct author names.
    pub names: usize,
    /// Ground-truth authors.
    pub authors: usize,
    /// Author mentions (disambiguation units).
    pub mentions: usize,
    /// Wall-time of streamed corpus generation.
    pub generate_seconds: f64,
    /// Per-stage wall-times of the fit, in execution order.
    pub stages: Vec<StageTiming>,
    /// Same-name candidate pairs scored by Stage 2.
    pub candidate_pairs: usize,
    /// Wall-time of the `candidate_pair_data` stage alone.
    pub candidate_pair_seconds: f64,
    /// `candidate_pairs / candidate_pair_seconds`.
    pub pairs_per_sec: f64,
    /// End-to-end fit wall-time (generation excluded).
    pub total_seconds: f64,
    /// Heap footprint of the fitted [`iuad_core::ProfileContext`]
    /// (interned vocab, embedding matrix, CSR keyword slab, per-paper
    /// columns).
    pub ctx_heap_bytes: usize,
    /// `ctx_heap_bytes / mentions` — the per-mention profile budget the
    /// interning work is accountable to.
    pub bytes_per_mention: f64,
}

/// The `BENCH_scale.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleBench {
    /// Schema version; bump when fields change meaning.
    pub schema_version: u32,
    /// Resolved worker-thread count the hot paths ran at.
    pub threads: usize,
    /// Tier id the top-level guard numbers mirror (always `"100k"`).
    pub guarded_tier: String,
    /// All measured tiers, smallest first.
    pub tiers: Vec<ScaleTier>,
    /// Guarded tier's fit wall-time (top-level for `perf_guard.py`).
    pub total_seconds: f64,
    /// Guarded tier's pair throughput (top-level for `perf_guard.py`).
    pub pairs_per_sec: f64,
    /// Guarded tier's stage rows (top-level for `perf_guard.py`).
    pub stages: Vec<StageTiming>,
}

/// Generate `cfg`'s corpus through the streaming generator, draining in
/// [`GENERATE_CHUNK`]-sized chunks with progress reporting.
fn generate_streamed(cfg: &CorpusConfig) -> (Corpus, f64) {
    let t0 = Instant::now();
    let mut generator = PaperGenerator::new(cfg);
    let mut papers = Vec::with_capacity(cfg.num_papers);
    let mut truth = Vec::with_capacity(cfg.num_papers);
    while generator.papers_remaining() > 0 {
        for (paper, authors) in generator.by_ref().take(GENERATE_CHUNK) {
            papers.push(paper);
            truth.push(authors);
        }
        eprintln!(
            "scale: generated {}/{} papers ({:.1?})",
            papers.len(),
            cfg.num_papers,
            t0.elapsed()
        );
    }
    let (corpus, _report) = generator.into_corpus(papers, truth);
    (corpus, t0.elapsed().as_secs_f64())
}

/// Fit `corpus` and read the tier's row off the fit's recorded stages.
fn measure_tier(
    tier: &str,
    corpus: &Corpus,
    generate_seconds: f64,
    par: &ParallelConfig,
) -> ScaleTier {
    let cfg = IuadConfig {
        parallel: *par,
        ..IuadConfig::default()
    };
    let iuad = Iuad::fit(corpus, &cfg);
    let bench = bench_of(corpus, &iuad);
    let ctx_heap_bytes = iuad.ctx.heap_bytes();
    ScaleTier {
        tier: tier.to_string(),
        papers: bench.corpus_papers,
        names: bench.corpus_names,
        authors: bench.corpus_authors,
        mentions: bench.corpus_mentions,
        generate_seconds,
        stages: bench.stages,
        candidate_pairs: bench.candidate_pairs,
        candidate_pair_seconds: bench.candidate_pair_seconds,
        pairs_per_sec: bench.pairs_per_sec,
        total_seconds: bench.total_seconds,
        ctx_heap_bytes,
        bytes_per_mention: ctx_heap_bytes as f64 / bench.corpus_mentions.max(1) as f64,
    }
}

/// Corpus configuration of one tier: authors scale with papers (4 papers
/// per author on average, like the benchmark corpus) and each tier has its
/// own seed so tiers are independent draws, not prefixes of each other.
fn tier_config(papers: usize, seed: u64) -> CorpusConfig {
    CorpusConfig {
        num_authors: papers / 4,
        num_papers: papers,
        seed,
        ..CorpusConfig::default()
    }
}

/// Run one tier end to end: streamed generation, then the fit.
fn run_tier(tier: &str, papers: usize, seed: u64, par: &ParallelConfig) -> ScaleTier {
    eprintln!("scale: tier {tier} — generating {papers} papers…");
    let (corpus, generate_seconds) = generate_streamed(&tier_config(papers, seed));
    eprintln!(
        "scale: tier {tier} — fitting {} mentions…",
        corpus.num_mentions()
    );
    measure_tier(tier, &corpus, generate_seconds, par)
}

/// Render `bench` as aligned text tables.
pub fn render(bench: &ScaleBench) -> String {
    let mut out = String::new();
    for tier in &bench.tiers {
        let mut t = Table::new(["stage", "seconds"]);
        for s in &tier.stages {
            t.row([s.stage.clone(), format!("{:.3}", s.seconds)]);
        }
        t.row(["total".to_string(), format!("{:.3}", tier.total_seconds)]);
        let mut info = Table::new(["metric", "value"]);
        info.row(["papers", &tier.papers.to_string()]);
        info.row(["mentions", &tier.mentions.to_string()]);
        info.row(["generate sec", &format!("{:.3}", tier.generate_seconds)]);
        info.row(["candidate pairs", &tier.candidate_pairs.to_string()]);
        info.row(["pairs/sec", &format!("{:.0}", tier.pairs_per_sec)]);
        info.row([
            "ctx heap MiB",
            &format!("{:.1}", tier.ctx_heap_bytes as f64 / (1 << 20) as f64),
        ]);
        info.row(["bytes/mention", &format!("{:.1}", tier.bytes_per_mention)]);
        out.push_str(&format!(
            "tier {} ({} threads)\n{}\n{}\n",
            tier.tier,
            bench.threads,
            t.render(),
            info.render()
        ));
    }
    out
}

/// Headroom multiplier over the committed per-mention budget before the
/// memory ceiling trips.
const MEMORY_CEILING_FACTOR: f64 = 1.25;

/// Walk an object field by name (the vendored [`Value`] keeps objects as
/// ordered field lists).
pub(crate) fn field<'a>(value: &'a Value, name: &str) -> Option<&'a Value> {
    value
        .as_object()?
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v)
}

fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

/// The committed baseline's guarded-tier `bytes_per_mention`, read from
/// `BENCH_scale.json` before this run overwrites it.
fn committed_bytes_per_mention() -> Option<f64> {
    let text = std::fs::read_to_string("BENCH_scale.json").ok()?;
    let doc: Value = serde_json::from_str(&text).ok()?;
    let guarded = match field(&doc, "guarded_tier")? {
        Value::Str(s) => s.clone(),
        _ => return None,
    };
    let Value::Array(tiers) = field(&doc, "tiers")? else {
        return None;
    };
    let tier = tiers
        .iter()
        .find(|t| matches!(field(t, "tier"), Some(Value::Str(s)) if *s == guarded))?;
    as_f64(field(tier, "bytes_per_mention")?)
}

/// Hard memory ceiling: every measured tier's profile-context heap must
/// stay within [`MEMORY_CEILING_FACTOR`]× the budget implied by the
/// committed baseline's per-mention figure — `budget = recorded
/// bytes_per_mention × tier mentions`. Because the budget is per mention,
/// the same ceiling covers the guarded 100k tier and the opt-in 1M tier
/// without recording a separate absolute number for each. Exits 1 on a
/// breach (before the baseline is overwritten); a missing or unreadable
/// baseline only warns, so the first run on a fresh checkout still
/// bootstraps one.
fn assert_memory_ceiling(tiers: &[ScaleTier]) {
    let Some(budget_per_mention) = committed_bytes_per_mention() else {
        eprintln!("scale: no committed BENCH_scale.json baseline — memory ceiling not enforced");
        return;
    };
    let mut breached = false;
    for tier in tiers {
        let ceiling = budget_per_mention * tier.mentions as f64 * MEMORY_CEILING_FACTOR;
        if tier.ctx_heap_bytes as f64 > ceiling {
            eprintln!(
                "scale: MEMORY CEILING EXCEEDED — tier {} profile context uses {} bytes \
                 ({:.2} per mention), over {:.0} ({:.2} committed per mention × {} \
                 mentions × {MEMORY_CEILING_FACTOR})",
                tier.tier,
                tier.ctx_heap_bytes,
                tier.bytes_per_mention,
                ceiling,
                budget_per_mention,
                tier.mentions
            );
            breached = true;
        } else {
            eprintln!(
                "scale: tier {} memory ceiling OK — {:.2} bytes/mention within {:.2} \
                 (committed {:.2} × {MEMORY_CEILING_FACTOR})",
                tier.tier,
                tier.bytes_per_mention,
                budget_per_mention * MEMORY_CEILING_FACTOR,
                budget_per_mention
            );
        }
    }
    if breached {
        std::process::exit(1);
    }
}

/// Serialize `bench` to `BENCH_scale.json` at the repository root (the
/// committed scale trajectory) and mirror it under `results/` (the mirror
/// is best-effort).
pub fn write_bench_json(bench: &ScaleBench) -> std::io::Result<()> {
    let json = serde_json::to_string(bench).map_err(std::io::Error::other)?;
    std::fs::write("BENCH_scale.json", &json)?;
    if std::fs::create_dir_all("results").is_ok() {
        let _ = std::fs::write("results/BENCH_scale.json", &json);
    }
    Ok(())
}

/// Run the scale tiers and emit `BENCH_scale.json`. The JSON record is
/// this artefact's product, so a failed write aborts the process instead
/// of exiting 0 with nothing on disk.
pub fn run() -> String {
    let par = crate::method_parallelism();
    eprintln!(
        "scale: measuring fit at {} thread(s)…",
        par.resolved_threads()
    );
    let mut tiers = vec![run_tier("100k", 100_000, 0x5ca1_e100, &par)];
    if std::env::var("IUAD_SCALE_1M").is_ok_and(|v| !v.is_empty() && v != "0") {
        tiers.push(run_tier("1m", 1_000_000, 0x0005_ca1e_1000, &par));
    } else {
        eprintln!("scale: 1M tier skipped (set IUAD_SCALE_1M=1 to run it)");
    }
    // The ceiling gates against the *committed* baseline, so it must run
    // before the baseline is overwritten below.
    assert_memory_ceiling(&tiers);
    let guarded = &tiers[0];
    let bench = ScaleBench {
        schema_version: 4,
        threads: par.resolved_threads(),
        guarded_tier: guarded.tier.clone(),
        total_seconds: guarded.total_seconds,
        pairs_per_sec: guarded.pairs_per_sec,
        stages: guarded.stages.clone(),
        tiers: tiers.clone(),
    };
    if let Err(e) = write_bench_json(&bench) {
        eprintln!("error: failed to write BENCH_scale.json: {e}");
        std::process::exit(1);
    }
    let out = render(&bench);
    write_results("scale", &bench.tiers, &out);
    out
}
