//! Pipeline performance baseline: per-stage wall-times and candidate-pair
//! throughput on the benchmark corpus, written as the machine-readable
//! `BENCH_pipeline.json` so every future PR can compare against a recorded
//! trajectory (see README § Performance for the schema).
//!
//! Schema version 5: a `group_evidence` row between
//! `similarity_engine_build` and `candidate_pair_data` times Stage 2's
//! build of each candidate name group's join evidence. Version 4 built
//! that evidence inside both engine builds (`similarity_engine_build` and
//! `merged_engine_build`); no engine stores it now, so both engine rows
//! are pure per-vertex caching, and `candidate_pair_data` (hence
//! `pairs_per_sec`) times the pair kernel alone. In version 4 the last
//! stage row became `merged_engine_build`, a full engine build over the
//! merged network (version 3 carried the Stage-2 engine across the merge
//! in a stage named `engine_derive`). Three SGNS
//! sub-stage rows (`sgns_vocab_build`, `sgns_sampler_build`,
//! `sgns_epoch_loop`, added in version 3) follow the `profile_context`
//! row they decompose — they are inner timings of the same wall-clock
//! window, not additional pipeline phases, so they do not contribute to
//! `total_seconds` beyond what `profile_context` already records. (Version
//! 2 replaced `incremental_engine_build` with `engine_derive` and made
//! `candidate_pair_seconds` the same measurement as the
//! `candidate_pair_data` stage row.)
//!
//! The numbers are the stage timings [`Iuad::fit`] records itself
//! ([`Iuad::stage_times`]), so a stage row is the cost of that phase of
//! the shipped fit. Thread count comes from `IUAD_BENCH_THREADS` (default:
//! all cores); run with `IUAD_BENCH_THREADS=1` for the canonical
//! single-threaded baseline.

use iuad_core::{Iuad, IuadConfig};
use iuad_corpus::Corpus;
use iuad_eval::Table;
use serde::Serialize;

use crate::write_results;

/// Wall-time of one pipeline stage.
#[derive(Debug, Clone, Serialize)]
pub struct StageTiming {
    /// Stage id (stable across PRs; new stages append).
    pub stage: String,
    /// Elapsed wall-clock seconds.
    pub seconds: f64,
}

/// The `BENCH_pipeline.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct PipelineBench {
    /// Schema version; bump when fields change meaning.
    pub schema_version: u32,
    /// Papers in the measured corpus.
    pub corpus_papers: usize,
    /// Distinct author names.
    pub corpus_names: usize,
    /// Ground-truth authors.
    pub corpus_authors: usize,
    /// Author mentions (disambiguation units).
    pub corpus_mentions: usize,
    /// Resolved worker-thread count the hot paths ran at.
    pub threads: usize,
    /// Per-stage wall-times, in execution order.
    pub stages: Vec<StageTiming>,
    /// Same-name candidate pairs scored by Stage 2.
    pub candidate_pairs: usize,
    /// Wall-time of `candidate_pair_data` (γ-vector computation over
    /// already-built group evidence) alone.
    pub candidate_pair_seconds: f64,
    /// `candidate_pairs / candidate_pair_seconds` — the headline number.
    pub pairs_per_sec: f64,
    /// End-to-end wall time of `Iuad::fit`.
    pub total_seconds: f64,
}

/// Fit `corpus` under `cfg` and report the fit's recorded stage timings.
pub fn measure(corpus: &Corpus, cfg: &IuadConfig) -> PipelineBench {
    bench_of(corpus, &Iuad::fit(corpus, cfg))
}

/// The bench document of a finished fit of `corpus`.
pub fn bench_of(corpus: &Corpus, iuad: &Iuad) -> PipelineBench {
    let times = &iuad.stage_times;
    let candidate_pairs = iuad.gcn.pairs_scored;
    let candidate_pair_seconds = times.seconds("candidate_pair_data").unwrap_or(0.0);
    PipelineBench {
        schema_version: 5,
        corpus_papers: corpus.papers.len(),
        corpus_names: corpus.num_names(),
        corpus_authors: corpus.num_authors(),
        corpus_mentions: corpus.num_mentions(),
        threads: iuad.config.parallel.resolved_threads(),
        stages: times
            .stages()
            .iter()
            .map(|&(stage, seconds)| StageTiming {
                stage: stage.to_string(),
                seconds,
            })
            .collect(),
        candidate_pairs,
        candidate_pair_seconds,
        pairs_per_sec: if candidate_pair_seconds > 0.0 {
            candidate_pairs as f64 / candidate_pair_seconds
        } else {
            0.0
        },
        total_seconds: times.total_seconds(),
    }
}

/// Serialize `bench` to `BENCH_pipeline.json` at the repository root (the
/// committed perf trajectory) and mirror it under `results/` (the mirror
/// is best-effort).
pub fn write_bench_json(bench: &PipelineBench) -> std::io::Result<()> {
    let json = serde_json::to_string(bench).map_err(std::io::Error::other)?;
    std::fs::write("BENCH_pipeline.json", &json)?;
    if std::fs::create_dir_all("results").is_ok() {
        let _ = std::fs::write("results/BENCH_pipeline.json", &json);
    }
    Ok(())
}

/// Render `bench` as an aligned text table.
pub fn render(bench: &PipelineBench) -> String {
    let mut t = Table::new(["stage", "seconds"]);
    for s in &bench.stages {
        t.row([s.stage.clone(), format!("{:.3}", s.seconds)]);
    }
    t.row(["total".to_string(), format!("{:.3}", bench.total_seconds)]);
    let mut info = Table::new(["metric", "value"]);
    info.row(["threads", &bench.threads.to_string()]);
    info.row(["candidate pairs", &bench.candidate_pairs.to_string()]);
    info.row(["pairs/sec", &format!("{:.0}", bench.pairs_per_sec)]);
    format!("{}\n{}", t.render(), info.render())
}

/// Run the pipeline bench and emit `BENCH_pipeline.json`. The JSON record
/// is this artefact's product, so a failed write aborts the process
/// instead of exiting 0 with nothing on disk.
pub fn run(corpus: &Corpus) -> String {
    let par = crate::method_parallelism();
    eprintln!(
        "perf: measuring pipeline at {} thread(s)…",
        par.resolved_threads()
    );
    let cfg = IuadConfig {
        parallel: par,
        ..IuadConfig::default()
    };
    let bench = measure(corpus, &cfg);
    if let Err(e) = write_bench_json(&bench) {
        eprintln!("error: failed to write BENCH_pipeline.json: {e}");
        std::process::exit(1);
    }
    let out = render(&bench);
    write_results("perf", std::slice::from_ref(&bench), &out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::scale::field;
    use iuad_corpus::CorpusConfig;
    use serde::Value;

    /// Both committed baselines (`BENCH_scale.json` mirrors its guarded
    /// tier's stages at the top level) carry the stage ids the fit
    /// records, so no stage row goes unguarded behind a stale file.
    #[test]
    fn measure_emits_the_committed_stage_ids() {
        let corpus = Corpus::generate(&CorpusConfig {
            num_authors: 100,
            num_papers: 400,
            seed: 5,
            ..CorpusConfig::default()
        });
        let bench = measure(&corpus, &IuadConfig::default());
        let fresh: Vec<&str> = bench.stages.iter().map(|s| s.stage.as_str()).collect();
        for file in ["BENCH_pipeline.json", "BENCH_scale.json"] {
            let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(path).expect("committed baseline");
            let doc: Value = serde_json::from_str(&text).expect("valid JSON");
            let Some(Value::Array(rows)) = field(&doc, "stages") else {
                panic!("committed {file} has no stages array");
            };
            let committed: Vec<&str> = rows
                .iter()
                .map(|row| match field(row, "stage") {
                    Some(Value::Str(id)) => id.as_str(),
                    other => panic!("{file}: stage row without an id: {other:?}"),
                })
                .collect();
            assert_eq!(fresh, committed, "{file}");
        }
    }
}
