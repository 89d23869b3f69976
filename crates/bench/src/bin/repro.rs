//! Regenerate the paper's tables and figures.
//!
//! ```sh
//! cargo run --release -p iuad-bench --bin repro -- all
//! cargo run --release -p iuad-bench --bin repro -- table3 fig6
//! ```
//!
//! Artefact ids: `perf scenarios fig3 table2 table3 table4 table5 fig5
//! table6 fig6 ablation-eta ablation-delta ablation-sampling
//! ablation-split ablation-features`, plus `scale` (also reachable as
//! `perf --scale`), which is *not* part of `all`: it generates its own
//! 100k-paper corpus (and the 1M tier with `IUAD_SCALE_1M=1`) and writes
//! `BENCH_scale.json` — run it via `make bench-scale`.
//! `perf` measures stage wall-times and writes `BENCH_pipeline.json`
//! (single-threaded baseline: `IUAD_BENCH_THREADS=1 repro perf`);
//! `scenarios` runs the conformance matrix and writes `SCENARIOS.json`
//! (it generates its own adversarial corpora, not the benchmark corpus).

use std::time::Instant;

use iuad_bench::{benchmark_corpus, experiments};
use iuad_corpus::Corpus;

const ALL: [&str; 15] = [
    "perf",
    "scenarios",
    "fig3",
    "table2",
    "table3",
    "table4",
    "table5",
    "fig5",
    "table6",
    "fig6",
    "ablation-eta",
    "ablation-delta",
    "ablation-sampling",
    "ablation-split",
    "ablation-features",
];

/// The benchmark corpus, generated on first use: corpus-free artefacts
/// (`scenarios`) skip the multi-second generation entirely.
struct LazyCorpus(Option<Corpus>);

impl LazyCorpus {
    fn get(&mut self) -> &Corpus {
        self.0.get_or_insert_with(|| {
            eprintln!("generating benchmark corpus…");
            let t0 = Instant::now();
            let corpus = benchmark_corpus();
            eprintln!(
                "corpus ready in {:.1?}: {} papers / {} names / {} authors / {} mentions\n",
                t0.elapsed(),
                corpus.papers.len(),
                corpus.num_names(),
                corpus.num_authors(),
                corpus.num_mentions()
            );
            corpus
        })
    }
}

fn dispatch(id: &str, corpus: &mut LazyCorpus) -> Option<String> {
    let out = match id {
        "perf" => experiments::perf::run(corpus.get()),
        "scale" => experiments::scale::run(),
        "scenarios" => experiments::scenarios::run(),
        "fig3" => experiments::fig3::run(corpus.get()),
        "table2" => experiments::table2::run(corpus.get()),
        "table3" => experiments::table3::run(corpus.get()),
        "table4" => experiments::table4::run(corpus.get()),
        "table5" => experiments::table5::run(corpus.get()),
        "fig5" => experiments::fig5::run(corpus.get()),
        "table6" => experiments::table6::run(corpus.get()),
        "fig6" => experiments::fig6::run(corpus.get()),
        "ablation-eta" => experiments::ablations::run_eta(corpus.get()),
        "ablation-delta" => experiments::ablations::run_delta(corpus.get()),
        "ablation-sampling" => experiments::ablations::run_sampling(corpus.get()),
        "ablation-split" => experiments::ablations::run_split(corpus.get()),
        "ablation-features" => experiments::ablations::run_features(corpus.get()),
        _ => return None,
    };
    Some(out)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `perf --scale` is the documented spelling of the scale tier; rewrite
    // it to the `scale` artefact id (or append it if `perf` wasn't named).
    if let Some(i) = args.iter().position(|a| a == "--scale") {
        args.remove(i);
        match args.iter_mut().find(|a| a.as_str() == "perf") {
            Some(a) => *a = "scale".to_string(),
            None => args.push("scale".to_string()),
        }
    }
    if args.is_empty() {
        eprintln!(
            "usage: repro <artefact>... | all | scale\n  artefacts: {}",
            ALL.join(" ")
        );
        std::process::exit(2);
    }
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        ALL.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };

    let mut corpus = LazyCorpus(None);
    for id in ids {
        let start = Instant::now();
        match dispatch(id, &mut corpus) {
            Some(out) => {
                println!("== {id} ({:.1?}) ==\n{out}", start.elapsed());
            }
            None => {
                eprintln!(
                    "unknown artefact `{id}` — expected one of: {} scale",
                    ALL.join(" ")
                );
                std::process::exit(2);
            }
        }
    }
}
