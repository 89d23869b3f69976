//! Incremental disambiguation: fit IUAD on a base corpus, then stream newly
//! published papers through `Iuad::ingest` one at a time — no retraining —
//! and measure the per-paper latency (the paper's Table VI scenario).
//!
//! ```sh
//! cargo run --release --example incremental_stream
//! ```

use std::time::Instant;

use iuad_suite::core::{Decision, Iuad, IuadConfig};
use iuad_suite::corpus::{Corpus, CorpusConfig};

fn main() {
    let full = Corpus::generate(&CorpusConfig {
        num_authors: 400,
        num_papers: 1800,
        seed: 11,
        ..Default::default()
    });
    let (base, held_out) = full.split_tail(100);
    println!(
        "base: {} papers | stream: {} new papers",
        base.papers.len(),
        held_out.len()
    );

    let mut iuad = Iuad::fit(&base, &IuadConfig::default());

    let mut matched = 0usize;
    let mut new_authors = 0usize;
    let start = Instant::now();
    for (paper, _truth) in &held_out {
        for (_, decision, _) in iuad.ingest(paper) {
            match decision {
                Decision::Existing { .. } => matched += 1,
                Decision::NewAuthor { .. } => new_authors += 1,
            }
        }
    }
    let elapsed = start.elapsed();
    let mentions = matched + new_authors;

    println!(
        "disambiguated {} mentions from {} papers in {:.1?}",
        mentions,
        held_out.len(),
        elapsed
    );
    println!(
        "  matched to existing authors: {matched}\n  founded new authors:       {new_authors}"
    );
    println!(
        "  avg latency: {:.2} ms/paper (paper reports < 50 ms)",
        elapsed.as_secs_f64() * 1e3 / held_out.len() as f64
    );
}
