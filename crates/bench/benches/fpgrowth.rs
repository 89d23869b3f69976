//! Criterion bench for Stage-1 mining (supports Fig. 3 / Table V):
//! frequent-pair counting (η-SCRs) on co-author lists.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use iuad_corpus::{Corpus, CorpusConfig};
use iuad_fpgrowth::pairs::frequent_pairs;

fn name_lists(papers: usize) -> Vec<Vec<u32>> {
    let corpus = Corpus::generate(&CorpusConfig {
        num_authors: 600,
        num_papers: papers,
        seed: 42,
        ..Default::default()
    });
    corpus
        .papers
        .iter()
        .map(|p| {
            let mut l: Vec<u32> = p.authors.iter().map(|n| n.0).collect();
            l.sort_unstable();
            l.dedup();
            l
        })
        .collect()
}

fn bench_mining(c: &mut Criterion) {
    let mut group = c.benchmark_group("fpgrowth");
    group.sample_size(20);
    for papers in [1_000usize, 3_000] {
        let lists = name_lists(papers);
        group.bench_function(format!("frequent_pairs/{papers}"), |b| {
            b.iter(|| frequent_pairs(lists.iter().map(Vec::as_slice), black_box(2)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mining);
criterion_main!(benches);
