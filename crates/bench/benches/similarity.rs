//! Criterion bench for the six similarity functions (the per-pair cost of
//! Fig. 6 and GCN construction), similarity-cache construction, and
//! kernel-level micro-benchmarks (`normalized_kernel`, γ₄, γ₆) so a
//! regression in one kernel is visible independently of the end-to-end
//! pipeline number.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use iuad_core::similarity::{gamma4_time_consistency, gamma6_communities};
use iuad_core::{ProfileContext, Scn, SimilarityEngine, VertexProfile};
use iuad_corpus::{Corpus, CorpusConfig, NameId};
use iuad_graph::triangles::{triangles_of, triangles_of_csr};
use iuad_graph::wl::{normalized_kernel, vertex_features, vertex_features_csr, SparseFeatures};
use iuad_graph::VertexId;

fn bench_similarity(c: &mut Criterion) {
    let corpus = Corpus::generate(&CorpusConfig {
        num_authors: 400,
        num_papers: 1_600,
        seed: 42,
        ..Default::default()
    });
    let scn = Scn::build(&corpus, 2);
    let ctx = ProfileContext::build(&corpus, 32, 101);

    let mut group = c.benchmark_group("similarity");
    group.sample_size(15);
    group.bench_function("engine_build", |b| {
        b.iter(|| SimilarityEngine::build(black_box(&scn), &ctx, 0.62, 2));
    });

    let engine = SimilarityEngine::build(&scn, &ctx, 0.62, 2);
    // All candidate pairs of the most ambiguous name.
    let vs = scn
        .by_name
        .values()
        .max_by_key(|vs| vs.len())
        .expect("ambiguous name")
        .clone();
    group.bench_function("gamma_vector_per_pair", |b| {
        let mut k = 0usize;
        b.iter(|| {
            let i = k % (vs.len() - 1);
            k += 1;
            black_box(engine.similarity(&ctx, vs[i], vs[i + 1]))
        });
    });
    group.finish();
}

/// Deterministic pseudo-random stream for synthetic kernel inputs (no rng
/// dependency needed at this fidelity).
fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    }
}

/// Two overlapping sparse feature vectors of the given sizes: labels drawn
/// from a shared pool so the merge join exercises both match and advance
/// paths.
fn synthetic_features(seed: u64, len_a: usize, len_b: usize) -> (SparseFeatures, SparseFeatures) {
    let mut next = lcg(seed);
    let mut draw = |len: usize| -> SparseFeatures {
        SparseFeatures::from_counts((0..len).map(|_| (next() % 4096, 1 + (next() % 3) as u32)))
    };
    (draw(len_a), draw(len_b))
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");

    // normalized_kernel: balanced (linear merge join) and skewed
    // (galloping) shapes.
    let (a, b) = synthetic_features(7, 128, 160);
    group.bench_function("normalized_kernel/128x160", |bch| {
        bch.iter(|| normalized_kernel(black_box(&a), black_box(&b)));
    });
    let (small, large) = synthetic_features(11, 8, 2048);
    group.bench_function("normalized_kernel/8x2048_gallop", |bch| {
        bch.iter(|| normalized_kernel(black_box(&small), black_box(&large)));
    });

    // γ₄ / γ₆ on realistic profiles from a generated corpus.
    let corpus = Corpus::generate(&CorpusConfig {
        num_authors: 200,
        num_papers: 800,
        seed: 5,
        ..Default::default()
    });
    let ctx = ProfileContext::build(&corpus, 16, 3);
    let profiles: Vec<VertexProfile> = (0..40u32)
        .map(|i| {
            let name = NameId(i % corpus.num_names() as u32);
            VertexProfile::from_mentions(name, &corpus.mentions_of_name(name), &ctx)
        })
        .collect();
    group.bench_function("gamma4_time_consistency", |bch| {
        let mut k = 0usize;
        bch.iter(|| {
            let pa = &profiles[k % profiles.len()];
            let pb = &profiles[(k + 1) % profiles.len()];
            k += 1;
            black_box(gamma4_time_consistency(
                black_box(pa),
                black_box(pb),
                3.0,
                0.62,
                &ctx,
            ))
        });
    });
    group.bench_function("gamma6_communities", |bch| {
        let mut k = 0usize;
        bch.iter(|| {
            let pa = &profiles[k % profiles.len()];
            let pb = &profiles[(k + 1) % profiles.len()];
            k += 1;
            black_box(gamma6_communities(black_box(pa), black_box(pb), 3.0, &ctx))
        });
    });
    group.finish();
}

/// CSR structural kernels vs their hash-adjacency counterparts: triangle
/// intersection and WL ego-feature extraction on a collaboration network's
/// highest-degree vertex (the hub shape engine builds are dominated by).
fn bench_structural(c: &mut Criterion) {
    let corpus = Corpus::generate(&CorpusConfig {
        num_authors: 400,
        num_papers: 1_600,
        seed: 42,
        ..Default::default()
    });
    let scn = Scn::build(&corpus, 2);
    let csr = scn.csr();
    let hub: VertexId = (0..scn.graph.num_vertices())
        .map(VertexId::from)
        .max_by_key(|&v| scn.graph.degree(v))
        .expect("non-empty graph");
    let label = |v: VertexId| u64::from(scn.graph.vertex(v).name.0);

    let mut group = c.benchmark_group("structural");
    group.bench_function("triangles_of/adj_hub", |b| {
        b.iter(|| triangles_of(black_box(&scn.graph), black_box(hub)));
    });
    group.bench_function("triangles_of/csr_hub", |b| {
        b.iter(|| triangles_of_csr(black_box(&csr), black_box(hub)));
    });
    group.bench_function("wl_features/adj_hub", |b| {
        b.iter(|| vertex_features(black_box(&scn.graph), black_box(hub), 2, label));
    });
    group.bench_function("wl_features/csr_hub", |b| {
        b.iter(|| vertex_features_csr(black_box(&csr), black_box(hub), 2, label));
    });
    group.finish();
}

criterion_group!(benches, bench_similarity, bench_kernels, bench_structural);
criterion_main!(benches);
