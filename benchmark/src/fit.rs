//! The fit side: corpus generation, the shipped `Iuad::fit`, its quality,
//! and the traced stage-by-stage fit whose partition must match it.

use std::time::Instant;

use iuad_core::gcn::{
    self, candidate_pair_data_parallel, fit_model, merge_network, scores_for_parallel,
    training_rows, MergePolicy,
};
use iuad_core::{
    CacheScope, Decision, Iuad, IuadConfig, ProfileContext, Scn, SimilarityEngine, NUM_SIMILARITIES,
};
use iuad_corpus::{select_test_names, Corpus, CorpusConfig, Mention, NameId, Paper};
use iuad_eval::{b_cubed, pairwise_confusion, Confusion};
use iuad_serve::partition_fingerprint;
use rustc_hash::FxHashMap;

use crate::stats::Sample;
use crate::trace::Tracer;

/// Generate a corpus of `papers` papers and `authors` authors from `seed`,
/// timing the generation.
pub fn generate(papers: usize, authors: usize, seed: u64) -> (Corpus, f64) {
    let t = Instant::now();
    let corpus = Corpus::generate(&CorpusConfig {
        num_authors: authors,
        num_papers: papers,
        seed,
        ..CorpusConfig::default()
    });
    (corpus, t.elapsed().as_secs_f64())
}

/// The shipped fit at the shipped defaults (single-threaded), timed.
pub fn shipped_fit(corpus: &Corpus) -> (Iuad, f64) {
    let t = Instant::now();
    let iuad = Iuad::fit(corpus, &IuadConfig::default());
    (iuad, t.elapsed().as_secs_f64())
}

/// Quality on every ambiguous name (two or more authors, three or more
/// papers), scored as `iuad fit` scores its 50 largest: pairwise micro F1
/// over the pooled confusion, and B³ F1 from the name-averaged B³
/// precision and recall. Over the 50 largest names alone, pairwise F1 on
/// the 100k corpus spread 0.26 across seeds, wider than any bound.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    pub names: usize,
    pub pairwise_f1: f64,
    pub b3_f1: f64,
}

pub fn quality(corpus: &Corpus, iuad: &Iuad) -> Quality {
    let test = select_test_names(corpus, 2, 3, usize::MAX);
    // One pass over the mentions instead of a corpus scan per name.
    let mut by_name: FxHashMap<NameId, Vec<Mention>> = FxHashMap::default();
    for m in corpus.mentions() {
        by_name.entry(corpus.name_of(m)).or_default().push(m);
    }
    let mut conf = Confusion::default();
    let (mut b3_p, mut b3_r) = (0.0, 0.0);
    for row in &test.names {
        let mentions = by_name.get(&row.name).map_or(&[][..], Vec::as_slice);
        let truth: Vec<u32> = mentions.iter().map(|m| corpus.truth_of(*m).0).collect();
        let pred: Vec<usize> = mentions
            .iter()
            .map(|m| iuad.network.assignment[m].index())
            .collect();
        conf.add(pairwise_confusion(&pred, &truth));
        let (p, r, _) = b_cubed(&pred, &truth);
        b3_p += p;
        b3_r += r;
    }
    let n = test.names.len().max(1) as f64;
    let (b3_p, b3_r) = (b3_p / n, b3_r / n);
    Quality {
        names: test.names.len(),
        pairwise_f1: conf.metrics().f1,
        b3_f1: if b3_p + b3_r > 0.0 {
            2.0 * b3_p * b3_r / (b3_p + b3_r)
        } else {
            0.0
        },
    }
}

/// Whether the fitted partition covers every mention of the corpus exactly
/// once — the check every fit passes even for a seed with no recorded
/// fingerprint.
pub fn partition_complete(corpus: &Corpus, iuad: &Iuad) -> bool {
    iuad.network.assignment.len() == corpus.num_mentions()
        && corpus
            .mentions()
            .all(|m| iuad.network.assignment.contains_key(&m))
}

pub fn fingerprint(iuad: &Iuad) -> u64 {
    partition_fingerprint(&iuad.network)
}

/// The fit run stage by stage through the same public entry points
/// `Iuad::fit` calls, each stage a span, with the per-layer metrics read
/// off the spans. Returns the merged network's partition fingerprint and
/// the traced total, for the trace-vs-shipped check and the tracing
/// overhead.
pub fn traced_fit(corpus: &Corpus, tr: &mut Tracer) -> (u64, f64) {
    let cfg = IuadConfig::default();
    let par = &cfg.parallel;
    let (fit_out, total) = tr.span("fit", |tr| {
        let start = tr.now_s();
        let ((ctx, sgns), context_s) = tr.span("profile.context", |_| {
            ProfileContext::build_with_stats(corpus, cfg.embedding_dim, cfg.embedding_seed, par)
        });
        // The SGNS sub-stages run in that order inside the context build;
        // the library times them, so they are recorded, not re-timed.
        let mut at = start;
        for (name, s) in [
            ("text.sgns_vocab", sgns.vocab_seconds),
            ("text.sgns_sampler", sgns.sampler_seconds),
            ("text.sgns_epochs", sgns.epochs_seconds),
        ] {
            tr.record(name, at, s);
            at += s;
        }
        let (scn, scn_s) = tr.span("scn.build", |_| Scn::build_parallel(corpus, cfg.eta, par));
        let (engine, build_s) = tr.span("similarity.build", |_| {
            SimilarityEngine::build_parallel(
                &scn,
                &ctx,
                cfg.alpha,
                cfg.wl_iters,
                CacheScope::AmbiguousOnly,
                par,
            )
        });
        let (data, pairs_s) = tr.span("gcn.candidate_pairs", |_| {
            candidate_pair_data_parallel(&scn, &ctx, &engine, par)
        });
        let all_features: Vec<usize> = (0..NUM_SIMILARITIES).collect();
        let ((model, rows), mixture_s) = tr.span("mixture.fit", |_| {
            let (rows, anchors) = training_rows(&data, &scn, &ctx, &engine, &cfg.gcn);
            let model = fit_model(&rows, &anchors, &all_features, &cfg.gcn.em);
            (model, rows.len())
        });
        let (cluster_of_vertex, score_s) = tr.span("gcn.score_cluster", |_| match &model {
            Some(m) => {
                let scores = scores_for_parallel(m, &data.vectors, &all_features, par);
                match cfg.gcn.merge_policy {
                    MergePolicy::Transitive => {
                        gcn::clusters_from_scores(&scn, &data.pairs, &scores, cfg.gcn.delta).0
                    }
                    MergePolicy::AverageLinkage => {
                        gcn::clusters_by_linkage(&scn, &data.pairs, &scores, cfg.gcn.delta).0
                    }
                }
            }
            None => (0..scn.graph.num_vertices()).collect(),
        });
        let ((network, plan), merge_s) = tr.span("gcn.merge", |_| {
            merge_network(corpus, &scn, &cluster_of_vertex)
        });
        let (_derived, derive_s) = tr.span("similarity.derive", |_| {
            SimilarityEngine::derive(
                engine,
                &plan,
                &network,
                &ctx,
                CacheScope::AmbiguousOnly,
                par,
            )
        });
        let stable = scn
            .graph
            .vertices()
            .filter(|(_, v)| v.mentions.len() >= 2)
            .count();
        let m = vec![
            ("profile.context_s", context_s, "s"),
            ("text.sgns_vocab_s", sgns.vocab_seconds, "s"),
            ("text.sgns_sampler_s", sgns.sampler_seconds, "s"),
            ("text.sgns_epochs_s", sgns.epochs_seconds, "s"),
            ("profile.ctx_heap_bytes", ctx.heap_bytes() as f64, "bytes"),
            ("scn.build_s", scn_s, "s"),
            ("scn.vertices", scn.graph.num_vertices() as f64, "count"),
            ("scn.stable_vertices", stable as f64, "count"),
            ("similarity.build_s", build_s, "s"),
            ("similarity.derive_s", derive_s, "s"),
            ("gcn.candidate_pairs_s", pairs_s, "s"),
            ("gcn.candidate_pairs", data.pairs.len() as f64, "count"),
            ("gcn.pairs_per_s", data.pairs.len() as f64 / pairs_s, "1/s"),
            ("mixture.fit_s", mixture_s, "s"),
            ("mixture.training_rows", rows as f64, "count"),
            ("gcn.score_cluster_s", score_s, "s"),
            ("gcn.merge_s", merge_s, "s"),
            (
                "gcn.coalesced_frac",
                plan.coalesced.len() as f64 / network.graph.num_vertices().max(1) as f64,
                "ratio",
            ),
        ];
        (network, ctx, m)
    });
    // Not on the shipped path, so outside the `fit` span: the full rebuild
    // `derive` replaces, timed for the derive-versus-rebuild comparison.
    let (network, ctx, mut m) = fit_out;
    let (_, rebuild_s) = tr.span("similarity.rebuild", |_| {
        SimilarityEngine::build_parallel(
            &network,
            &ctx,
            cfg.alpha,
            cfg.wl_iters,
            CacheScope::AmbiguousOnly,
            par,
        )
    });
    m.push(("similarity.rebuild_s", rebuild_s, "s"));
    for (name, value, unit) in m {
        tr.metric(name, value, unit);
    }
    (partition_fingerprint(&network), total)
}

/// `Iuad::disambiguate_paper` over held-out papers: the paper's
/// posterior-only judgement of new papers. Returns per-paper latencies in
/// µs and the share of decisions that matched an existing author.
pub fn decide_tail(iuad: &Iuad, papers: &[Paper]) -> (Sample, f64) {
    let mut micros = Vec::with_capacity(papers.len());
    let (mut existing, mut total) = (0usize, 0usize);
    for paper in papers {
        let t = Instant::now();
        let decisions = std::hint::black_box(iuad.disambiguate_paper(paper));
        micros.push(t.elapsed().as_secs_f64() * 1e6);
        total += decisions.len();
        existing += decisions
            .iter()
            .filter(|(_, d)| matches!(d, Decision::Existing { .. }))
            .count();
    }
    (Sample::new(micros), existing as f64 / total.max(1) as f64)
}
