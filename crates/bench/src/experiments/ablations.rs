//! Ablations beyond the paper's figures, committed to in DESIGN.md:
//!
//! * `ablation-eta` — sensitivity of both stages to the η-SCR threshold;
//! * `ablation-sampling` — the 10% pair-sampling strategy vs more/less;
//! * `ablation-split` — the vertex-splitting balance strategy on/off;
//! * `ablation-features` — leave-one-similarity-out at δ = 0.

use std::time::Instant;

use iuad_core::gcn::{
    candidate_pair_data, clusters_by_linkage, clusters_from_scores, fit_model, scores_for,
    training_rows, GcnConfig,
};
use iuad_core::{Iuad, IuadConfig, ProfileContext, Scn, SimilarityEngine};
use iuad_corpus::Corpus;
use iuad_eval::Table;
use serde::Serialize;

use crate::experiments::fig6::FEATURE_NAMES;
use crate::{eval_labels, split_train_test_names, write_results};

#[derive(Serialize)]
struct Row {
    variant: String,
    micro_a: f64,
    micro_p: f64,
    micro_r: f64,
    micro_f: f64,
    extra: String,
}

fn metrics_row(
    corpus: &Corpus,
    test: &iuad_corpus::TestSet,
    iuad: &Iuad,
    variant: String,
    extra: String,
) -> Row {
    let m = eval_labels(corpus, test, |name| iuad.labels_of_name(corpus, name));
    Row {
        variant,
        micro_a: m.accuracy,
        micro_p: m.precision,
        micro_r: m.recall,
        micro_f: m.f1,
        extra,
    }
}

fn render(rows: &[Row], extra_header: &str) -> String {
    let mut t = Table::new([
        "Variant",
        "MicroA",
        "MicroP",
        "MicroR",
        "MicroF",
        extra_header,
    ]);
    for r in rows {
        t.row([
            r.variant.clone(),
            format!("{:.4}", r.micro_a),
            format!("{:.4}", r.micro_p),
            format!("{:.4}", r.micro_r),
            format!("{:.4}", r.micro_f),
            r.extra.clone(),
        ]);
    }
    t.render()
}

/// η-SCR threshold sweep.
pub fn run_eta(corpus: &Corpus) -> String {
    let (test, _) = split_train_test_names(corpus, 50);
    let mut rows = Vec::new();
    for eta in [2u32, 3, 4, 5] {
        eprintln!("ablation-eta: η = {eta}");
        let iuad = Iuad::fit(
            corpus,
            &IuadConfig {
                eta,
                ..Default::default()
            },
        );
        let scrs = iuad.scn.scrs.len();
        rows.push(metrics_row(
            corpus,
            &test,
            &iuad,
            format!("eta={eta}"),
            scrs.to_string(),
        ));
    }
    let out = render(&rows, "#SCRs");
    write_results("ablation_eta", &rows, &out);
    out
}

/// Training-pair sampling-fraction sweep (the paper fixes 10%).
pub fn run_sampling(corpus: &Corpus) -> String {
    let (test, _) = split_train_test_names(corpus, 50);
    let mut rows = Vec::new();
    for frac in [0.02f64, 0.1, 0.5, 1.0] {
        eprintln!("ablation-sampling: {frac}");
        let start = Instant::now();
        let iuad = Iuad::fit(
            corpus,
            &IuadConfig {
                gcn: GcnConfig {
                    sample_frac: frac,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let secs = start.elapsed().as_secs_f64();
        rows.push(metrics_row(
            corpus,
            &test,
            &iuad,
            format!("sample={frac}"),
            format!("{secs:.2}s"),
        ));
    }
    let out = render(&rows, "fit time");
    write_results("ablation_sampling", &rows, &out);
    out
}

/// Vertex-splitting balance strategy on/off.
pub fn run_split(corpus: &Corpus) -> String {
    let (test, _) = split_train_test_names(corpus, 50);
    let mut rows = Vec::new();
    for split in [true, false] {
        eprintln!("ablation-split: {split}");
        let iuad = Iuad::fit(
            corpus,
            &IuadConfig {
                gcn: GcnConfig {
                    split_balance: split,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        rows.push(metrics_row(
            corpus,
            &test,
            &iuad,
            format!("split_balance={split}"),
            String::new(),
        ));
    }
    let out = render(&rows, "");
    write_results("ablation_split", &rows, &out);
    out
}

/// Decision-threshold sweep for the full six-feature model: one SCN/model
/// build, many δ decisions. Used to pick the default δ.
pub fn run_delta(corpus: &Corpus) -> String {
    let (test, _) = split_train_test_names(corpus, 50);
    eprintln!("ablation-delta: building SCN + caches");
    let scn = Scn::build(corpus, 2);
    let ctx = ProfileContext::build(corpus, 32, 101);
    let engine = SimilarityEngine::build(&scn, &ctx, 0.62, 2);
    let data = candidate_pair_data(&scn, &ctx, &engine);
    let cfg = GcnConfig::default();
    let (train, anchors) = training_rows(&data, &scn, &ctx, &engine, &cfg);
    let feats: Vec<usize> = (0..6).collect();
    let Some(model) = fit_model(&train, &anchors, &feats, &cfg.em) else {
        return "no candidate pairs".into();
    };
    let scores = scores_for(&model, &data.vectors, &feats);

    // Pair-level diagnostics: majority ground-truth author per vertex.
    let majority: Vec<u32> = scn
        .graph
        .vertices()
        .map(|(_, payload)| {
            let mut counts = rustc_hash::FxHashMap::default();
            for m in &payload.mentions {
                *counts.entry(corpus.truth_of(*m).0).or_insert(0usize) += 1;
            }
            counts
                .into_iter()
                .max_by_key(|&(a, n)| (n, std::cmp::Reverse(a)))
                .map(|(a, _)| a)
                .unwrap_or(u32::MAX)
        })
        .collect();
    let truly_matched: Vec<bool> = data
        .pairs
        .iter()
        .map(|&(a, b)| majority[a.index()] == majority[b.index()])
        .collect();
    let total_matched = truly_matched.iter().filter(|&&x| x).count().max(1);

    let mut rows = Vec::new();
    for policy in ["transitive", "avg-linkage"] {
        for delta in [-40.0f64, -20.0, -10.0, -5.0, 0.0, 5.0, 10.0, 20.0, 40.0] {
            let accepted: Vec<usize> = scores
                .iter()
                .enumerate()
                .filter(|&(_, &s)| s >= delta)
                .map(|(i, _)| i)
                .collect();
            let tp = accepted.iter().filter(|&&i| truly_matched[i]).count();
            let pair_p = tp as f64 / accepted.len().max(1) as f64;
            let pair_r = tp as f64 / total_matched as f64;

            let (clusters, _, merges) = if policy == "transitive" {
                clusters_from_scores(&scn, &data.pairs, &scores, delta)
            } else {
                clusters_by_linkage(&scn, &data.pairs, &scores, delta)
            };
            let m = eval_labels(corpus, &test, |name| {
                corpus
                    .mentions_of_name(name)
                    .iter()
                    .map(|mn| clusters[scn.assignment[mn].index()])
                    .collect()
            });
            rows.push(Row {
                variant: format!("{policy} delta={delta}"),
                micro_a: m.accuracy,
                micro_p: m.precision,
                micro_r: m.recall,
                micro_f: m.f1,
                extra: format!("merges={merges} pairP={pair_p:.3} pairR={pair_r:.3}"),
            });
        }
    }
    let out = render(&rows, "pair-level");
    write_results("ablation_delta", &rows, &out);
    out
}

/// Leave-one-similarity-out at δ = 0 (complements Fig. 6's
/// single-similarity view).
pub fn run_features(corpus: &Corpus) -> String {
    let (test, _) = split_train_test_names(corpus, 50);
    eprintln!("ablation-features: building SCN + caches");
    let scn = Scn::build(corpus, 2);
    let ctx = ProfileContext::build(corpus, 32, 101);
    let engine = SimilarityEngine::build(&scn, &ctx, 0.62, 2);
    let data = candidate_pair_data(&scn, &ctx, &engine);
    let cfg = GcnConfig::default();
    let (train, anchors) = training_rows(&data, &scn, &ctx, &engine, &cfg);

    let mut rows = Vec::new();
    let mut variants: Vec<(String, Vec<usize>)> = vec![("all-six".into(), (0..6).collect())];
    for (f, name) in FEATURE_NAMES.iter().enumerate() {
        let feats: Vec<usize> = (0..6).filter(|&x| x != f).collect();
        variants.push((format!("minus {name}"), feats));
    }
    for (variant, feats) in variants {
        eprintln!("ablation-features: {variant}");
        let Some(model) = fit_model(&train, &anchors, &feats, &cfg.em) else {
            continue;
        };
        let scores = scores_for(&model, &data.vectors, &feats);
        let (clusters, _, _) = clusters_from_scores(&scn, &data.pairs, &scores, cfg.delta);
        let m = eval_labels(corpus, &test, |name| {
            corpus
                .mentions_of_name(name)
                .iter()
                .map(|mn| clusters[scn.assignment[mn].index()])
                .collect()
        });
        rows.push(Row {
            variant,
            micro_a: m.accuracy,
            micro_p: m.precision,
            micro_r: m.recall,
            micro_f: m.f1,
            extra: String::new(),
        });
    }
    let out = render(&rows, "");
    write_results("ablation_features", &rows, &out);
    out
}
