//! Figure 6: rationality of the similarity functions — construct the GCN
//! with a *single* similarity at a time and sweep the decision threshold δ,
//! reporting all four metrics per (feature, δ).

use iuad_core::gcn::{
    candidate_pair_data, clusters_from_scores, fit_model, scores_for, training_rows, GcnConfig,
};
use iuad_core::{ProfileContext, Scn, SimilarityEngine};
use iuad_corpus::Corpus;
use iuad_eval::Table;
use serde::Serialize;

use crate::{eval_labels, split_train_test_names, write_results};

/// Display names of the six similarities, in γ order.
pub const FEATURE_NAMES: [&str; 6] = [
    "WL-kernel",
    "co-author-cliques",
    "research-interests",
    "time-consistency",
    "representative-community",
    "research-community",
];

#[derive(Serialize)]
struct Row {
    feature: &'static str,
    delta: f64,
    micro_a: f64,
    micro_p: f64,
    micro_r: f64,
    micro_f: f64,
}

/// Run Figure 6 and return the rendered output.
pub fn run(corpus: &Corpus) -> String {
    let (test, _) = split_train_test_names(corpus, 50);
    eprintln!("fig6: building SCN + similarity caches");
    let scn = Scn::build(corpus, 2);
    let ctx = ProfileContext::build(corpus, 32, 101);
    let engine = SimilarityEngine::build(&scn, &ctx, 0.62, 2);
    let data = candidate_pair_data(&scn, &ctx, &engine);
    let cfg = GcnConfig::default();
    let (rows_train, anchors) = training_rows(&data, &scn, &ctx, &engine, &cfg);

    let mut rows: Vec<Row> = Vec::new();
    for (f, fname) in FEATURE_NAMES.iter().enumerate() {
        eprintln!("fig6: feature {fname}");
        let Some(model) = fit_model(&rows_train, &anchors, &[f], &cfg.em) else {
            continue;
        };
        let scores = scores_for(&model, &data.vectors, &[f]);
        // Sweep δ across the observed score distribution.
        let mut sorted = scores.clone();
        sorted.sort_by(f64::total_cmp);
        let quantile = |q: f64| sorted[(q * (sorted.len() - 1) as f64) as usize];
        let mut deltas: Vec<f64> = [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99]
            .iter()
            .map(|&q| quantile(q))
            .collect();
        deltas.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        for delta in deltas {
            let (clusters, _, _) = clusters_from_scores(&scn, &data.pairs, &scores, delta);
            let m = eval_labels(corpus, &test, |name| {
                corpus
                    .mentions_of_name(name)
                    .iter()
                    .map(|mn| clusters[scn.assignment[mn].index()])
                    .collect()
            });
            rows.push(Row {
                feature: fname,
                delta,
                micro_a: m.accuracy,
                micro_p: m.precision,
                micro_r: m.recall,
                micro_f: m.f1,
            });
        }
    }

    let mut t = Table::new(["Feature", "delta", "MicroA", "MicroP", "MicroR", "MicroF"]);
    for r in &rows {
        t.row([
            r.feature.to_string(),
            format!("{:.3}", r.delta),
            format!("{:.4}", r.micro_a),
            format!("{:.4}", r.micro_p),
            format!("{:.4}", r.micro_r),
            format!("{:.4}", r.micro_f),
        ]);
    }
    let out = t.render();
    write_results("fig6", &rows, &out);
    out
}
