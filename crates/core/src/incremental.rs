//! Incremental single-paper disambiguation (§V-E).
//!
//! A newly published paper's author mention is treated as an isolated
//! vertex. We compute its γ-vector against every existing vertex with the
//! same name, score with the already-fitted mixture, and assign to the
//! arg-max vertex if its score reaches δ — otherwise the mention founds a
//! new author. No retraining happens; this is the paper's headline
//! efficiency property (< 50 ms per paper in their evaluation).

use iuad_corpus::{Mention, NameId, Paper};
use iuad_graph::{wl::SparseFeatures, VertexId};
use iuad_mixture::TwoComponentMixture;

use crate::profile::{ProfileContext, VertexProfile};
use crate::scn::Scn;
use crate::similarity::{SimilarityEngine, NUM_SIMILARITIES};

/// Outcome of disambiguating one new mention.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// The mention belongs to this existing vertex (its matching score
    /// reached δ and was the maximum, conditions (1)+(2) of §V-E).
    Existing {
        /// The matched vertex in the global collaboration network.
        vertex: VertexId,
        /// Its posterior log-odds score.
        score: f64,
    },
    /// No existing vertex reached δ: the mention founds a new author.
    NewAuthor {
        /// The best (insufficient) score observed, if any candidate existed.
        best_score: Option<f64>,
    },
}

/// The evidence one new mention carries: its transient profile plus the
/// star-graph structural features. The decision rule *and* the absorb path
/// both consume it, so [`ingest_paper`] computes it once per slot instead
/// of once per use.
#[derive(Debug, Clone)]
struct MentionEvidence {
    /// Single-paper profile of the new mention
    /// ([`VertexProfile::from_new_paper`]).
    profile: VertexProfile,
    /// WL features of the mention's collaboration star.
    wl: SparseFeatures,
    /// Name triangles through the mention (its co-authors form a clique),
    /// sorted `(min, max)` pairs, deduplicated.
    tris: Vec<(u32, u32)>,
}

impl MentionEvidence {
    /// Compute the evidence for the author at `slot` of a new `paper`.
    fn gather(
        ctx: &ProfileContext,
        engine: &SimilarityEngine,
        paper: &Paper,
        slot: usize,
    ) -> MentionEvidence {
        let name = paper.authors[slot];
        let profile = VertexProfile::from_new_paper(name, paper, ctx);
        let coauthors: Vec<u32> = paper
            .authors
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != slot)
            .map(|(_, n)| n.0)
            .collect();
        let wl = engine.star_features(name.0, &coauthors);
        // Co-authors of one paper form a clique, so every pair of the new
        // mention's co-authors is a triangle through it.
        let mut tris: Vec<(u32, u32)> = Vec::new();
        for i in 0..coauthors.len() {
            for j in (i + 1)..coauthors.len() {
                let (a, b) = (coauthors[i], coauthors[j]);
                tris.push((a.min(b), a.max(b)));
            }
        }
        tris.sort_unstable();
        tris.dedup();
        MentionEvidence { profile, wl, tris }
    }
}

/// The decision rule of §V-E over precomputed evidence: arg-max posterior
/// log-odds across `candidates`, matched only if the best score reaches δ.
fn decide_with_evidence(
    ctx: &ProfileContext,
    engine: &SimilarityEngine,
    model: &TwoComponentMixture,
    delta: f64,
    evidence: &MentionEvidence,
    candidates: &[VertexId],
) -> Decision {
    let features: Vec<usize> = (0..NUM_SIMILARITIES).collect();
    let mut best: Option<(VertexId, f64)> = None;
    for &v in candidates {
        let gamma =
            engine.similarity_against(ctx, &evidence.profile, &evidence.wl, &evidence.tris, v);
        let projected: Vec<f64> = features.iter().map(|&f| gamma[f]).collect();
        let score = model.log_odds(&projected);
        if best.is_none_or(|(_, s)| score > s) {
            best = Some((v, score));
        }
    }
    match best {
        Some((v, s)) if s >= delta => Decision::Existing {
            vertex: v,
            score: s,
        },
        Some((_, s)) => Decision::NewAuthor {
            best_score: Some(s),
        },
        None => Decision::NewAuthor { best_score: None },
    }
}

/// Disambiguate the author at `slot` of a new `paper` against `network`.
pub fn disambiguate_mention(
    network: &Scn,
    ctx: &ProfileContext,
    engine: &SimilarityEngine,
    model: &TwoComponentMixture,
    delta: f64,
    paper: &Paper,
    slot: usize,
) -> Decision {
    let name = paper.authors[slot];
    let Some(candidates) = network.by_name.get(&name) else {
        return Decision::NewAuthor { best_score: None };
    };
    let evidence = MentionEvidence::gather(ctx, engine, paper, slot);
    decide_with_evidence(ctx, engine, model, delta, &evidence, candidates)
}

/// Fold a decided mention into `network` and `engine` without refitting:
/// append the mention to the matched vertex (founding a fresh vertex for
/// [`Decision::NewAuthor`]) and absorb its precomputed single-paper profile
/// into the engine. Returns the vertex that received the mention, so a
/// serving tier can track the touched set for its next epoch publish.
pub fn absorb_mention(
    network: &mut Scn,
    engine: &mut SimilarityEngine,
    paper: &Paper,
    slot: usize,
    decision: Decision,
    delta_profile: &VertexProfile,
) -> VertexId {
    let mention = Mention::new(paper.id, slot);
    let name = paper.authors[slot];
    let v = match decision {
        Decision::Existing { vertex, .. } => vertex,
        Decision::NewAuthor { .. } => {
            let v = network.graph.add_vertex(crate::scn::ScnVertex {
                name,
                mentions: Vec::new(),
            });
            network.by_name.entry(name).or_default().push(v);
            v
        }
    };
    network.graph.vertex_mut(v).mentions.push(mention);
    network.assignment.insert(mention, v);
    engine.absorb(v, delta_profile);
    v
}

/// Stream one new paper into `network` and `engine`: resolve its slots in
/// order, each decided against the state the previous slots left (a slot
/// may match a vertex an earlier slot of the same paper founded), and
/// absorb each decision before the next slot is decided. Every slot's
/// evidence (its transient profile and star-graph features) is gathered
/// once and feeds both the decision and the absorb. With no fitted
/// `model`, every slot founds a new author. Returns each slot's name,
/// decision and receiving vertex.
pub fn ingest_paper(
    network: &mut Scn,
    ctx: &ProfileContext,
    engine: &mut SimilarityEngine,
    model: Option<&TwoComponentMixture>,
    delta: f64,
    paper: &Paper,
) -> Vec<(NameId, Decision, VertexId)> {
    (0..paper.authors.len())
        .map(|slot| {
            let name = paper.authors[slot];
            let evidence = MentionEvidence::gather(ctx, engine, paper, slot);
            let decision = match (model, network.by_name.get(&name)) {
                (Some(model), Some(candidates)) => {
                    decide_with_evidence(ctx, engine, model, delta, &evidence, candidates)
                }
                _ => Decision::NewAuthor { best_score: None },
            };
            let v = absorb_mention(network, engine, paper, slot, decision, &evidence.profile);
            (name, decision, v)
        })
        .collect()
}

/// Convenience: disambiguate every slot of a new paper independently.
pub fn disambiguate_paper(
    network: &Scn,
    ctx: &ProfileContext,
    engine: &SimilarityEngine,
    model: &TwoComponentMixture,
    delta: f64,
    paper: &Paper,
) -> Vec<(NameId, Decision)> {
    (0..paper.authors.len())
        .map(|slot| {
            (
                paper.authors[slot],
                disambiguate_mention(network, ctx, engine, model, delta, paper, slot),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gcn::{merge_network, Gcn, GcnConfig};
    use iuad_corpus::{Corpus, CorpusConfig};

    struct Fixture {
        corpus: Corpus,
        network: Scn,
        ctx: ProfileContext,
        engine: SimilarityEngine,
        model: TwoComponentMixture,
        held_out: Vec<(Paper, Vec<iuad_corpus::AuthorId>)>,
    }

    fn fixture() -> Fixture {
        let full = Corpus::generate(&CorpusConfig {
            num_authors: 250,
            num_papers: 1200,
            seed: 37,
            ..Default::default()
        });
        let (base, held_out) = full.split_tail(60);
        let scn = Scn::build(&base, 2);
        let ctx = ProfileContext::build(&base, 16, 5);
        let engine = SimilarityEngine::build(&scn, &ctx, 0.62, 2);
        let gcn = Gcn::build(&scn, &ctx, &engine, &GcnConfig::default());
        let (network, _) = merge_network(&base, &scn, &gcn.cluster_of_vertex);
        let net_engine = SimilarityEngine::build(&network, &ctx, 0.62, 2);
        Fixture {
            corpus: base,
            network,
            ctx,
            engine: net_engine,
            model: gcn.model.expect("model fitted"),
            held_out,
        }
    }

    #[test]
    fn decisions_are_well_formed() {
        let f = fixture();
        for (paper, _) in f.held_out.iter().take(20) {
            for slot in 0..paper.authors.len() {
                let d =
                    disambiguate_mention(&f.network, &f.ctx, &f.engine, &f.model, 0.0, paper, slot);
                match d {
                    Decision::Existing { vertex, score } => {
                        assert!(score.is_finite());
                        assert_eq!(f.network.graph.vertex(vertex).name, paper.authors[slot]);
                    }
                    Decision::NewAuthor { best_score } => {
                        if let Some(s) = best_score {
                            assert!(s < 0.0);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn unknown_name_founds_new_author() {
        let f = fixture();
        let mut paper = f.held_out[0].0.clone();
        // A name id beyond anything in the corpus.
        paper.authors[0] = NameId(u32::MAX - 1);
        let d = disambiguate_mention(&f.network, &f.ctx, &f.engine, &f.model, 0.0, &paper, 0);
        assert_eq!(d, Decision::NewAuthor { best_score: None });
    }

    #[test]
    fn higher_delta_creates_more_new_authors() {
        let f = fixture();
        let count_new = |delta: f64| -> usize {
            f.held_out
                .iter()
                .take(30)
                .flat_map(|(p, _)| (0..p.authors.len()).map(move |s| (p, s)))
                .filter(|(p, s)| {
                    matches!(
                        disambiguate_mention(&f.network, &f.ctx, &f.engine, &f.model, delta, p, *s),
                        Decision::NewAuthor { .. }
                    )
                })
                .count()
        };
        assert!(count_new(1e6) >= count_new(0.0));
        assert!(count_new(0.0) >= count_new(-1e6));
    }

    #[test]
    fn incremental_assignment_is_frequently_correct() {
        // The accuracy bar is modest: a single paper carries limited
        // information (the paper itself reports a small drop, Table VI).
        let f = fixture();
        let mut correct = 0usize;
        let mut total = 0usize;
        for (paper, truth) in &f.held_out {
            for (slot, slot_truth) in truth.iter().enumerate().take(paper.authors.len()) {
                let d =
                    disambiguate_mention(&f.network, &f.ctx, &f.engine, &f.model, 0.0, paper, slot);
                let Decision::Existing { vertex, .. } = d else {
                    continue;
                };
                // Majority truth of the matched vertex.
                let mut counts = rustc_hash::FxHashMap::default();
                for m in &f.network.graph.vertex(vertex).mentions {
                    *counts.entry(f.corpus.truth_of(*m).0).or_insert(0usize) += 1;
                }
                let major = counts
                    .into_iter()
                    .max_by_key(|&(a, n)| (n, std::cmp::Reverse(a)))
                    .map(|(a, _)| a);
                total += 1;
                if major == Some(slot_truth.0) {
                    correct += 1;
                }
            }
        }
        assert!(total > 20, "too few matched decisions: {total}");
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.5, "incremental accuracy too low: {acc:.3}");
    }
}
