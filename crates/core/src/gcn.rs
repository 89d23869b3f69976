//! Stage 2: Global Collaboration Network construction (§V).
//!
//! For every pair of same-name SCN vertices compute the γ-vector, train the
//! two-component mixture on a sample of pairs (plus synthetic matched pairs
//! from vertex splitting, §V-F2), score every pair with the posterior
//! log-odds (Equation 11), and merge transitively where the score reaches δ.

use rand::prelude::*;
use rand::rngs::StdRng;
use rustc_hash::FxHashMap;

use iuad_corpus::{Corpus, Mention};
use iuad_graph::{AdjGraph, UnionFind, VertexId};
use iuad_mixture::{EmConfig, TwoComponentMixture};
use iuad_par::ParallelConfig;

use crate::profile::ProfileContext;
use crate::scn::{EdgeData, Scn, ScnVertex};
use crate::similarity::{
    JoinEvidence, SimilarityEngine, SimilarityVector, FAMILIES, NUM_SIMILARITIES,
};
use crate::stages::StageTimes;

/// How accepted pair decisions are turned into clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergePolicy {
    /// Algorithm 1 line 15 verbatim: union every pair with score ≥ δ.
    /// Simple, but a single false-positive pair bridges two whole author
    /// clusters, so precision degrades through chaining on dense candidate
    /// sets.
    Transitive,
    /// Average-linkage agglomeration per name over the same scores: merge
    /// the two clusters with the highest *mean* pairwise score while that
    /// mean ≥ δ. Same δ semantics, no chaining. The default; the
    /// `ablation-delta` sweep (`repro ablation-delta`) scores both policies
    /// at every δ it tries.
    #[default]
    AverageLinkage,
}

/// GCN-stage configuration.
#[derive(Debug, Clone)]
pub struct GcnConfig {
    /// Decision threshold δ on the posterior log-odds. The default (−10) is
    /// calibrated by the `ablation-delta` sweep: naive-Bayes log-odds are
    /// biased against matches when features are correlated, and a small
    /// negative offset recovers the paper's precision/recall balance.
    pub delta: f64,
    /// Cluster-formation policy.
    pub merge_policy: MergePolicy,
    /// Fraction of candidate pairs used to train the mixture (§V-F1: 10%).
    pub sample_frac: f64,
    /// Train on at least this many pairs when available (small corpora).
    pub min_train_pairs: usize,
    /// Enable the vertex-splitting balance strategy (§V-F2).
    pub split_balance: bool,
    /// Maximum vertices split for synthetic matched pairs.
    pub max_split_vertices: usize,
    /// EM settings.
    pub em: EmConfig,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for GcnConfig {
    fn default() -> Self {
        Self {
            delta: -10.0,
            merge_policy: MergePolicy::default(),
            sample_frac: 0.1,
            min_train_pairs: 200,
            split_balance: true,
            max_split_vertices: 1_000,
            em: EmConfig::default(),
            seed: 17,
        }
    }
}

/// All candidate pairs (same-name vertex pairs) with their γ-vectors.
#[derive(Debug, Clone, Default)]
pub struct PairData {
    /// Vertex pairs, `(v_i, v_j)` with `v_i < v_j`, grouped by name.
    pub pairs: Vec<(VertexId, VertexId)>,
    /// γ-vectors parallel to `pairs`.
    pub vectors: Vec<SimilarityVector>,
}

/// Name groups below this size get no [`JoinEvidence`]. A 2-vertex
/// group's filtered evidence is exactly its single pair's intersection, so
/// building it costs the full-evidence scan it would later save — zero net
/// win — while a k ≥ 3 group amortises one basis across k(k−1)/2 pairs.
/// Excluded pairs score over full evidence, which the filter is exact
/// against by construction, so γ-vectors are unchanged.
pub(crate) const JOIN_EVIDENCE_MIN_GROUP: usize = 3;

/// Compute γ-vectors for every same-name vertex pair (the candidate set `R`).
pub fn candidate_pair_data(scn: &Scn, ctx: &ProfileContext, engine: &SimilarityEngine) -> PairData {
    candidate_pair_data_parallel(scn, ctx, engine, &ParallelConfig::sequential())
}

/// [`candidate_pair_data`] fanned across `par.threads` workers, one job
/// per same-name candidate group: each group's [`JoinEvidence`] is built,
/// then its pairs are scored over it. γ-vectors are pure functions of the
/// cached engine state, so the output is identical at any thread count
/// (and bit-identical to per-pair [`SimilarityEngine::similarity`]).
pub fn candidate_pair_data_parallel(
    scn: &Scn,
    ctx: &ProfileContext,
    engine: &SimilarityEngine,
    par: &ParallelConfig,
) -> PairData {
    let groups = candidate_groups(scn);
    let evidence = group_evidence(&groups, engine, par);
    score_groups(&groups, &evidence, ctx, engine, par)
}

/// Each candidate group's [`JoinEvidence`], parallel to `groups`; `None`
/// for groups below [`JOIN_EVIDENCE_MIN_GROUP`].
fn group_evidence(
    groups: &[&[VertexId]],
    engine: &SimilarityEngine,
    par: &ParallelConfig,
) -> Vec<Option<Vec<JoinEvidence>>> {
    iuad_par::parallel_map(par, groups, |vs| {
        (vs.len() >= JOIN_EVIDENCE_MIN_GROUP).then(|| engine.group_join_evidence(vs))
    })
}

/// The O(n²) per-pair γ-vector computation — the dominant Stage-2 cost —
/// one [`SimilarityEngine::similarity_block`] per group over its
/// `evidence`, sharing one WL inverted-label pass across the group.
fn score_groups(
    groups: &[&[VertexId]],
    evidence: &[Option<Vec<JoinEvidence>>],
    ctx: &ProfileContext,
    engine: &SimilarityEngine,
    par: &ParallelConfig,
) -> PairData {
    let mut pairs: Vec<(VertexId, VertexId)> = Vec::new();
    for vs in groups {
        for i in 0..vs.len() {
            for j in (i + 1)..vs.len() {
                pairs.push((vs[i].min(vs[j]), vs[i].max(vs[j])));
            }
        }
    }
    let block_vectors = iuad_par::parallel_map_indexed(par, groups, |g, vs| {
        engine.similarity_block(ctx, vs, evidence[g].as_deref())
    });
    let vectors: Vec<SimilarityVector> = block_vectors.into_iter().flatten().collect();
    debug_assert_eq!(vectors.len(), pairs.len());
    PairData { pairs, vectors }
}

/// Same-name vertex groups with at least two members — the candidate
/// sets — in ascending name order, the order pair data is laid out in.
fn candidate_groups(scn: &Scn) -> Vec<&[VertexId]> {
    let mut names: Vec<_> = scn.by_name.iter().filter(|(_, vs)| vs.len() >= 2).collect();
    names.sort_by_key(|(n, _)| n.0);
    names.into_iter().map(|(_, vs)| vs.as_slice()).collect()
}

/// Build the training rows: a seeded `sample_frac` sample of candidate
/// vectors, optionally augmented with synthetic matched rows from vertex
/// splitting (§V-F2). Returns `(rows, anchors)`: split rows are *known*
/// matched pairs and carry a pinned responsibility for anchored EM;
/// sampled candidate rows are unanchored (`None`).
///
/// The split rows' structural features (γ₁, γ₂) are replaced by the sample
/// means: both halves occupy the *same* network position, so their raw
/// structural self-similarity is an artefact that would teach the matched
/// component "identical structure" — the opposite of the Stage-2 reality,
/// where true matches are precisely the vertex pairs whose stable structure
/// differs (that is why Stage 1 kept them apart).
pub fn training_rows(
    data: &PairData,
    scn: &Scn,
    ctx: &ProfileContext,
    engine: &SimilarityEngine,
    cfg: &GcnConfig,
) -> (Vec<Vec<f64>>, Vec<Option<f64>>) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = data.vectors.len();
    let want = ((n as f64 * cfg.sample_frac).ceil() as usize)
        .max(cfg.min_train_pairs)
        .min(n);
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut rng);
    idx.truncate(want);
    let mut rows: Vec<Vec<f64>> = idx.into_iter().map(|i| data.vectors[i].to_vec()).collect();
    let mut anchors: Vec<Option<f64>> = vec![None; rows.len()];

    if cfg.split_balance {
        let mean_structural: [f64; 2] = {
            let n = data.vectors.len().max(1) as f64;
            let s0: f64 = data.vectors.iter().map(|v| v[0]).sum();
            let s1: f64 = data.vectors.iter().map(|v| v[1]).sum();
            [s0 / n, s1 / n]
        };
        // Split the most productive vertices to synthesise matched pairs.
        let mut productive: Vec<(usize, VertexId)> = scn
            .graph
            .vertices()
            .filter(|(_, p)| p.mentions.len() >= 4)
            .map(|(v, p)| (p.mentions.len(), v))
            .collect();
        productive.sort_unstable_by(|a, b| b.cmp(a));
        for (_, v) in productive.into_iter().take(cfg.max_split_vertices) {
            if let Some(g) = engine.synthetic_split_vector(scn, ctx, v, &mut rng) {
                let mut row = g.to_vec();
                row[0] = mean_structural[0];
                row[1] = mean_structural[1];
                rows.push(row);
                anchors.push(Some(0.98));
            }
        }
    }
    (rows, anchors)
}

/// Fit the mixture on `rows`, restricted to the feature columns in
/// `features` (identity order `0..6` for the full model; single columns for
/// the Fig. 6 rationality study). `anchors` pins known-matched rows (from
/// vertex splitting); pass `&[]` for fully unsupervised fitting.
pub fn fit_model(
    rows: &[Vec<f64>],
    anchors: &[Option<f64>],
    features: &[usize],
    em: &EmConfig,
) -> Option<TwoComponentMixture> {
    if rows.is_empty() || features.is_empty() {
        return None;
    }
    let fams: Vec<_> = features.iter().map(|&f| FAMILIES[f]).collect();
    let projected: Vec<Vec<f64>> = rows
        .iter()
        .map(|r| features.iter().map(|&f| r[f]).collect())
        .collect();
    Some(TwoComponentMixture::fit_anchored(&fams, &projected, anchors, em).model)
}

/// Posterior log-odds scores for every candidate vector under `model`,
/// using the same feature projection as [`fit_model`].
pub fn scores_for(
    model: &TwoComponentMixture,
    vectors: &[SimilarityVector],
    features: &[usize],
) -> Vec<f64> {
    scores_for_parallel(model, vectors, features, &ParallelConfig::sequential())
}

/// Project `v` onto `features` (a stack buffer — `features.len()` is at most
/// [`NUM_SIMILARITIES`]) and score it under `model`.
fn score_one(model: &TwoComponentMixture, v: &SimilarityVector, features: &[usize]) -> f64 {
    let mut buf = [0.0f64; NUM_SIMILARITIES];
    for (slot, &f) in buf.iter_mut().zip(features) {
        *slot = v[f];
    }
    model.log_odds(&buf[..features.len()])
}

/// [`scores_for`] fanned across `par.threads` workers. Scoring is pure, so
/// the output is identical at any thread count.
pub fn scores_for_parallel(
    model: &TwoComponentMixture,
    vectors: &[SimilarityVector],
    features: &[usize],
    par: &ParallelConfig,
) -> Vec<f64> {
    iuad_par::parallel_map(par, vectors, |v| score_one(model, v, features))
}

/// Apply merge decisions transitively: union every pair whose score ≥ δ
/// ([`MergePolicy::Transitive`]).
/// Returns `(cluster_of_vertex, num_clusters, num_merges)`.
pub fn clusters_from_scores(
    scn: &Scn,
    pairs: &[(VertexId, VertexId)],
    scores: &[f64],
    delta: f64,
) -> (Vec<usize>, usize, usize) {
    assert_eq!(pairs.len(), scores.len());
    let n = scn.graph.num_vertices();
    let mut uf = UnionFind::new(n);
    for (&(a, b), &s) in pairs.iter().zip(scores) {
        if s >= delta {
            uf.union(a.index(), b.index());
        }
    }
    densify(&mut uf, n)
}

/// Average-linkage clustering per name over the pair scores
/// ([`MergePolicy::AverageLinkage`]): within each name's candidate set, run
/// agglomerative clustering with distance `−score` and stop threshold `−δ`,
/// so clusters merge while their mean pairwise log-odds stays ≥ δ.
/// Returns `(cluster_of_vertex, num_clusters, num_merges)`.
///
/// Scores are clamped to ±[`SCORE_CLAMP`] before averaging: naive-Bayes
/// log-odds are extremely bimodal (|score| in the thousands), and unbounded
/// averages let one overconfident accepting pair outvote many rejections.
/// Clamping turns the linkage mean into a bounded vote.
///
/// `pairs` must be laid out as [`candidate_pair_data`] lays them out (name
/// groups in ascending name order, each group's `(i, j)`, `i < j`, pairs
/// in row-major order), so a pair's score is read by position; any other
/// layout panics.
pub fn clusters_by_linkage(
    scn: &Scn,
    pairs: &[(VertexId, VertexId)],
    scores: &[f64],
    delta: f64,
) -> (Vec<usize>, usize, usize) {
    clusters_by_linkage_parallel(scn, pairs, scores, delta, &ParallelConfig::sequential())
}

/// [`clusters_by_linkage`] with the per-name agglomerations fanned across
/// `par.threads` workers, one job per name group. Each group's clustering
/// reads only its own pairs' scores, and cluster ids depend only on the
/// resulting partition (densify orders by smallest member), so the output
/// is identical at any thread count.
pub fn clusters_by_linkage_parallel(
    scn: &Scn,
    pairs: &[(VertexId, VertexId)],
    scores: &[f64],
    delta: f64,
    par: &ParallelConfig,
) -> (Vec<usize>, usize, usize) {
    assert_eq!(pairs.len(), scores.len());
    let n = scn.graph.num_vertices();
    let groups = candidate_groups(scn);
    // Each group with the position of its first pair.
    let mut next = 0usize;
    let spans: Vec<(usize, &[VertexId])> = groups
        .iter()
        .map(|&vs| {
            let start = next;
            next += vs.len() * (vs.len() - 1) / 2;
            (start, vs)
        })
        .collect();
    assert_eq!(next, pairs.len(), "pairs must follow the candidate layout");
    let labels = iuad_par::parallel_map(par, &spans, |&(start, vs)| {
        let k = vs.len();
        iuad_cluster::hac(
            k,
            |i, j| {
                let (i, j) = (i.min(j), i.max(j));
                let at = start + i * (2 * k - i - 1) / 2 + (j - i - 1);
                assert!(
                    pairs[at] == (vs[i].min(vs[j]), vs[i].max(vs[j])),
                    "pairs must follow the candidate layout"
                );
                -scores[at].clamp(-SCORE_CLAMP, SCORE_CLAMP)
            },
            iuad_cluster::Linkage::Average,
            -delta,
        )
    });
    let mut uf = UnionFind::new(n);
    for (vs, labels) in groups.iter().zip(labels) {
        for i in 0..vs.len() {
            for j in (i + 1)..vs.len() {
                if labels[i] == labels[j] {
                    uf.union(vs[i].index(), vs[j].index());
                }
            }
        }
    }
    densify(&mut uf, n)
}

/// Bound on per-pair log-odds inside the linkage average.
pub const SCORE_CLAMP: f64 = 25.0;

/// Dense cluster ids ordered by smallest member.
fn densify(uf: &mut UnionFind, n: usize) -> (Vec<usize>, usize, usize) {
    let merges = n - uf.num_components();
    let mut cluster_of = vec![usize::MAX; n];
    let mut next = 0usize;
    for v in 0..n {
        let root = uf.find(v);
        if cluster_of[root] == usize::MAX {
            cluster_of[root] = next;
            next += 1;
        }
        cluster_of[v] = cluster_of[root];
    }
    (cluster_of, next, merges)
}

/// The Stage-2 result.
#[derive(Debug, Clone)]
pub struct Gcn {
    /// The fitted mixture (None when the corpus had no candidate pairs).
    pub model: Option<TwoComponentMixture>,
    /// SCN vertex → GCN cluster id (dense).
    pub cluster_of_vertex: Vec<usize>,
    /// Number of clusters (= vertices of the merged network).
    pub num_clusters: usize,
    /// Accepted merges.
    pub num_merges: usize,
    /// Candidate pairs scored.
    pub pairs_scored: usize,
}

impl Gcn {
    /// Run the full Stage 2 over an SCN, sequentially.
    pub fn build(
        scn: &Scn,
        ctx: &ProfileContext,
        engine: &SimilarityEngine,
        cfg: &GcnConfig,
    ) -> Gcn {
        Self::build_parallel(scn, ctx, engine, cfg, &ParallelConfig::sequential())
    }

    /// Run the full Stage 2 with the candidate γ-vector computation, pair
    /// scoring and per-name clustering fanned across `par.threads`
    /// workers. EM training stays sequential (it is a seeded, iterative
    /// fixpoint), so the result is identical to [`Gcn::build`] at any
    /// thread count.
    pub fn build_parallel(
        scn: &Scn,
        ctx: &ProfileContext,
        engine: &SimilarityEngine,
        cfg: &GcnConfig,
        par: &ParallelConfig,
    ) -> Gcn {
        Self::build_inner(scn, ctx, engine, cfg, par, &mut StageTimes::default())
    }

    /// The one Stage-2 body behind every `build*` entry point and
    /// [`crate::Iuad::fit`], recording its four stages into `times`.
    pub(crate) fn build_inner(
        scn: &Scn,
        ctx: &ProfileContext,
        engine: &SimilarityEngine,
        cfg: &GcnConfig,
        par: &ParallelConfig,
        times: &mut StageTimes,
    ) -> Gcn {
        let groups = candidate_groups(scn);
        let evidence = times.time("group_evidence", || group_evidence(&groups, engine, par));
        let data = times.time("candidate_pair_data", || {
            score_groups(&groups, &evidence, ctx, engine, par)
        });
        drop(evidence);
        let all_features: Vec<usize> = (0..NUM_SIMILARITIES).collect();
        let model = times.time("mixture_fit", || {
            let (rows, anchors) = training_rows(&data, scn, ctx, engine, cfg);
            fit_model(&rows, &anchors, &all_features, &cfg.em)
        });
        let (cluster_of_vertex, num_clusters, num_merges) =
            times.time("score_and_cluster", || match &model {
                Some(m) => {
                    let scores = scores_for_parallel(m, &data.vectors, &all_features, par);
                    match cfg.merge_policy {
                        MergePolicy::Transitive => {
                            clusters_from_scores(scn, &data.pairs, &scores, cfg.delta)
                        }
                        MergePolicy::AverageLinkage => {
                            clusters_by_linkage_parallel(scn, &data.pairs, &scores, cfg.delta, par)
                        }
                    }
                }
                None => {
                    let n = scn.graph.num_vertices();
                    ((0..n).collect(), n, 0)
                }
            });
        Gcn {
            model,
            cluster_of_vertex,
            num_clusters,
            num_merges,
            pairs_scored: data.pairs.len(),
        }
    }

    /// Mention → cluster assignment over the whole corpus.
    pub fn assignment(&self, scn: &Scn) -> FxHashMap<Mention, usize> {
        scn.assignment
            .iter()
            .map(|(&m, &v)| (m, self.cluster_of_vertex[v.index()]))
            .collect()
    }
}

/// What [`merge_network`] did to the pre-merge SCN's vertices.
#[derive(Debug, Clone)]
pub struct MergePlan {
    /// Merged-network vertices formed by coalescing ≥ 2 old vertices,
    /// ascending. Every other merged vertex is one old vertex under a new
    /// index, with its mention set unchanged.
    pub coalesced: Vec<VertexId>,
}

/// Rebuild the merged collaboration network: vertices = GCN clusters, with
/// collaborative relations recovered per paper (Algorithm 1 line 16). The
/// result is a fully-formed [`Scn`] usable by the incremental stage, plus
/// the [`MergePlan`] listing its coalesced vertices.
pub fn merge_network(corpus: &Corpus, scn: &Scn, cluster_of_vertex: &[usize]) -> (Scn, MergePlan) {
    let mut graph: AdjGraph<ScnVertex, EdgeData> = AdjGraph::new();
    let mut vertex_of_cluster: FxHashMap<usize, VertexId> = FxHashMap::default();
    let mut assignment: FxHashMap<Mention, VertexId> = FxHashMap::default();

    let mut ordered: Vec<(Mention, VertexId)> =
        scn.assignment.iter().map(|(&m, &v)| (m, v)).collect();
    ordered.sort_unstable();
    for (m, old_v) in ordered {
        let cluster = cluster_of_vertex[old_v.index()];
        let name = scn.graph.vertex(old_v).name;
        let nv = *vertex_of_cluster.entry(cluster).or_insert_with(|| {
            graph.add_vertex(ScnVertex {
                name,
                mentions: Vec::new(),
            })
        });
        debug_assert_eq!(graph.vertex(nv).name, name, "merged cross-name cluster");
        graph.vertex_mut(nv).mentions.push(m);
        assignment.insert(m, nv);
    }

    for p in &corpus.papers {
        let vs: Vec<(u32, VertexId)> = p
            .authors
            .iter()
            .enumerate()
            .map(|(slot, &n)| (n.0, assignment[&Mention::new(p.id, slot)]))
            .collect();
        for i in 0..vs.len() {
            for j in (i + 1)..vs.len() {
                let (na, va) = vs[i];
                let (nb, vb) = vs[j];
                if va == vb {
                    continue;
                }
                let key = if na < nb { (na, nb) } else { (nb, na) };
                let support = scn.scrs.get(&key).copied().unwrap_or(0);
                graph.upsert_edge(
                    va,
                    vb,
                    || EdgeData {
                        papers: vec![p.id],
                        scr_support: support,
                    },
                    |e| {
                        if e.papers.last() != Some(&p.id) {
                            e.papers.push(p.id);
                        }
                    },
                );
            }
        }
    }

    let mut by_name = FxHashMap::default();
    for (v, payload) in graph.vertices() {
        by_name.entry(payload.name).or_insert_with(Vec::new).push(v);
    }

    let mut preimages = vec![0u32; graph.num_vertices()];
    for c in cluster_of_vertex {
        preimages[vertex_of_cluster[c].index()] += 1;
    }
    let coalesced: Vec<VertexId> = preimages
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c >= 2)
        .map(|(i, _)| VertexId::from(i))
        .collect();

    (
        Scn {
            graph,
            assignment,
            by_name,
            scrs: scn.scrs.clone(),
            eta: scn.eta,
        },
        MergePlan { coalesced },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use iuad_corpus::CorpusConfig;

    fn setup() -> (Corpus, Scn, ProfileContext) {
        let c = Corpus::generate(&CorpusConfig {
            num_authors: 250,
            num_papers: 1000,
            seed: 29,
            ..Default::default()
        });
        let scn = Scn::build(&c, 2);
        let ctx = ProfileContext::build(&c, 16, 3);
        (c, scn, ctx)
    }

    #[test]
    fn gcn_reduces_vertex_count_monotonically_in_delta() {
        let (_, scn, ctx) = setup();
        let engine = SimilarityEngine::build(&scn, &ctx, 0.62, 2);
        let lo = Gcn::build(
            &scn,
            &ctx,
            &engine,
            &GcnConfig {
                delta: -5.0,
                ..Default::default()
            },
        );
        let hi = Gcn::build(
            &scn,
            &ctx,
            &engine,
            &GcnConfig {
                delta: 50.0,
                ..Default::default()
            },
        );
        assert!(lo.num_clusters <= hi.num_clusters);
        assert!(lo.num_merges >= hi.num_merges);
    }

    #[test]
    fn merges_only_same_name_vertices() {
        let (c, scn, ctx) = setup();
        let engine = SimilarityEngine::build(&scn, &ctx, 0.62, 2);
        let gcn = Gcn::build(&scn, &ctx, &engine, &GcnConfig::default());
        let (merged, plan) = merge_network(&c, &scn, &gcn.cluster_of_vertex);
        // Coalesced vertices are exactly the clusters of ≥ 2 old vertices,
        // and together they absorb every merge.
        let mut sizes: FxHashMap<usize, usize> = FxHashMap::default();
        for &c in &gcn.cluster_of_vertex {
            *sizes.entry(c).or_insert(0) += 1;
        }
        let multi: Vec<usize> = sizes.into_values().filter(|&n| n >= 2).collect();
        assert_eq!(plan.coalesced.len(), multi.len());
        assert_eq!(multi.iter().map(|n| n - 1).sum::<usize>(), gcn.num_merges);
        for (_, payload) in merged.graph.vertices() {
            for m in &payload.mentions {
                assert_eq!(c.name_of(*m), payload.name);
            }
        }
    }

    #[test]
    fn assignment_covers_all_mentions() {
        let (c, scn, ctx) = setup();
        let engine = SimilarityEngine::build(&scn, &ctx, 0.62, 2);
        let gcn = Gcn::build(&scn, &ctx, &engine, &GcnConfig::default());
        let assign = gcn.assignment(&scn);
        assert_eq!(assign.len(), c.num_mentions());
        for &cl in assign.values() {
            assert!(cl < gcn.num_clusters);
        }
    }

    #[test]
    fn merged_network_is_consistent() {
        let (c, scn, ctx) = setup();
        let engine = SimilarityEngine::build(&scn, &ctx, 0.62, 2);
        let gcn = Gcn::build(&scn, &ctx, &engine, &GcnConfig::default());
        let (merged, _) = merge_network(&c, &scn, &gcn.cluster_of_vertex);
        assert_eq!(merged.graph.num_vertices(), gcn.num_clusters);
        assert_eq!(merged.assignment.len(), c.num_mentions());
        let total: usize = merged.graph.vertices().map(|(_, p)| p.mentions.len()).sum();
        assert_eq!(total, c.num_mentions());
    }

    #[test]
    fn gcn_improves_recall_over_scn() {
        use iuad_eval::pairwise_confusion;
        let (c, scn, ctx) = setup();
        let engine = SimilarityEngine::build(&scn, &ctx, 0.62, 2);
        let gcn = Gcn::build(&scn, &ctx, &engine, &GcnConfig::default());
        let assign = gcn.assignment(&scn);

        let mut scn_conf = iuad_eval::Confusion::default();
        let mut gcn_conf = iuad_eval::Confusion::default();
        for (name, vs) in &scn.by_name {
            if vs.len() < 2 {
                continue;
            }
            let mentions = c.mentions_of_name(*name);
            let truth: Vec<u32> = mentions.iter().map(|m| c.truth_of(*m).0).collect();
            let scn_pred: Vec<usize> = mentions.iter().map(|m| scn.assignment[m].index()).collect();
            let gcn_pred: Vec<usize> = mentions.iter().map(|m| assign[m]).collect();
            scn_conf.add(pairwise_confusion(&scn_pred, &truth));
            gcn_conf.add(pairwise_confusion(&gcn_pred, &truth));
        }
        let ms = scn_conf.metrics();
        let mg = gcn_conf.metrics();
        assert!(
            mg.recall >= ms.recall,
            "GCN should not lower recall: {} -> {}",
            ms.recall,
            mg.recall
        );
    }

    #[test]
    fn single_feature_model_fits_and_scores() {
        let (_, scn, ctx) = setup();
        let engine = SimilarityEngine::build(&scn, &ctx, 0.62, 2);
        let data = candidate_pair_data(&scn, &ctx, &engine);
        let (rows, _anchors) = training_rows(&data, &scn, &ctx, &engine, &GcnConfig::default());
        for f in 0..NUM_SIMILARITIES {
            let model = fit_model(&rows, &[], &[f], &EmConfig::default()).expect("model fits");
            let scores = scores_for(&model, &data.vectors, &[f]);
            assert_eq!(scores.len(), data.pairs.len());
            assert!(scores.iter().all(|s| s.is_finite()), "feature {f}");
        }
    }

    #[test]
    fn empty_candidate_set_yields_identity() {
        // Corpus with no ambiguous names: every author distinct name.
        let c = Corpus {
            papers: vec![iuad_corpus::Paper {
                id: iuad_corpus::PaperId(0),
                authors: vec![iuad_corpus::NameId(0), iuad_corpus::NameId(1)],
                title: "t".into(),
                venue: iuad_corpus::VenueId(0),
                year: 2000,
            }],
            name_strings: vec!["a".into(), "b".into()],
            venue_strings: vec!["v".into()],
            truth: vec![vec![iuad_corpus::AuthorId(0), iuad_corpus::AuthorId(1)]],
            author_names: vec![iuad_corpus::NameId(0), iuad_corpus::NameId(1)],
            config: None,
        };
        let scn = Scn::build(&c, 2);
        let ctx = ProfileContext::build(&c, 8, 1);
        let engine = SimilarityEngine::build(&scn, &ctx, 0.62, 2);
        let gcn = Gcn::build(&scn, &ctx, &engine, &GcnConfig::default());
        assert!(gcn.model.is_none());
        assert_eq!(gcn.num_clusters, scn.graph.num_vertices());
        assert_eq!(gcn.num_merges, 0);
    }
}
