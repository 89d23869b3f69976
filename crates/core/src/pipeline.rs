//! The end-to-end IUAD pipeline (Algorithm 1): SCN → GCN → merged network,
//! plus the incremental interface.

use std::time::Instant;

use rustc_hash::FxHashMap;

use iuad_corpus::{Corpus, Mention, NameId, Paper};
use iuad_graph::VertexId;
use iuad_par::ParallelConfig;

use crate::gcn::{merge_network, Gcn, GcnConfig};
use crate::incremental::{disambiguate_mention, ingest_paper, Decision};
use crate::profile::ProfileContext;
use crate::scn::Scn;
use crate::similarity::{CacheScope, SimilarityEngine};
use crate::stages::StageTimes;

/// Full pipeline configuration.
#[derive(Debug, Clone)]
pub struct IuadConfig {
    /// η-SCR support threshold (Stage 1).
    pub eta: u32,
    /// Stage-2 settings (δ, sampling, EM).
    pub gcn: GcnConfig,
    /// Keyword embedding dimensionality.
    pub embedding_dim: usize,
    /// Seed for embedding training.
    pub embedding_seed: u64,
    /// γ₄ decay factor α (paper: 0.62).
    pub alpha: f64,
    /// WL iterations / ego radius h.
    pub wl_iters: usize,
    /// Thread fan-out for the similarity and scoring hot paths. The default
    /// is single-threaded, keeping seeded runs bit-for-bit reproducible
    /// without opting in; any thread count produces the identical network
    /// (see `tests/determinism.rs`).
    pub parallel: ParallelConfig,
}

impl Default for IuadConfig {
    fn default() -> Self {
        Self {
            eta: 2,
            gcn: GcnConfig::default(),
            embedding_dim: 32,
            embedding_seed: 101,
            alpha: 0.62,
            wl_iters: 2,
            parallel: ParallelConfig::sequential(),
        }
    }
}

/// A fitted IUAD pipeline: both stages plus everything the incremental
/// interface needs.
#[derive(Debug)]
pub struct Iuad {
    /// The configuration used.
    pub config: IuadConfig,
    /// Corpus-level context (embeddings, frequencies).
    pub ctx: ProfileContext,
    /// Stage-1 network (pre-merge); kept for the two-stage analysis (RQ2).
    pub scn: Scn,
    /// Stage-2 result (model + merge decisions).
    pub gcn: Gcn,
    /// The merged global collaboration network.
    pub network: Scn,
    /// Similarity caches over `network` (for incremental queries).
    engine: SimilarityEngine,
    /// Wall time of each stage of the fit that produced this pipeline.
    pub stage_times: StageTimes,
}

impl Iuad {
    /// Run both stages on a corpus. With `config.parallel.threads > 1` the
    /// O(n²) kernels — per-vertex feature caching, pairwise γ-similarity,
    /// pair scoring, and per-name clustering — fan out across worker
    /// threads; the fitted result is identical at any thread count. Each
    /// stage's wall time lands in [`Iuad::stage_times`].
    pub fn fit(corpus: &Corpus, config: &IuadConfig) -> Iuad {
        let start = Instant::now();
        let par = &config.parallel;
        let mut times = StageTimes::default();
        let (ctx, sgns) = times.time("profile_context", || {
            ProfileContext::build_with_stats(
                corpus,
                config.embedding_dim,
                config.embedding_seed,
                par,
            )
        });
        // Inner timings of the profile_context window, not extra stages.
        times.record("sgns_vocab_build", sgns.vocab_seconds);
        times.record("sgns_sampler_build", sgns.sampler_seconds);
        times.record("sgns_epoch_loop", sgns.epochs_seconds);
        let scn = times.time("scn_build", || Scn::build_parallel(corpus, config.eta, par));
        let stage2_engine = times.time("similarity_engine_build", || {
            SimilarityEngine::build_parallel(
                &scn,
                &ctx,
                config.alpha,
                config.wl_iters,
                CacheScope::AmbiguousOnly,
                par,
            )
        });
        let gcn = Gcn::build_inner(
            &scn,
            &ctx,
            &stage2_engine,
            &config.gcn,
            &[],
            par,
            &mut times,
        );
        // The Stage-2 engine has served its last query: drop it before the
        // merged engine is built, so two engines are never live at once.
        drop(stage2_engine);
        let (network, _) = times.time("merge_network", || {
            merge_network(corpus, &scn, &gcn.cluster_of_vertex)
        });
        let engine = times.time("merged_engine_build", || {
            SimilarityEngine::build_parallel(
                &network,
                &ctx,
                config.alpha,
                config.wl_iters,
                CacheScope::AmbiguousOnly,
                par,
            )
        });
        times.set_total(start);
        Iuad {
            config: config.clone(),
            ctx,
            scn,
            gcn,
            network,
            engine,
            stage_times: times,
        }
    }

    /// Final mention → author-cluster assignment (cluster id = vertex index
    /// in [`Iuad::network`]).
    pub fn assignments(&self) -> FxHashMap<Mention, usize> {
        self.network
            .assignment
            .iter()
            .map(|(&m, &v)| (m, v.index()))
            .collect()
    }

    /// Stage-1-only assignment (for the RQ2 two-stage comparison).
    pub fn stage1_assignments(&self) -> FxHashMap<Mention, usize> {
        self.scn
            .assignment
            .iter()
            .map(|(&m, &v)| (m, v.index()))
            .collect()
    }

    /// Predicted labels for the mentions of `name` (parallel to
    /// `corpus.mentions_of_name(name)`), after both stages.
    pub fn labels_of_name(&self, corpus: &Corpus, name: NameId) -> Vec<usize> {
        corpus
            .mentions_of_name(name)
            .iter()
            .map(|m| self.network.assignment[m].index())
            .collect()
    }

    /// Incrementally disambiguate the author at `slot` of a new paper
    /// against the fitted network (§V-E). Returns
    /// [`Decision::NewAuthor`] when no fitted model exists (corpus had no
    /// ambiguity) or no candidate reaches δ.
    pub fn disambiguate(&self, paper: &Paper, slot: usize) -> Decision {
        let Some(model) = &self.gcn.model else {
            return Decision::NewAuthor { best_score: None };
        };
        disambiguate_mention(
            &self.network,
            &self.ctx,
            &self.engine,
            model,
            self.config.gcn.delta,
            paper,
            slot,
        )
    }

    /// Incrementally disambiguate every slot of a new paper against the
    /// fitted network — the paper-level face of [`Iuad::disambiguate`],
    /// delegating to [`crate::incremental::disambiguate_paper`] so the two
    /// entry points stay behaviourally identical (asserted per scenario by
    /// the conformance harness).
    pub fn disambiguate_paper(&self, paper: &Paper) -> Vec<(NameId, Decision)> {
        let Some(model) = &self.gcn.model else {
            return paper
                .authors
                .iter()
                .map(|&n| (n, Decision::NewAuthor { best_score: None }))
                .collect();
        };
        crate::incremental::disambiguate_paper(
            &self.network,
            &self.ctx,
            &self.engine,
            model,
            self.config.gcn.delta,
            paper,
        )
    }

    /// Stream a new paper into the fitted network without refitting
    /// (§V-E): every slot is decided and absorbed in order, so later
    /// slots — and later papers — see the mentions absorbed before them.
    /// Returns each slot's name, decision and receiving vertex (see
    /// [`crate::incremental::ingest_paper`]).
    pub fn ingest(&mut self, paper: &Paper) -> Vec<(NameId, Decision, VertexId)> {
        ingest_paper(
            &mut self.network,
            &self.ctx,
            &mut self.engine,
            self.gcn.model.as_ref(),
            self.config.gcn.delta,
            paper,
        )
    }

    /// Read-only access to the similarity caches over [`Iuad::network`],
    /// for serving layers that snapshot the fitted state.
    pub fn engine(&self) -> &SimilarityEngine {
        &self.engine
    }

    /// Decompose the fitted pipeline into owned parts. The serving tier
    /// owns the engine mutably, absorbing into it on ingest and
    /// refreshing it in place ([`SimilarityEngine::refresh`]) at each
    /// epoch publish — impossible through the private field.
    pub fn into_state(self) -> FittedState {
        FittedState {
            config: self.config,
            ctx: self.ctx,
            scn: self.scn,
            gcn: self.gcn,
            network: self.network,
            engine: self.engine,
        }
    }
}

/// A fitted pipeline decomposed into owned parts (see [`Iuad::into_state`]).
#[derive(Debug)]
pub struct FittedState {
    /// The configuration used.
    pub config: IuadConfig,
    /// Corpus-level context (embeddings, frequencies).
    pub ctx: ProfileContext,
    /// Stage-1 network (pre-merge).
    pub scn: Scn,
    /// Stage-2 result (model + merge decisions).
    pub gcn: Gcn,
    /// The merged global collaboration network.
    pub network: Scn,
    /// Similarity caches over `network`.
    pub engine: SimilarityEngine,
}

#[cfg(test)]
mod tests {
    use super::*;
    use iuad_corpus::CorpusConfig;
    use iuad_eval::{pairwise_confusion, Confusion};

    fn corpus() -> Corpus {
        Corpus::generate(&CorpusConfig {
            num_authors: 250,
            num_papers: 1000,
            seed: 41,
            ..Default::default()
        })
    }

    fn eval_confusion(
        corpus: &Corpus,
        labels: &FxHashMap<Mention, usize>,
        min_vertices: usize,
        iuad: &Iuad,
    ) -> Confusion {
        let mut conf = Confusion::default();
        for (name, vs) in &iuad.scn.by_name {
            if vs.len() < min_vertices {
                continue;
            }
            let mentions = corpus.mentions_of_name(*name);
            let truth: Vec<u32> = mentions.iter().map(|m| corpus.truth_of(*m).0).collect();
            let pred: Vec<usize> = mentions.iter().map(|m| labels[m]).collect();
            conf.add(pairwise_confusion(&pred, &truth));
        }
        conf
    }

    #[test]
    fn full_pipeline_runs_and_assigns_everything() {
        let c = corpus();
        let iuad = Iuad::fit(&c, &IuadConfig::default());
        assert_eq!(iuad.assignments().len(), c.num_mentions());
        assert_eq!(iuad.stage1_assignments().len(), c.num_mentions());
    }

    #[test]
    fn stage2_improves_f1_via_recall() {
        let c = corpus();
        let iuad = Iuad::fit(&c, &IuadConfig::default());
        let m1 = eval_confusion(&c, &iuad.stage1_assignments(), 2, &iuad).metrics();
        let m2 = eval_confusion(&c, &iuad.assignments(), 2, &iuad).metrics();
        assert!(
            m2.recall > m1.recall,
            "recall should improve: {:.3} -> {:.3}",
            m1.recall,
            m2.recall
        );
        assert!(
            m2.f1 >= m1.f1,
            "F1 should not degrade: {:.3} -> {:.3}",
            m1.f1,
            m2.f1
        );
    }

    #[test]
    fn stage1_has_high_precision() {
        let c = corpus();
        let iuad = Iuad::fit(&c, &IuadConfig::default());
        let m1 = eval_confusion(&c, &iuad.stage1_assignments(), 2, &iuad).metrics();
        assert!(m1.precision > 0.9, "SCN precision: {:.3}", m1.precision);
    }

    #[test]
    fn pipeline_is_deterministic() {
        let c = corpus();
        let a = Iuad::fit(&c, &IuadConfig::default());
        let b = Iuad::fit(&c, &IuadConfig::default());
        assert_eq!(a.assignments(), b.assignments());
    }

    #[test]
    fn fit_records_the_bench_stage_ids_in_order() {
        let iuad = Iuad::fit(&corpus(), &IuadConfig::default());
        let times = &iuad.stage_times;
        let ids: Vec<&str> = times.stages().iter().map(|&(id, _)| id).collect();
        assert_eq!(
            ids,
            [
                "profile_context",
                "sgns_vocab_build",
                "sgns_sampler_build",
                "sgns_epoch_loop",
                "scn_build",
                "similarity_engine_build",
                "candidate_pair_data",
                "mixture_fit",
                "score_and_cluster",
                "merge_network",
                "merged_engine_build",
            ]
        );
        assert!(times.stages().iter().all(|&(_, s)| s >= 0.0));
        assert!(times.total_seconds() >= times.seconds("merged_engine_build").unwrap());
    }

    #[test]
    fn labels_of_name_parallel_to_mentions() {
        let c = corpus();
        let iuad = Iuad::fit(&c, &IuadConfig::default());
        let name = c.papers[0].authors[0];
        let labels = iuad.labels_of_name(&c, name);
        assert_eq!(labels.len(), c.mentions_of_name(name).len());
    }

    #[test]
    fn absorb_updates_network() {
        let full = Corpus::generate(&CorpusConfig {
            num_authors: 200,
            num_papers: 800,
            seed: 43,
            ..Default::default()
        });
        let (base, tail) = full.split_tail(10);
        let mut iuad = Iuad::fit(&base, &IuadConfig::default());
        let before = iuad.network.assignment.len();
        let (paper, _) = &tail[0];
        let resolved = iuad.ingest(paper);
        assert_eq!(resolved.len(), paper.authors.len());
        assert_eq!(iuad.network.assignment.len(), before + paper.authors.len());
        for (slot, &(name, _, v)) in resolved.iter().enumerate() {
            let m = Mention::new(paper.id, slot);
            assert_eq!(iuad.network.assignment.get(&m), Some(&v));
            assert_eq!(iuad.network.graph.vertex(v).name, name);
        }
    }
}
