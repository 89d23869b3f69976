//! IUAD — Incremental Unsupervised Author Disambiguation via bottom-up
//! collaboration network reconstruction (Li et al., ICDE 2021).
//!
//! The pipeline has two stages (Algorithm 1):
//!
//! 1. **SCN construction** ([`Scn`]): mine η-stable collaborative relations
//!    (η-SCRs) from co-author lists with frequent-pair mining, insert them
//!    with the stable-triangle merge rule, and assign every author mention
//!    to a hypothesised-author vertex. Mentions with no stable relation stay
//!    singleton vertices — the bottom-up starting point where all same-name
//!    authors are assumed different.
//! 2. **GCN construction** ([`Gcn`]): for every pair of same-name vertices,
//!    compute a six-dimensional similarity vector ([`similarity`]), fit a
//!    two-component exponential-family mixture with EM, and merge pairs
//!    whose posterior log-odds reach the decision threshold δ.
//!
//! New papers are disambiguated **incrementally** ([`Iuad::disambiguate`]):
//! score the new mention against the existing same-name vertices with the
//! already-fitted model — no retraining.
//!
//! ```
//! use iuad_core::{Iuad, IuadConfig};
//! use iuad_corpus::{Corpus, CorpusConfig};
//!
//! let corpus = Corpus::generate(&CorpusConfig {
//!     num_authors: 150, num_papers: 500, seed: 3, ..Default::default()
//! });
//! let iuad = Iuad::fit(&corpus, &IuadConfig::default());
//! let clusters = iuad.assignments();
//! assert_eq!(clusters.len(), corpus.num_mentions());
//! ```

#![warn(missing_docs)]

pub mod gcn;
pub mod incremental;
pub mod pipeline;
pub mod profile;
pub mod scn;
pub mod similarity;
pub mod stages;

pub use gcn::{merge_network, Gcn, GcnConfig, MergePlan, MergePolicy};
pub use incremental::{absorb_mention, disambiguate_mention, ingest_paper, Decision};
pub use iuad_par::ParallelConfig;
pub use pipeline::{FittedState, Iuad, IuadConfig};
pub use profile::{KeywordSlab, KeywordYears, ProfileContext, VenueCounts, VertexProfile};
pub use scn::{EdgeData, Scn, ScnVertex};
pub use similarity::{CacheScope, SimilarityEngine, SimilarityVector, FAMILIES, NUM_SIMILARITIES};
pub use stages::StageTimes;
