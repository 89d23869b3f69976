//! Per-scenario execution: fit, invariants, differential scoring, and the
//! serialisable outcome that `SCENARIOS.json` aggregates.

use iuad_core::{Iuad, IuadConfig};
use iuad_corpus::scenario::ScenarioSpec;
use iuad_corpus::select_test_names_seeded;
use serde::Serialize;

use crate::differential::{score_scenario_methods, MethodScore};
use crate::fingerprint::canonical_labels;
use crate::invariants::{
    duplicate_injection_cocluster, incremental_consistency, oracle_merge_monotone_recall,
    parallel_config_invariance, partition_structure, pipeline_permutation_robustness,
    publish_matches_rebuild, stage1_permutation_invariance, wal_compaction_matches_live,
    wal_replay_matches_live, InvariantReport,
};

/// Streaming statistics from the incremental-consistency invariant.
#[derive(Debug, Clone, Serialize)]
pub struct IncrementalOutcome {
    /// Held-out mentions streamed through `disambiguate` + `absorb`.
    pub streamed_mentions: usize,
    /// Decisions that matched an existing vertex.
    pub matched: usize,
    /// Matched decisions whose vertex majority-truth agrees with the
    /// mention's ground truth.
    pub matched_correct: usize,
    /// Decisions that founded a new author.
    pub new_authors: usize,
    /// `matched_correct / matched` (0 when nothing matched).
    pub accuracy: f64,
}

/// Descriptive statistics of a scenario corpus.
#[derive(Debug, Clone, Serialize)]
pub struct CorpusShape {
    /// Papers generated (after name-noise transforms).
    pub papers: usize,
    /// Distinct author names.
    pub names: usize,
    /// Ground-truth authors.
    pub authors: usize,
    /// Author mentions.
    pub mentions: usize,
    /// Names shared by more than one author.
    pub ambiguous_names: usize,
    /// Maximum authors sharing one name.
    pub max_authors_per_name: usize,
}

/// Everything one scenario produced: provenance seeds, corpus shape, the
/// canonical fingerprint, invariant reports, and the differential panel.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioOutcome {
    /// Scenario id.
    pub name: String,
    /// What the scenario stresses.
    pub summary: String,
    /// The single seed everything derives from (see
    /// [`ScenarioSpec::corpus_seed`] for the stream layout).
    pub master_seed: u64,
    /// Derived corpus-generation seed (stream 0).
    pub corpus_seed: u64,
    /// Derived embedding-training seed (stream 1).
    pub embedding_seed: u64,
    /// Derived evaluation-split seed (stream 2).
    pub eval_seed: u64,
    /// Corpus shape after transforms.
    pub corpus: CorpusShape,
    /// Ambiguous names evaluated.
    pub test_names: usize,
    /// Canonical-partition fingerprint of the main fit (hex).
    pub fingerprint: String,
    /// Metamorphic invariant reports.
    pub invariants: Vec<InvariantReport>,
    /// Differential panel: oracles, IUAD, baselines.
    pub methods: Vec<MethodScore>,
    /// Streaming statistics.
    pub incremental: IncrementalOutcome,
}

impl ScenarioOutcome {
    /// Whether no invariant *failed*. Skipped invariants (not applicable to
    /// this scenario's regime) don't count against the scenario, but they
    /// are reported distinctly — see
    /// [`crate::invariants::InvariantStatus`].
    pub fn all_invariants_passed(&self) -> bool {
        self.invariants.iter().all(|i| !i.failed())
    }

    /// Names of invariants that were skipped on this scenario.
    pub fn skipped_invariants(&self) -> Vec<&str> {
        self.invariants
            .iter()
            .filter(|i| i.skipped())
            .map(|i| i.name.as_str())
            .collect()
    }

    /// Look up one method's scores by label.
    pub fn method(&self, label: &str) -> Option<&MethodScore> {
        self.methods.iter().find(|m| m.method == label)
    }
}

/// The pipeline configuration a scenario runs under: defaults except for a
/// scenario-derived embedding seed (so embedding initialisation is part of
/// the reproducible seed story).
pub fn scenario_iuad_config(spec: &ScenarioSpec) -> IuadConfig {
    IuadConfig {
        embedding_dim: 16,
        embedding_seed: spec.embedding_seed(),
        ..IuadConfig::default()
    }
}

/// Run one scenario end to end: build the corpus, fit, check every
/// metamorphic invariant, and score the differential panel.
pub fn run_scenario(spec: &ScenarioSpec) -> ScenarioOutcome {
    let corpus = spec.build_corpus();
    let config = scenario_iuad_config(spec);
    let iuad = Iuad::fit(&corpus, &config);
    let test = select_test_names_seeded(&corpus, 2, 3, 24, spec.eval_seed());

    // Tolerate a missing assignment here (sentinel label) so a coverage
    // regression surfaces as the named `partition-structure` invariant
    // failure below, not as an unlocalised map-index panic.
    let labels = canonical_labels(&corpus, |m| {
        iuad.network
            .assignment
            .get(&m)
            .map_or(usize::MAX, |v| v.index())
    });
    let fingerprint = iuad_serve::fingerprint_hex(iuad_serve::partition_fingerprint(&iuad.network));

    let methods = score_scenario_methods(&corpus, &test, &iuad, spec.baseline_seed());
    let iuad_b3_f = methods
        .iter()
        .find(|m| m.method == "iuad")
        .map_or(0.0, |m| m.b3_f);

    let mut invariants = vec![
        partition_structure(&corpus, &iuad),
        parallel_config_invariance(&corpus, &config, &labels),
        stage1_permutation_invariance(&corpus, &iuad, spec),
        pipeline_permutation_robustness(&corpus, &config, spec, &test, iuad_b3_f),
        duplicate_injection_cocluster(&corpus, &config, spec),
        oracle_merge_monotone_recall(&corpus, &test, &iuad),
        publish_matches_rebuild(&corpus, &config, spec),
        wal_replay_matches_live(&corpus, &config, spec),
        wal_compaction_matches_live(&corpus, &config, spec),
    ];
    let (incr_report, incremental) = incremental_consistency(&corpus, &config, spec);
    invariants.push(incr_report);

    let by_name = corpus.authors_by_name();
    ScenarioOutcome {
        name: spec.name.to_string(),
        summary: spec.summary.to_string(),
        master_seed: spec.master_seed,
        corpus_seed: spec.corpus_seed(),
        embedding_seed: spec.embedding_seed(),
        eval_seed: spec.eval_seed(),
        corpus: CorpusShape {
            papers: corpus.papers.len(),
            names: corpus.num_names(),
            authors: corpus.num_authors(),
            mentions: corpus.num_mentions(),
            ambiguous_names: by_name.iter().filter(|v| v.len() > 1).count(),
            max_authors_per_name: by_name.iter().map(Vec::len).max().unwrap_or(0),
        },
        test_names: test.names.len(),
        fingerprint,
        invariants,
        methods,
        incremental,
    }
}
