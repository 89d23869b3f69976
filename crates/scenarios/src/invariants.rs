//! Metamorphic invariants: properties the pipeline must satisfy on *any*
//! corpus, checked per scenario and reported (not panicked) so the driver
//! can attribute failures to a named scenario and a named invariant.

use iuad_core::{CacheScope, Decision, Iuad, IuadConfig, ParallelConfig, SimilarityEngine};
use iuad_corpus::scenario::{
    derive_seed, duplicate_papers, permute_papers, ArrivalOrder, ScenarioSpec,
};
use iuad_corpus::{Corpus, Mention, TestSet};
use iuad_eval::b_cubed;
use rustc_hash::FxHashMap;
use serde::Serialize;

use crate::differential::score_labels;
use crate::fingerprint::canonical_labels;
use crate::runner::IncrementalOutcome;

/// How one invariant resolved on one scenario. A skip is *not* a pass:
/// the property was never exercised (the scenario's regime doesn't apply,
/// or the corpus lacks the required structure), and SCENARIOS.json records
/// it distinctly so coverage gaps are visible in the committed scorecard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantStatus {
    /// The property was checked and held.
    Passed,
    /// The property was not applicable to this scenario and was not checked.
    Skipped,
    /// The property was checked and violated.
    Failed,
}

impl InvariantStatus {
    /// The JSON representation (`"passed"` / `"skipped"` / `"failed"`).
    pub fn as_str(self) -> &'static str {
        match self {
            InvariantStatus::Passed => "passed",
            InvariantStatus::Skipped => "skipped",
            InvariantStatus::Failed => "failed",
        }
    }
}

// The vendored serde_derive handles structs only, so the enum maps to its
// string form by hand.
impl Serialize for InvariantStatus {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.as_str().to_string())
    }
}

/// Outcome of one invariant on one scenario.
#[derive(Debug, Clone, Serialize)]
pub struct InvariantReport {
    /// Invariant id (stable across PRs).
    pub name: String,
    /// Whether the property held, failed, or was never exercised.
    pub status: InvariantStatus,
    /// Human-readable evidence: counts on success, the reason on a skip,
    /// the violation on failure.
    pub detail: String,
}

impl InvariantReport {
    fn ok(name: &str, detail: String) -> Self {
        Self {
            name: name.to_string(),
            status: InvariantStatus::Passed,
            detail,
        }
    }

    fn skip(name: &str, detail: String) -> Self {
        Self {
            name: name.to_string(),
            status: InvariantStatus::Skipped,
            detail,
        }
    }

    fn fail(name: &str, detail: String) -> Self {
        Self {
            name: name.to_string(),
            status: InvariantStatus::Failed,
            detail,
        }
    }

    /// The property was checked and violated.
    pub fn failed(&self) -> bool {
        self.status == InvariantStatus::Failed
    }

    /// The property was not applicable and was never exercised.
    pub fn skipped(&self) -> bool {
        self.status == InvariantStatus::Skipped
    }
}

/// Every mention is assigned exactly once and every vertex is name-pure.
pub fn partition_structure(corpus: &Corpus, iuad: &Iuad) -> InvariantReport {
    const NAME: &str = "partition-structure";
    if iuad.network.assignment.len() != corpus.num_mentions() {
        return InvariantReport::fail(
            NAME,
            format!(
                "assigned {} of {} mentions",
                iuad.network.assignment.len(),
                corpus.num_mentions()
            ),
        );
    }
    let total: usize = iuad
        .network
        .graph
        .vertices()
        .map(|(_, v)| v.mentions.len())
        .sum();
    if total != corpus.num_mentions() {
        return InvariantReport::fail(
            NAME,
            format!(
                "vertex mention lists cover {total} of {} mentions",
                corpus.num_mentions()
            ),
        );
    }
    for (_, payload) in iuad.network.graph.vertices() {
        for m in &payload.mentions {
            if corpus.name_of(*m) != payload.name {
                return InvariantReport::fail(
                    NAME,
                    format!("vertex of name {:?} holds mention {m:?}", payload.name),
                );
            }
        }
    }
    InvariantReport::ok(
        NAME,
        format!(
            "{} mentions across {} vertices, all name-pure",
            total,
            iuad.network.graph.num_vertices()
        ),
    )
}

/// Refitting at an odd thread/chunk configuration reproduces the partition
/// bit for bit (subsumes plain refit determinism).
pub fn parallel_config_invariance(
    corpus: &Corpus,
    config: &IuadConfig,
    main_labels: &[usize],
) -> InvariantReport {
    const NAME: &str = "parallel-config-invariance";
    let alt = Iuad::fit(
        corpus,
        &IuadConfig {
            parallel: ParallelConfig {
                threads: 3,
                chunk_size: 7,
            },
            ..config.clone()
        },
    );
    let alt_labels = canonical_labels(corpus, |m| {
        alt.network
            .assignment
            .get(&m)
            .map_or(usize::MAX, |v| v.index())
    });
    if alt_labels == main_labels {
        InvariantReport::ok(
            NAME,
            "threads=3/chunk=7 refit reproduced the partition exactly".to_string(),
        )
    } else {
        let first = main_labels
            .iter()
            .zip(&alt_labels)
            .position(|(a, b)| a != b);
        InvariantReport::fail(
            NAME,
            format!("partitions diverge at canonical mention index {first:?}"),
        )
    }
}

/// Stage 1 is *exactly* invariant under paper-order permutation: SCR
/// supports are order-free counts and every tie-break is content-keyed, so
/// the permuted corpus must yield the identical mention partition.
pub fn stage1_permutation_invariance(
    corpus: &Corpus,
    iuad: &Iuad,
    spec: &ScenarioSpec,
) -> InvariantReport {
    const NAME: &str = "stage1-permutation-invariance";
    let (permuted, perm) = permute_papers(corpus, derive_seed(spec.master_seed, 3));
    let scn_perm = iuad_core::Scn::build(&permuted, iuad.config.eta);
    // inv[old_paper] = position of that paper in the permuted corpus.
    let mut inv = vec![0usize; perm.len()];
    for (new, &old) in perm.iter().enumerate() {
        inv[old] = new;
    }
    let original = canonical_labels(corpus, |m| {
        iuad.scn
            .assignment
            .get(&m)
            .map_or(usize::MAX, |v| v.index())
    });
    let mapped = canonical_labels(corpus, |m| {
        let pm = Mention::new(
            iuad_corpus::PaperId::from(inv[m.paper.index()]),
            m.slot as usize,
        );
        scn_perm
            .assignment
            .get(&pm)
            .map_or(usize::MAX, |v| v.index())
    });
    if original == mapped {
        InvariantReport::ok(
            NAME,
            format!(
                "stage-1 partition identical across a {}-paper permutation",
                perm.len()
            ),
        )
    } else {
        let first = original.iter().zip(&mapped).position(|(a, b)| a != b);
        InvariantReport::fail(
            NAME,
            format!("stage-1 partitions diverge at canonical mention index {first:?}"),
        )
    }
}

/// The full pipeline is order-*robust*: B³-F on the permuted corpus stays
/// within the scenario's tolerance of the original. (Exact invariance is
/// impossible — SGNS embedding training consumes papers in order — so the
/// bound is the contract; Stage 1 carries the exact half of the property.)
pub fn pipeline_permutation_robustness(
    corpus: &Corpus,
    config: &IuadConfig,
    spec: &ScenarioSpec,
    test: &TestSet,
    original_b3_f: f64,
) -> InvariantReport {
    const NAME: &str = "pipeline-permutation-robustness";
    let (permuted, _) = permute_papers(corpus, derive_seed(spec.master_seed, 3));
    let refit = Iuad::fit(&permuted, config);
    // Name ids survive permutation, so the same test names apply; metrics
    // are partition-level, so no mention mapping is needed.
    let score = score_labels(&permuted, test, "permuted", |name| {
        refit.labels_of_name(&permuted, name)
    });
    let delta = (score.b3_f - original_b3_f).abs();
    let detail = format!(
        "B³-F {:.4} original vs {:.4} permuted (|Δ| = {:.4}, tolerance {:.2})",
        original_b3_f, score.b3_f, delta, spec.permutation_b3_tolerance
    );
    if delta <= spec.permutation_b3_tolerance {
        InvariantReport::ok(NAME, detail)
    } else {
        InvariantReport::fail(NAME, detail)
    }
}

/// Injecting exact duplicates of multi-author papers must co-cluster every
/// (original, duplicate) mention pair: a duplicated paper raises each of
/// its co-author name pairs to η-SCR support, so Stage 1 groups the copies
/// and Stage 2 only ever merges further.
pub fn duplicate_injection_cocluster(
    corpus: &Corpus,
    config: &IuadConfig,
    spec: &ScenarioSpec,
) -> InvariantReport {
    const NAME: &str = "duplicate-injection-cocluster";
    let (doubled, pairs) = duplicate_papers(corpus, 20, derive_seed(spec.master_seed, 7));
    if pairs.is_empty() {
        return InvariantReport::skip(NAME, "no multi-author papers to duplicate".to_string());
    }
    let refit = Iuad::fit(&doubled, config);
    let mut checked = 0usize;
    for &(orig, dup) in &pairs {
        for slot in 0..doubled.papers[orig].authors.len() {
            let mo = Mention::new(iuad_corpus::PaperId::from(orig), slot);
            let md = Mention::new(iuad_corpus::PaperId::from(dup), slot);
            let vo = refit.network.assignment[&mo];
            let vd = refit.network.assignment[&md];
            if vo != vd {
                return InvariantReport::fail(
                    NAME,
                    format!(
                        "paper {orig} slot {slot}: original in vertex {vo:?}, duplicate in {vd:?}"
                    ),
                );
            }
            checked += 1;
        }
    }
    InvariantReport::ok(
        NAME,
        format!(
            "{checked} duplicated mention pairs across {} papers all co-clustered",
            pairs.len()
        ),
    )
}

/// The serving tier's epoch publish leaves an engine bit-identical to a
/// from-scratch build: fit the scenario's streaming base, publish once
/// (the daemon's startup epoch, over the fitted engine as it is), then
/// stream the held-out tail through a [`iuad_serve::ServeState`] at the
/// daemon's default cadence (a publish every 16 papers, plus one after
/// the last paper). After the first and the last publish, every cached
/// slab (profiles, WL features, triangles, centroid norms) must equal [`SimilarityEngine::build_parallel`] over the live network,
/// by bit pattern.
pub fn publish_matches_rebuild(
    corpus: &Corpus,
    config: &IuadConfig,
    spec: &ScenarioSpec,
) -> InvariantReport {
    const NAME: &str = "publish-matches-rebuild";
    let (base, tail) = spec.split_for_streaming(corpus);
    let mut state = iuad_serve::ServeState::new(Iuad::fit(&base, config), None);
    let check = |state: &iuad_serve::ServeState| {
        let rebuilt = SimilarityEngine::build_parallel(
            state.network(),
            state.ctx(),
            config.alpha,
            config.wl_iters,
            CacheScope::All,
            &config.parallel,
        );
        state.engine().diff_from(&rebuilt)
    };
    state.publish();
    if let Some(diff) = check(&state) {
        return InvariantReport::fail(NAME, format!("first publish: {diff}"));
    }
    for (batch, (paper, _)) in tail.iter().enumerate() {
        state.ingest(paper.clone());
        if (batch + 1) % 16 == 0 {
            state.publish();
        }
    }
    state.publish();
    if let Some(diff) = check(&state) {
        return InvariantReport::fail(
            NAME,
            format!("last publish (epoch {}): {diff}", state.epoch()),
        );
    }
    InvariantReport::ok(
        NAME,
        format!(
            "{} papers streamed through {} epochs; first and last published engines \
             bit-identical to rebuild over {} vertices",
            tail.len(),
            state.epoch(),
            state.network().graph.num_vertices()
        ),
    )
}

/// B³ recall is monotone under oracle merges: repeatedly merging two
/// predicted clusters whose majority-truth author agrees must never lower
/// recall.
pub fn oracle_merge_monotone_recall(
    corpus: &Corpus,
    test: &TestSet,
    iuad: &Iuad,
) -> InvariantReport {
    const NAME: &str = "oracle-merge-monotone-recall";
    let mut merges = 0usize;
    for row in &test.names {
        let mentions = corpus.mentions_of_name(row.name);
        let truth: Vec<u32> = mentions.iter().map(|m| corpus.truth_of(*m).0).collect();
        let mut pred = iuad.labels_of_name(corpus, row.name);
        let (_, mut recall, _) = b_cubed(&pred, &truth);
        loop {
            // Majority-truth author of each predicted cluster.
            let mut majority: FxHashMap<usize, FxHashMap<u32, usize>> = FxHashMap::default();
            for (l, t) in pred.iter().zip(&truth) {
                *majority.entry(*l).or_default().entry(*t).or_insert(0) += 1;
            }
            let major_of: FxHashMap<usize, u32> = majority
                .iter()
                .map(|(&l, counts)| {
                    let m = counts
                        .iter()
                        .max_by_key(|&(a, n)| (*n, std::cmp::Reverse(*a)))
                        .map(|(&a, _)| a)
                        .unwrap();
                    (l, m)
                })
                .collect();
            // First pair of clusters sharing a majority author, smallest
            // label first for determinism.
            let mut by_author: FxHashMap<u32, Vec<usize>> = FxHashMap::default();
            for (&l, &a) in &major_of {
                by_author.entry(a).or_default().push(l);
            }
            let mut merge_pair: Option<(usize, usize)> = None;
            let mut authors: Vec<u32> = by_author.keys().copied().collect();
            authors.sort_unstable();
            for a in authors {
                let mut ls = by_author.remove(&a).unwrap();
                if ls.len() >= 2 {
                    ls.sort_unstable();
                    merge_pair = Some((ls[0], ls[1]));
                    break;
                }
            }
            let Some((keep, gone)) = merge_pair else {
                break;
            };
            for l in &mut pred {
                if *l == gone {
                    *l = keep;
                }
            }
            merges += 1;
            let (_, r2, _) = b_cubed(&pred, &truth);
            if r2 < recall - 1e-12 {
                return InvariantReport::fail(
                    NAME,
                    format!(
                        "recall dropped {recall:.6} -> {r2:.6} merging clusters \
                         {keep}/{gone} of name {:?}",
                        row.name
                    ),
                );
            }
            recall = r2;
        }
    }
    InvariantReport::ok(
        NAME,
        format!(
            "recall non-decreasing across {merges} oracle merges on {} names",
            test.names.len()
        ),
    )
}

/// Warm restart from the write-ahead log reproduces the live serving state
/// bit for bit: fit the base corpus, stream the scenario's held-out tail
/// through a WAL-backed [`iuad_serve::ServeState`] at the daemon's default
/// publish cadence, then replay the log against a fresh fit and compare —
/// fingerprint-equal partition and `diff_from`-equal engine. Runs on the
/// shuffled-arrival regimes (the serving tier's adversarial orderings);
/// corpus-order scenarios exercise the identical code path and are skipped
/// to keep the matrix's fit budget bounded.
pub fn wal_replay_matches_live(
    corpus: &Corpus,
    config: &IuadConfig,
    spec: &ScenarioSpec,
) -> InvariantReport {
    const NAME: &str = "wal-replay-matches-live";
    if spec.arrival != ArrivalOrder::Shuffled {
        return InvariantReport::skip(
            NAME,
            "corpus-order stream (checked on shuffled-arrival regimes)".to_string(),
        );
    }
    let (base, tail) = spec.split_for_streaming(corpus);
    if tail.is_empty() {
        return InvariantReport::skip(NAME, "no held-out stream to serve".to_string());
    }
    let dir = std::env::temp_dir().join("iuad-scenarios-wal");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return InvariantReport::fail(NAME, format!("cannot create WAL dir: {e}"));
    }
    let path = dir.join(format!("{}.wal", spec.name));
    let wal = match iuad_serve::Wal::create(&path) {
        Ok(wal) => wal,
        Err(e) => return InvariantReport::fail(NAME, format!("cannot create WAL: {e}")),
    };
    // Mirror the daemon: publish epoch 1 up front, then every 16 papers.
    let live = {
        let mut state = iuad_serve::ServeState::new(Iuad::fit(&base, config), Some(wal));
        state.publish();
        for (batch, (paper, _)) in tail.iter().enumerate() {
            state.ingest(paper.clone());
            if (batch + 1) % 16 == 0 {
                state.publish();
            }
        }
        state
    };
    let recovery = iuad_serve::ServeState::recover(Iuad::fit(&base, config), &path);
    std::fs::remove_file(&path).ok();
    let replayed = match recovery {
        Ok(recovery) if recovery.checkpoint_seq.is_none() => recovery.state,
        Ok(recovery) => {
            return InvariantReport::fail(
                NAME,
                format!("recovery used checkpoint {:?}", recovery.checkpoint_seq),
            )
        }
        Err(e) => return InvariantReport::fail(NAME, format!("cannot recover from the WAL: {e}")),
    };
    let (live_fp, replay_fp) = (live.fingerprint(), replayed.fingerprint());
    if live_fp != replay_fp {
        return InvariantReport::fail(
            NAME,
            format!(
                "partition fingerprints diverge: live {} vs replayed {}",
                iuad_serve::fingerprint_hex(live_fp),
                iuad_serve::fingerprint_hex(replay_fp)
            ),
        );
    }
    if let Some(diff) = replayed.engine().diff_from(live.engine()) {
        return InvariantReport::fail(NAME, format!("engines diverge after replay: {diff}"));
    }
    InvariantReport::ok(
        NAME,
        format!(
            "{} papers replayed through {} epochs, state bit-identical ({})",
            tail.len(),
            live.epoch(),
            iuad_serve::fingerprint_hex(live_fp)
        ),
    )
}

/// WAL compaction preserves warm-restart bit-identity: stream the
/// scenario's held-out tail through a WAL-backed serving state as in
/// [`wal_replay_matches_live`], but checkpoint mid-stream — compacting the
/// log into a fingerprint-stamped base snapshot and truncating the WAL —
/// then run the real recovery state machine
/// ([`iuad_serve::ServeState::recover`]) and compare against the live
/// state. Recovery must start from the checkpoint (not a full replay),
/// apply the WAL tail on top, and land fingerprint-equal with a
/// `diff_from`-equal engine. Same shuffled-arrival gating as the replay
/// invariant.
pub fn wal_compaction_matches_live(
    corpus: &Corpus,
    config: &IuadConfig,
    spec: &ScenarioSpec,
) -> InvariantReport {
    const NAME: &str = "wal-compaction-matches-live";
    if spec.arrival != ArrivalOrder::Shuffled {
        return InvariantReport::skip(
            NAME,
            "corpus-order stream (checked on shuffled-arrival regimes)".to_string(),
        );
    }
    let (base, tail) = spec.split_for_streaming(corpus);
    if tail.is_empty() {
        return InvariantReport::skip(NAME, "no held-out stream to serve".to_string());
    }
    let dir = std::env::temp_dir().join("iuad-scenarios-wal");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return InvariantReport::fail(NAME, format!("cannot create WAL dir: {e}"));
    }
    let path = dir.join(format!("{}-compact.wal", spec.name));
    for (_, ckpt) in iuad_serve::list_checkpoints(&path).unwrap_or_default() {
        std::fs::remove_file(ckpt).ok();
    }
    let wal = match iuad_serve::Wal::create(&path) {
        Ok(wal) => wal,
        Err(e) => return InvariantReport::fail(NAME, format!("cannot create WAL: {e}")),
    };
    let fit_state = iuad_serve::ServeState::new(Iuad::fit(&base, config), None);
    // Mirror the daemon: publish epoch 1 up front, publish every 16
    // papers, checkpoint once at mid-stream so recovery must combine the
    // snapshot with a non-trivial WAL tail.
    let checkpoint_at = (tail.len() / 2).max(1);
    let live = {
        let mut state = fit_state.clone_base();
        state.set_wal(Some(wal));
        state.publish();
        for (batch, (paper, _)) in tail.iter().enumerate() {
            state.ingest(paper.clone());
            if (batch + 1) % 16 == 0 {
                state.publish();
            }
            if batch + 1 == checkpoint_at {
                if let Err(e) = state.checkpoint() {
                    return InvariantReport::fail(NAME, format!("checkpoint failed: {e}"));
                }
            }
        }
        state
    };
    let recovery = iuad_serve::ServeState::recover_from_base(&fit_state, &path);
    std::fs::remove_file(&path).ok();
    for (_, ckpt) in iuad_serve::list_checkpoints(&path).unwrap_or_default() {
        std::fs::remove_file(ckpt).ok();
    }
    let recovery = match recovery {
        Ok(recovery) => recovery,
        Err(e) => return InvariantReport::fail(NAME, format!("recovery failed: {e}")),
    };
    if recovery.checkpoint_seq != Some(1) {
        return InvariantReport::fail(
            NAME,
            format!(
                "recovery bypassed the checkpoint (started from {:?})",
                recovery.checkpoint_seq
            ),
        );
    }
    let (live_fp, rec_fp) = (live.fingerprint(), recovery.state.fingerprint());
    if live_fp != rec_fp {
        return InvariantReport::fail(
            NAME,
            format!(
                "partition fingerprints diverge: live {} vs recovered {}",
                iuad_serve::fingerprint_hex(live_fp),
                iuad_serve::fingerprint_hex(rec_fp)
            ),
        );
    }
    if let Some(diff) = recovery.state.engine().diff_from(live.engine()) {
        return InvariantReport::fail(NAME, format!("engines diverge after recovery: {diff}"));
    }
    InvariantReport::ok(
        NAME,
        format!(
            "{} papers recovered from checkpoint @{} + {} tail records, state bit-identical ({})",
            tail.len(),
            checkpoint_at,
            recovery.tail_records,
            iuad_serve::fingerprint_hex(live_fp)
        ),
    )
}

/// The incremental interface is consistent with the batch pipeline:
/// `disambiguate_paper` agrees slot-for-slot with `disambiguate_mention`,
/// matched vertices always bear the mention's name, repeated queries are
/// pure, and `ingest` bookkeeping exactly tracks decisions. Returns the
/// streaming statistics alongside the report.
pub fn incremental_consistency(
    corpus: &Corpus,
    config: &IuadConfig,
    spec: &ScenarioSpec,
) -> (InvariantReport, IncrementalOutcome) {
    const NAME: &str = "incremental-batch-consistency";
    let (base, tail) = spec.split_for_streaming(corpus);
    let mut iuad = Iuad::fit(&base, config);
    let mut outcome = IncrementalOutcome {
        streamed_mentions: 0,
        matched: 0,
        matched_correct: 0,
        new_authors: 0,
        accuracy: 0.0,
    };
    macro_rules! fail {
        ($($arg:tt)*) => {
            return (InvariantReport::fail(NAME, format!($($arg)*)), outcome.clone())
        };
    }

    for (paper, _) in &tail {
        let per_paper = iuad.disambiguate_paper(paper);
        if per_paper.len() != paper.authors.len() {
            fail!(
                "disambiguate_paper returned {} decisions for {} slots",
                per_paper.len(),
                paper.authors.len()
            );
        }
        for (slot, (name, decision)) in per_paper.iter().enumerate() {
            if *name != paper.authors[slot] {
                fail!("decision {slot} labelled with wrong name");
            }
            let direct = iuad.disambiguate(paper, slot);
            if direct != *decision {
                fail!(
                    "paper {:?} slot {slot}: paper-level {decision:?} != mention-level {direct:?}",
                    paper.id
                );
            }
            let again = iuad.disambiguate(paper, slot);
            if again != direct {
                fail!(
                    "paper {:?} slot {slot}: repeated query changed the decision",
                    paper.id
                );
            }
            if let Decision::Existing { vertex, score } = direct {
                if !score.is_finite() {
                    fail!("non-finite score at paper {:?}", paper.id);
                }
                if iuad.network.graph.vertex(vertex).name != paper.authors[slot] {
                    fail!(
                        "paper {:?} slot {slot}: matched vertex bears a different name",
                        paper.id
                    );
                }
            }
        }
        // Ingest the paper, then check the bookkeeping. Decisions are
        // re-taken against the *current* network (earlier slots of this
        // paper may have changed it); the per-paper pass above validated
        // API agreement on the frozen network.
        let assigned_before = iuad.network.assignment.len();
        let vertices_before = iuad.network.graph.num_vertices();
        let resolved = iuad.ingest(paper);
        if iuad.network.assignment.len() != assigned_before + paper.authors.len() {
            fail!(
                "ingest of paper {:?} did not register its {} mentions",
                paper.id,
                paper.authors.len()
            );
        }
        let founded = resolved
            .iter()
            .filter(|(_, d, _)| matches!(d, Decision::NewAuthor { .. }))
            .count();
        let grew = iuad.network.graph.num_vertices() - vertices_before;
        if grew != founded {
            fail!("{founded} NewAuthor decisions grew {grew} vertices");
        }
        outcome.streamed_mentions += resolved.len();
        outcome.new_authors += founded;
        for (slot, &(_, d, v)) in resolved.iter().enumerate() {
            let mention = Mention::new(paper.id, slot);
            if iuad.network.assignment.get(&mention) != Some(&v) {
                fail!("mention {mention:?} is not on the vertex ingest reported");
            }
            if iuad.network.graph.vertex(v).name != paper.authors[slot] {
                fail!("absorbed mention {mention:?} into wrong-name vertex");
            }
            if let Decision::Existing { vertex, .. } = d {
                if vertex != v {
                    fail!("mention {mention:?} absorbed away from its matched vertex");
                }
                outcome.matched += 1;
                // Majority-truth of the matched vertex as the decision saw
                // it — without this slot's or any later slot's mention — vs
                // the mention's ground truth (streaming accuracy, reported
                // not asserted).
                let mut counts: FxHashMap<u32, usize> = FxHashMap::default();
                for m in &iuad.network.graph.vertex(vertex).mentions {
                    if m.paper == paper.id && m.slot >= mention.slot {
                        continue;
                    }
                    *counts.entry(corpus.truth_of(*m).0).or_insert(0) += 1;
                }
                let major = counts
                    .into_iter()
                    .max_by_key(|&(a, n)| (n, std::cmp::Reverse(a)))
                    .map(|(a, _)| a);
                if major == Some(corpus.truth_of(mention).0) {
                    outcome.matched_correct += 1;
                }
            }
        }
    }
    if outcome.matched > 0 {
        outcome.accuracy = outcome.matched_correct as f64 / outcome.matched as f64;
    }
    let report = InvariantReport::ok(
        NAME,
        format!(
            "{} mentions streamed: {} matched ({} correct), {} new authors",
            outcome.streamed_mentions,
            outcome.matched,
            outcome.matched_correct,
            outcome.new_authors
        ),
    );
    (report, outcome)
}
