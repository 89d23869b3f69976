//! The six similarity functions of §V-B and their cached computation engine.
//!
//! | γ | What | Family |
//! |---|------|--------|
//! | γ₁ | normalised Weisfeiler-Lehman subgraph kernel | Gaussian |
//! | γ₂ | co-author clique (triangle) coincidence ratio | Exponential |
//! | γ₃ | cosine of keyword-embedding centroids | Gaussian |
//! | γ₄ | time consistency of research interests | Exponential |
//! | γ₅ | representative-community coincidence | Exponential |
//! | γ₆ | Adamic/Adar research-community similarity | Exponential |
//!
//! Families: bounded, symmetric-ish scores are modelled Gaussian; sparse
//! non-negative ratios are modelled Exponential (§V-C uses the exponential
//! family precisely so heterogeneous features can coexist in one
//! likelihood).
//!
//! γ₄ deviation: the paper writes `e^{α·min(b)}` with α = 0.62, citing the
//! FutureRank *decay* factor; a positive exponent rewards temporally distant
//! reuse, contradicting the stated intuition, so we implement the decay
//! `e^{−α·min(b)}` (see DESIGN.md).
//!
//! Hot-path layout: every per-pair input is a sorted slice — WL features
//! ([`SparseFeatures`]), name triangles, keyword years, venue counts — so
//! each γ is a two-pointer merge join over contiguous memory, and the
//! engine's caches are dense `Vec` slabs indexed by vertex id, so a
//! candidate-pair evaluation performs no hash lookups at all.

use iuad_graph::triangles::{triangles_of, triangles_of_csr};
use iuad_graph::wl::{normalized_kernel, vertex_features, vertex_features_csr, SparseFeatures};
use iuad_graph::{Csr, VertexId};
use iuad_mixture::Family;
use iuad_par::ParallelConfig;
use iuad_text::cosine_with_norms;

use crate::profile::{KeywordYears, ProfileContext, VenueCounts, VertexProfile};
use crate::scn::Scn;

/// Number of similarity functions.
pub const NUM_SIMILARITIES: usize = 6;

/// Distribution family per similarity (order γ₁..γ₆).
pub const FAMILIES: [Family; NUM_SIMILARITIES] = [
    Family::Gaussian,    // γ1 WL kernel ∈ [0,1]
    Family::Exponential, // γ2 clique coincidence ratio
    Family::Gaussian,    // γ3 interest cosine ∈ [-1,1]
    Family::Exponential, // γ4 time consistency
    Family::Exponential, // γ5 representative community
    Family::Exponential, // γ6 research communities (Adamic/Adar)
];

/// A γ-vector for one candidate pair.
pub type SimilarityVector = [f64; NUM_SIMILARITIES];

/// Which vertices to pre-cache structural features for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheScope {
    /// Only vertices of names with ≥ 2 vertices (all Stage-2 candidates).
    AmbiguousOnly,
    /// Every vertex (needed when arbitrary names can be queried, e.g. the
    /// incremental setting).
    All,
}

/// Per-vertex caches + the logic of γ₁..γ₆.
///
/// Owns its caches (no borrows), so it can live inside [`crate::Iuad`]
/// alongside the network it was built from; methods take the graph/context
/// by reference where needed.
///
/// The structural caches are index-addressed slabs parallel to `profiles`:
/// `wl[v] == None` / `tris[v] == None` means the vertex is out of cache
/// scope or was founded by [`SimilarityEngine::absorb`] since the last
/// [`SimilarityEngine::refresh`]. Absorbing adds no edge, so a cached
/// vertex's structural features never go stale.
#[derive(Debug, Clone)]
pub struct SimilarityEngine {
    profiles: Vec<VertexProfile>,
    wl: Vec<Option<SparseFeatures>>,
    tris: Vec<Option<Vec<(u32, u32)>>>,
    /// Group-filtered pair evidence parallel to `profiles`; `None` falls
    /// back to the full per-vertex evidence (see [`JoinEvidence`]).
    join: Vec<Option<JoinEvidence>>,
    /// Members of each name group that holds join evidence, so `absorb`
    /// can invalidate a group in O(group) instead of scanning every
    /// profile. Entries are removed once invalidated.
    join_groups: rustc_hash::FxHashMap<iuad_corpus::NameId, Vec<VertexId>>,
    /// Keyword-centroid L2 norms parallel to `profiles`, hoisting γ₃'s
    /// self-norm passes out of the pairwise loop.
    cnorm: Vec<f64>,
    /// `e^{−α·gap}` for gaps `0..GAMMA4_TABLE_LEN` — γ₄'s decay factors,
    /// precomputed so the pairwise loop performs no `exp` calls for
    /// realistic year gaps.
    g4_exp: Vec<f64>,
    /// Decay factor α of γ₄ (paper: 0.62). Private: `g4_exp` is baked from
    /// it at construction, so post-build mutation would silently split γ₄
    /// between two decay rates.
    alpha: f64,
    /// WL refinement iterations h (and ego radius). Private: cached
    /// features were extracted at this radius.
    wl_iters: usize,
}

/// γ₄ decay factors precomputed for year gaps below this bound (five
/// centuries — any larger gap falls back to a direct `exp`).
const GAMMA4_TABLE_LEN: usize = 512;

/// Name groups below this size carry no [`JoinEvidence`]. A 2-vertex
/// group's filtered evidence is exactly its single pair's intersection, so
/// building it costs the full-evidence scan it would later save — zero net
/// win — while a k ≥ 3 group amortises one basis across k(k−1)/2 pairs.
/// Excluded pairs score over the full-evidence fallback, which the filter
/// is exact against by construction, so γ-vectors are unchanged.
const JOIN_EVIDENCE_MIN_GROUP: usize = 3;

/// Join-optimised evidence for one vertex: each component keeps only the
/// items (WL labels, triangles, keywords, venues) that occur in ≥ 2
/// vertices of the owner's *name group*. [`SimilarityEngine::similarity`]
/// only ever compares same-name vertices, and an item held by a single
/// member can never match inside the group — so same-name pair scores over
/// this evidence are bit-identical to the full per-vertex evidence while
/// scanning ~an order of magnitude fewer entries (Stage 1 kept same-name
/// vertices apart precisely because their evidence barely overlaps).
///
/// Ad-hoc queries ([`SimilarityEngine::similarity_against`]) must use the
/// full evidence: an external profile can match items this filter dropped.
#[derive(Debug, Clone)]
struct JoinEvidence {
    /// Filtered WL features with the *full* norm retained, so the
    /// normalised kernel still divides by the full self-kernels.
    wl: SparseFeatures,
    tris: Vec<(u32, u32)>,
    kw: KeywordYears,
    venues: VenueCounts,
}

/// Whole-graph BFS visit rank per vertex, so bulk per-vertex structural
/// extraction can walk the graph region by region instead of in vertex-id
/// order (which follows mention order, not topology).
fn bfs_rank(csr: &Csr) -> Vec<u32> {
    let n = csr.num_vertices();
    let mut rank = vec![u32::MAX; n];
    let mut order: Vec<VertexId> = Vec::with_capacity(n);
    for start in 0..n {
        if rank[start] != u32::MAX {
            continue;
        }
        rank[start] = order.len() as u32;
        order.push(VertexId::from(start));
        let mut head = order.len() - 1;
        while head < order.len() {
            let u = order[head];
            head += 1;
            for &w in csr.neighbors(u) {
                if rank[w.index()] == u32::MAX {
                    rank[w.index()] = order.len() as u32;
                    order.push(w);
                }
            }
        }
    }
    rank
}

/// Reorder `vertices` by [`bfs_rank`]. Extraction *order* only — every
/// cached feature is placed positionally by vertex id, so callers get
/// identical engines whatever the order here.
fn reorder_by_bfs(csr: &Csr, vertices: &mut [VertexId]) {
    let rank = bfs_rank(csr);
    vertices.sort_unstable_by_key(|v| rank[v.index()]);
}

/// Sorted items appearing more than once in a concatenation of
/// individually sorted, duplicate-free per-member lists — i.e. items held
/// by ≥ 2 group members, the join-evidence retention predicate.
fn shared<T: Ord + Copy>(items: impl Iterator<Item = T>) -> Vec<T> {
    let mut all: Vec<T> = items.collect();
    all.sort_unstable();
    shared_of_sorted(&all)
}

/// The ≥ 2-occurrences scan over an ascending multiset.
fn shared_of_sorted<T: Ord + Copy>(all: &[T]) -> Vec<T> {
    let mut out = Vec::new();
    for i in 1..all.len() {
        if all[i] == all[i - 1] && out.last() != Some(&all[i]) {
            out.push(all[i]);
        }
    }
    out
}

/// [`shared`] over member lists that are *individually sorted*: instead of
/// concatenating and re-sorting from scratch, merge the pre-sorted runs
/// bottom-up (⌈log₂ k⌉ linear passes — the dominant join-evidence cost on
/// groups whose members carry hundreds of WL labels each). A 2-list group
/// short-circuits to a plain intersection.
fn shared_sorted_lists<T: Ord + Copy>(lists: &[&[T]]) -> Vec<T> {
    match lists.len() {
        0 | 1 => Vec::new(),
        2 => intersect_sorted(lists[0], lists[1]),
        k if k <= 4 => {
            // Small groups: the union of pairwise intersections — each
            // join is a linear scan and the outputs are tiny (same-name
            // members share little evidence), so nothing the size of the
            // input is ever copied.
            let mut out: Vec<T> = Vec::new();
            for (i, a) in lists.iter().enumerate() {
                for b in &lists[i + 1..] {
                    let (mut p, mut q) = (0, 0);
                    while p < a.len() && q < b.len() {
                        match a[p].cmp(&b[q]) {
                            std::cmp::Ordering::Less => p += 1,
                            std::cmp::Ordering::Greater => q += 1,
                            std::cmp::Ordering::Equal => {
                                out.push(a[p]);
                                p += 1;
                                q += 1;
                            }
                        }
                    }
                }
            }
            out.sort_unstable();
            out.dedup();
            out
        }
        _ => {
            let merge = |a: &[T], b: &[T], out: &mut Vec<T>| {
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    if a[i] <= b[j] {
                        out.push(a[i]);
                        i += 1;
                    } else {
                        out.push(b[j]);
                        j += 1;
                    }
                }
                out.extend_from_slice(&a[i..]);
                out.extend_from_slice(&b[j..]);
            };
            let mut runs: Vec<Vec<T>> = Vec::with_capacity(lists.len().div_ceil(2));
            for pair in lists.chunks(2) {
                let mut run = Vec::with_capacity(pair.iter().map(|l| l.len()).sum());
                match pair {
                    [a, b] => merge(a, b, &mut run),
                    [a] => run.extend_from_slice(a),
                    _ => unreachable!(),
                }
                runs.push(run);
            }
            while runs.len() > 1 {
                let mut next: Vec<Vec<T>> = Vec::with_capacity(runs.len().div_ceil(2));
                let mut it = runs.into_iter();
                while let Some(a) = it.next() {
                    match it.next() {
                        Some(b) => {
                            let mut run = Vec::with_capacity(a.len() + b.len());
                            merge(&a, &b, &mut run);
                            next.push(run);
                        }
                        None => next.push(a),
                    }
                }
                runs = next;
            }
            shared_of_sorted(&runs[0])
        }
    }
}

/// The ascending intersection of `items` with `keep`, via the one shared
/// adaptive join ([`iuad_graph::wl::join_ascending`]) — near-free when the
/// shared set is empty, a frequent case for group evidence.
fn intersect_sorted<T: Ord + Copy>(items: &[T], keep: &[T]) -> Vec<T> {
    let mut out = Vec::new();
    iuad_graph::wl::join_ascending(items, keep, |i| out.push(items[i]));
    out
}

/// Borrowed evidence for one side of a γ-vector evaluation: either a
/// vertex's [`JoinEvidence`] (cached same-name pair path) or its full
/// profile-backed evidence (fallback and ad-hoc paths).
struct Side<'a> {
    wl: Option<&'a SparseFeatures>,
    tris: &'a [(u32, u32)],
    kw: &'a KeywordYears,
    venues: &'a VenueCounts,
    profile: &'a VertexProfile,
    cnorm: f64,
}

impl SimilarityEngine {
    /// Build the engine, caching profiles for every vertex and structural
    /// features per `scope`. Fully sequential; see [`Self::build_parallel`].
    pub fn build(
        scn: &Scn,
        ctx: &ProfileContext,
        alpha: f64,
        wl_iters: usize,
        scope: CacheScope,
    ) -> Self {
        Self::build_parallel(
            scn,
            ctx,
            alpha,
            wl_iters,
            scope,
            &ParallelConfig::sequential(),
        )
    }

    /// Build the engine, fanning the per-vertex profile and structural
    /// feature extraction (the WL and triangle kernels — the O(n·deg²) hot
    /// path of engine construction) across `par.threads` workers. Every
    /// cached feature is a pure function of the network, so the result is
    /// identical at any thread count.
    pub fn build_parallel(
        scn: &Scn,
        ctx: &ProfileContext,
        alpha: f64,
        wl_iters: usize,
        scope: CacheScope,
        par: &ParallelConfig,
    ) -> Self {
        let verts: Vec<VertexId> = scn.graph.vertices().map(|(v, _)| v).collect();
        let profiles: Vec<VertexProfile> = iuad_par::parallel_map(par, &verts, |&v| {
            let payload = scn.graph.vertex(v);
            VertexProfile::from_mentions(payload.name, &payload.mentions, ctx)
        });
        let n = profiles.len();
        let cnorm: Vec<f64> = profiles
            .iter()
            .map(|p| iuad_text::norm(&p.keyword_centroid))
            .collect();
        let g4_exp: Vec<f64> = (0..GAMMA4_TABLE_LEN)
            .map(|g| (-alpha * g as f64).exp())
            .collect();
        let mut engine = SimilarityEngine {
            profiles,
            wl: vec![None; n],
            tris: vec![None; n],
            join: vec![None; n],
            join_groups: rustc_hash::FxHashMap::default(),
            cnorm,
            g4_exp,
            alpha,
            wl_iters,
        };

        let mut scoped: Vec<VertexId> = match scope {
            CacheScope::AmbiguousOnly => scn
                .by_name
                .values()
                .filter(|vs| vs.len() >= 2)
                .flatten()
                .copied()
                .collect(),
            CacheScope::All => verts,
        };
        scoped.sort_unstable();
        scoped.dedup();
        // Structural extraction walks a frozen CSR snapshot: sorted
        // contiguous neighbour slices instead of per-vertex hash maps — the
        // layout that matters on scale-free hubs, where WL balls and
        // triangle intersections concentrate.
        engine.extract_structural(scn, &scn.csr(), scoped, par);
        // Groups of 2 carry no join evidence (see
        // [`JOIN_EVIDENCE_MIN_GROUP`]).
        let groups: Vec<&[VertexId]> = scn
            .by_name
            .values()
            .filter(|vs| vs.len() >= JOIN_EVIDENCE_MIN_GROUP)
            .map(Vec::as_slice)
            .collect();
        engine.build_join_evidence(&groups, par);
        engine
    }

    /// Cache WL features and name triangles for `vertices`, extracted over
    /// `csr` (the frozen snapshot of `network`) region by region — see
    /// [`reorder_by_bfs`]; placement is positional by vertex id.
    fn extract_structural(
        &mut self,
        network: &Scn,
        csr: &Csr,
        mut vertices: Vec<VertexId>,
        par: &ParallelConfig,
    ) {
        let names: Vec<u64> = network
            .graph
            .vertices()
            .map(|(_, p)| u64::from(p.name.0))
            .collect();
        reorder_by_bfs(csr, &mut vertices);
        let wl_iters = self.wl_iters;
        let features = iuad_par::parallel_map(par, &vertices, |&v| {
            (
                Self::wl_of_csr(csr, &names, v, wl_iters),
                Self::name_triangles_csr(csr, network, v),
            )
        });
        for (&v, (w, t)) in vertices.iter().zip(features) {
            self.wl[v.index()] = Some(w);
            self.tris[v.index()] = Some(t);
        }
    }

    /// Build [`JoinEvidence`] for every member of each name group in
    /// `groups` (see its docs for why this is exact), fanned across workers
    /// — groups are independent — and record each group's membership.
    fn build_join_evidence(&mut self, groups: &[&[VertexId]], par: &ParallelConfig) {
        let evidence = iuad_par::parallel_map(par, groups, |vs| {
            Self::group_join_evidence(vs, &self.wl, &self.tris, &self.profiles)
        });
        for (vs, evidence) in groups.iter().zip(evidence) {
            for (&v, e) in vs.iter().zip(evidence) {
                self.join[v.index()] = e;
            }
            let name = self.profiles[vs[0].index()].name;
            self.join_groups.insert(name, vs.to_vec());
        }
    }

    /// [`JoinEvidence`] for every member of one name group, in `vs` order
    /// (`None` for members without cached structural features).
    ///
    /// Every per-member item list (WL labels, triangles, keywords, venues)
    /// is already sorted and duplicate-free, so "occurs in ≥ 2 members" is
    /// computed by concatenate-sort-scan instead of hash counting, and each
    /// member filters against the shared sorted set with an advancing
    /// cursor — no hash map touches the evidence path.
    fn group_join_evidence(
        vs: &[VertexId],
        wl: &[Option<SparseFeatures>],
        tris: &[Option<Vec<(u32, u32)>>],
        profiles: &[VertexProfile],
    ) -> Vec<Option<JoinEvidence>> {
        let label_lists: Vec<&[u64]> = vs
            .iter()
            .filter_map(|&v| wl[v.index()].as_ref())
            .map(SparseFeatures::labels)
            .collect();
        let shared_labels: Vec<u64> = shared_sorted_lists(&label_lists);
        // `name_triangles` dedups, so each triangle occurs once per member
        // — a shared-set hit really means "held by ≥ 2 vertices".
        let tri_lists: Vec<&[(u32, u32)]> = vs
            .iter()
            .filter_map(|&v| tris[v.index()].as_deref())
            .collect();
        let shared_tris: Vec<(u32, u32)> = shared_sorted_lists(&tri_lists);
        let word_lists: Vec<&[u32]> = vs
            .iter()
            .map(|&v| profiles[v.index()].keyword_years.words())
            .collect();
        let shared_words: Vec<u32> = shared_sorted_lists(&word_lists);
        // Venue lists are tiny; the flat concat-sort path suffices.
        let shared_venues: Vec<u32> = shared(
            vs.iter()
                .flat_map(|&v| profiles[v.index()].venue_counts.entries().iter())
                .map(|&(h, _)| h),
        );

        vs.iter()
            .map(|&v| {
                let (Some(f), Some(t)) = (&wl[v.index()], &tris[v.index()]) else {
                    return None;
                };
                let p = &profiles[v.index()];
                Some(JoinEvidence {
                    wl: f.intersect_labels(&shared_labels),
                    tris: intersect_sorted(t, &shared_tris),
                    kw: p.keyword_years.intersect_words(&shared_words),
                    venues: p.venue_counts.intersect_venues(&shared_venues),
                })
            })
            .collect()
    }

    /// The engine for a merged `network`: drops the pre-merge engine `old`
    /// (so two engines are never live at once) and runs a full
    /// [`Self::build_parallel`] at `old`'s α and `h`; `plan` is unused.
    ///
    /// This once carried profiles, structural caches and join evidence
    /// across the Stage-2 merge. That stopped paying: about half the
    /// merged vertices are coalesced hubs, so the dirty ball around them
    /// covers nearly the whole graph and the carry cost as much as a
    /// rebuild. [`crate::Iuad::fit`] builds its merged engine directly.
    /// The signature stays only because the repository benchmark times
    /// this entry point.
    pub fn derive(
        old: SimilarityEngine,
        _plan: &crate::gcn::MergePlan,
        network: &Scn,
        ctx: &ProfileContext,
        scope: CacheScope,
        par: &ParallelConfig,
    ) -> SimilarityEngine {
        let (alpha, wl_iters) = (old.alpha, old.wl_iters);
        drop(old);
        Self::build_parallel(network, ctx, alpha, wl_iters, scope, par)
    }

    /// Bring an absorbed-into engine back to canonical state in place: the
    /// serving tier's epoch publish. `touched` lists the vertices absorbed
    /// into since the engine was last canonical (any order, duplicates
    /// allowed); `network` is the live network they were absorbed into and
    /// `csr` its frozen snapshot. Afterwards the engine is bit-identical to
    /// [`Self::build_parallel`] over `network` at [`CacheScope::All`]
    /// (pinned per scenario by the `publish-matches-rebuild` invariant).
    ///
    /// Streaming adds mentions and vertices but never an edge, so only
    /// three things can differ from a rebuild, and each is recomputed:
    ///
    /// * **Profiles** of touched vertices are rebuilt from their mentions.
    ///   [`Self::absorb`] merges profiles ([`VertexProfile::merge`]), whose
    ///   mass-weighted centroid drifts f32 bits from a from-scratch build.
    ///   No other vertex gained a mention.
    /// * **WL features and triangles** are computed for every vertex with
    ///   no cache: vertices founded since the last publish, and — on the
    ///   first publish over a fitted [`CacheScope::AmbiguousOnly`] engine —
    ///   every singleton name. A founded vertex has no edge, so it lies in
    ///   no other vertex's ball.
    /// * **Join evidence** is rebuilt in full for groups of ≥ 3 whose entry
    ///   [`Self::absorb`] dropped or that reached 3 members since.
    pub fn refresh(
        &mut self,
        touched: &[VertexId],
        network: &Scn,
        csr: &Csr,
        ctx: &ProfileContext,
        par: &ParallelConfig,
    ) {
        let n = network.graph.num_vertices();
        assert_eq!(self.profiles.len(), n, "engine and network out of step");
        let mut touched = touched.to_vec();
        touched.sort_unstable();
        touched.dedup();
        let rebuilt = iuad_par::parallel_map(par, &touched, |&v| {
            let payload = network.graph.vertex(v);
            VertexProfile::from_mentions(payload.name, &payload.mentions, ctx)
        });
        for (&v, p) in touched.iter().zip(rebuilt) {
            self.cnorm[v.index()] = iuad_text::norm(&p.keyword_centroid);
            self.profiles[v.index()] = p;
        }

        let uncached: Vec<VertexId> = (0..n)
            .filter(|&i| self.wl[i].is_none())
            .map(VertexId::from)
            .collect();
        self.extract_structural(network, csr, uncached, par);

        let stale: Vec<&[VertexId]> = network
            .by_name
            .values()
            .filter(|vs| vs.len() >= JOIN_EVIDENCE_MIN_GROUP)
            .filter(|vs| self.join_groups.get(&self.profiles[vs[0].index()].name) != Some(*vs))
            .map(Vec::as_slice)
            .collect();
        self.build_join_evidence(&stale, par);
    }

    /// First difference between two engines' cached state, or `None` when
    /// they are bit-identical — the checkable face of the
    /// refresh-vs-rebuild contract. Floats compare by bit pattern, not
    /// tolerance: a refresh keeps state *because* it is provably
    /// unchanged, so any drift is a correctness bug, not rounding.
    pub fn diff_from(&self, other: &SimilarityEngine) -> Option<String> {
        fn sparse_eq(a: &SparseFeatures, b: &SparseFeatures) -> bool {
            a == b && a.norm().to_bits() == b.norm().to_bits()
        }
        if self.profiles.len() != other.profiles.len() {
            return Some(format!(
                "vertex counts differ: {} vs {}",
                self.profiles.len(),
                other.profiles.len()
            ));
        }
        if self.alpha.to_bits() != other.alpha.to_bits()
            || self.wl_iters != other.wl_iters
            || self.g4_exp.len() != other.g4_exp.len()
            || self
                .g4_exp
                .iter()
                .zip(&other.g4_exp)
                .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            return Some("engine parameters (α, h, decay table) differ".to_string());
        }
        for i in 0..self.profiles.len() {
            if self.profiles[i] != other.profiles[i] {
                return Some(format!("profile differs at vertex {i}"));
            }
            if self.cnorm[i].to_bits() != other.cnorm[i].to_bits() {
                return Some(format!("centroid norm differs at vertex {i}"));
            }
            let wl_eq = match (&self.wl[i], &other.wl[i]) {
                (Some(a), Some(b)) => sparse_eq(a, b),
                (None, None) => true,
                _ => false,
            };
            if !wl_eq {
                return Some(format!("WL features differ at vertex {i}"));
            }
            if self.tris[i] != other.tris[i] {
                return Some(format!("triangles differ at vertex {i}"));
            }
            let join_eq = match (&self.join[i], &other.join[i]) {
                (Some(a), Some(b)) => {
                    sparse_eq(&a.wl, &b.wl)
                        && a.tris == b.tris
                        && a.kw == b.kw
                        && a.venues == b.venues
                }
                (None, None) => true,
                _ => false,
            };
            if !join_eq {
                return Some(format!("join evidence differs at vertex {i}"));
            }
        }
        if self.join_groups != other.join_groups {
            return Some("join-group membership differs".to_string());
        }
        None
    }

    /// The evidence [`Side`] of a vertex: the group-filtered
    /// [`JoinEvidence`] when present, the full per-vertex evidence
    /// otherwise.
    fn side(&self, v: VertexId) -> Side<'_> {
        let profile = &self.profiles[v.index()];
        let cnorm = self.cnorm[v.index()];
        match &self.join[v.index()] {
            Some(j) => Side {
                wl: Some(&j.wl),
                tris: &j.tris,
                kw: &j.kw,
                venues: &j.venues,
                profile,
                cnorm,
            },
            None => Side {
                wl: self.wl[v.index()].as_ref(),
                tris: self.tris[v.index()].as_deref().unwrap_or(&[]),
                kw: &profile.keyword_years,
                venues: &profile.venue_counts,
                profile,
                cnorm,
            },
        }
    }

    /// WL features via the graph's hash adjacency — the ad-hoc path for
    /// single cache misses, where freezing a CSR snapshot would cost more
    /// than the query. Bit-identical to [`Self::wl_of_csr`].
    fn wl_of(scn: &Scn, v: VertexId, wl_iters: usize) -> SparseFeatures {
        vertex_features(&scn.graph, v, wl_iters, |w| {
            scn.graph.vertex(w).name.0 as u64
        })
    }

    /// WL features via a frozen [`Csr`] snapshot — the bulk engine-build
    /// path. `names` is the per-vertex name-label slab (one contiguous
    /// lookup instead of a payload dereference per ball member).
    fn wl_of_csr(csr: &Csr, names: &[u64], v: VertexId, wl_iters: usize) -> SparseFeatures {
        vertex_features_csr(csr, v, wl_iters, |w| names[w.index()])
    }

    /// Triangles through `v` as sorted co-member *name* pairs (names, not
    /// vertex ids, so that structurally parallel cliques coincide). Hash
    /// adjacency; the single-miss counterpart of
    /// [`Self::name_triangles_csr`].
    fn name_triangles(scn: &Scn, v: VertexId) -> Vec<(u32, u32)> {
        Self::to_name_pairs(scn, triangles_of(&scn.graph, v))
    }

    /// [`Self::name_triangles`] via a frozen [`Csr`] snapshot — sorted-merge
    /// neighbour intersection instead of per-pair hash probes.
    fn name_triangles_csr(csr: &Csr, scn: &Scn, v: VertexId) -> Vec<(u32, u32)> {
        Self::to_name_pairs(scn, triangles_of_csr(csr, v))
    }

    fn to_name_pairs(scn: &Scn, tris: Vec<(VertexId, VertexId)>) -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = tris
            .into_iter()
            .map(|(x, y)| {
                let nx = scn.graph.vertex(x).name.0;
                let ny = scn.graph.vertex(y).name.0;
                (nx.min(ny), nx.max(ny))
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The cached profile of a vertex.
    pub fn profile(&self, v: VertexId) -> &VertexProfile {
        &self.profiles[v.index()]
    }

    /// γ₄'s decay factor α the engine was built with.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// WL refinement iterations (and ego radius) the caches were built at.
    pub fn wl_iters(&self) -> usize {
        self.wl_iters
    }

    /// Absorb a new mention's profile into the cache: merge into vertex
    /// `v`'s profile, or append when `v` is a vertex created after the
    /// engine was built. An absorbed mention adds no edge, so an existing
    /// vertex keeps its structural caches (WL, triangles); a new vertex
    /// starts without them, computed on demand by
    /// [`Self::similarity_against`] until [`Self::refresh`] fills them.
    pub fn absorb(&mut self, v: VertexId, delta: &VertexProfile) {
        if v.index() < self.profiles.len() {
            self.profiles[v.index()].merge(delta);
        } else {
            assert_eq!(
                v.index(),
                self.profiles.len(),
                "vertices must be absorbed in creation order"
            );
            self.profiles.push(delta.clone());
        }
        // Slabs stay parallel to `profiles`.
        self.wl.resize(self.profiles.len(), None);
        self.tris.resize(self.profiles.len(), None);
        self.join.resize(self.profiles.len(), None);
        self.cnorm.resize(self.profiles.len(), 0.0);
        self.cnorm[v.index()] = iuad_text::norm(&self.profiles[v.index()].keyword_centroid);
        // The group-filtered evidence basis of `v`'s whole name group is
        // stale: `v`'s new items could match items the filter dropped from
        // its peers. Drop the group to the exact full-evidence fallback
        // (O(group); the removed entry keeps repeat absorbs O(1)).
        let name = self.profiles[v.index()].name;
        if let Some(members) = self.join_groups.remove(&name) {
            for u in members {
                self.join[u.index()] = None;
            }
        }
    }

    /// γ-vector between two *same-name* vertices (both must be in cache
    /// scope; γ₁ is computed over the name group's shared label basis, so
    /// cross-name queries would see a zero kernel).
    pub fn similarity(&self, ctx: &ProfileContext, vi: VertexId, vj: VertexId) -> SimilarityVector {
        let si = self.side(vi);
        let sj = self.side(vj);
        let g1 = match (si.wl, sj.wl) {
            (Some(a), Some(b)) => normalized_kernel(a, b),
            _ => 0.0,
        };
        self.assemble(ctx, g1, &si, &sj)
    }

    /// γ-vectors for every unordered pair of `vs` (the `i < j` pairs of the
    /// slice, in nested-loop order) — the batch path Stage 2 uses per
    /// same-name candidate group.
    ///
    /// Produces bit-identical vectors to calling [`Self::similarity`] per
    /// pair, but computes all WL kernels of the group in one pass over an
    /// inverted label index: each vertex's feature list is scanned once per
    /// *group* instead of once per *pair*, which is the dominant Stage-2
    /// saving on heavily ambiguous names.
    pub fn similarity_block(&self, ctx: &ProfileContext, vs: &[VertexId]) -> Vec<SimilarityVector> {
        let k = vs.len();
        if k < 2 {
            return Vec::new();
        }
        let tri = |i: usize, j: usize| i * (2 * k - i - 1) / 2 + (j - i - 1);
        let mut dots = vec![0.0f64; k * (k - 1) / 2];
        let sides: Vec<Side<'_>> = vs.iter().map(|&v| self.side(v)).collect();
        // Inverted label index over the group: `head` maps a label to a
        // chain of (vertex slot, count) nodes in `arena` (`0` = end, node
        // ids offset by 1). Processing vertices in slice order and labels
        // in ascending order makes every pair's dot product accumulate in
        // ascending shared-label order — the merge join's exact sequence.
        let mut head: rustc_hash::FxHashMap<u64, u32> = rustc_hash::FxHashMap::default();
        let mut arena: Vec<(u32, u32, u32)> = Vec::new();
        for (j, s) in sides.iter().enumerate() {
            let Some(f) = s.wl else {
                continue;
            };
            for (l, c) in f.iter() {
                let slot = head.entry(l).or_insert(0);
                let mut cur = *slot;
                while cur != 0 {
                    let (i, ci, next) = arena[(cur - 1) as usize];
                    dots[tri(i as usize, j)] += f64::from(ci) * f64::from(c);
                    cur = next;
                }
                arena.push((j as u32, c, *slot));
                *slot = arena.len() as u32;
            }
        }

        let mut out = Vec::with_capacity(dots.len());
        for i in 0..k {
            for j in (i + 1)..k {
                let g1 = match (sides[i].wl, sides[j].wl) {
                    (Some(fa), Some(fb)) if fa.norm() != 0.0 && fb.norm() != 0.0 => {
                        (dots[tri(i, j)] / (fa.norm() * fb.norm())).clamp(0.0, 1.0)
                    }
                    _ => 0.0,
                };
                // Orient like `similarity(min, max)` does.
                let (lo, hi) = if vs[i] <= vs[j] { (i, j) } else { (j, i) };
                out.push(self.assemble(ctx, g1, &sides[lo], &sides[hi]));
            }
        }
        out
    }

    /// γ-vector between an ad-hoc profile (e.g. a new paper in the
    /// incremental setting) and an existing vertex. The caller supplies the
    /// ad-hoc side's WL features and name-level triangles; `scn` enables
    /// on-demand structural features for out-of-scope vertices.
    pub fn similarity_against(
        &self,
        scn: &Scn,
        ctx: &ProfileContext,
        new_profile: &VertexProfile,
        new_wl: &SparseFeatures,
        new_tris: &[(u32, u32)],
        vj: VertexId,
    ) -> SimilarityVector {
        let pj = &self.profiles[vj.index()];
        let g1 = match &self.wl[vj.index()] {
            Some(b) => normalized_kernel(new_wl, b),
            None => normalized_kernel(new_wl, &Self::wl_of(scn, vj, self.wl_iters)),
        };
        // Cached triangles are borrowed; only a cache miss materialises.
        // Both sides use *full* evidence: the ad-hoc profile is outside the
        // group basis the join filter was computed against.
        let computed;
        let tj: &[(u32, u32)] = match &self.tris[vj.index()] {
            Some(t) => t,
            None => {
                computed = Self::name_triangles(scn, vj);
                &computed
            }
        };
        let si = Side {
            wl: None,
            tris: new_tris,
            kw: &new_profile.keyword_years,
            venues: &new_profile.venue_counts,
            profile: new_profile,
            cnorm: iuad_text::norm(&new_profile.keyword_centroid),
        };
        let sj = Side {
            wl: None,
            tris: tj,
            kw: &pj.keyword_years,
            venues: &pj.venue_counts,
            profile: pj,
            cnorm: self.cnorm[vj.index()],
        };
        self.assemble(ctx, g1, &si, &sj)
    }

    /// Synthetic matched pair from splitting one vertex in half (§V-F2, the
    /// imbalance-correcting sampling strategy). Returns `None` for vertices
    /// with fewer than 4 papers.
    ///
    /// Structural approximation: both halves share the vertex's position in
    /// the network, so γ₁ is the self-kernel (1.0 when features exist) and
    /// γ₂ is the full clique overlap against the half-τ.
    pub fn synthetic_split_vector(
        &self,
        scn: &Scn,
        ctx: &ProfileContext,
        v: VertexId,
        rng: &mut impl rand::Rng,
    ) -> Option<SimilarityVector> {
        use rand::seq::SliceRandom;
        let mentions = &scn.graph.vertex(v).mentions;
        if mentions.len() < 4 {
            return None;
        }
        // Shuffle an index permutation, not the mention list: same rng
        // stream and same resulting halves, no payload clone.
        let mut idx: Vec<usize> = (0..mentions.len()).collect();
        idx.shuffle(rng);
        let (idx_a, idx_b) = idx.split_at(idx.len() / 2);
        let name = scn.graph.vertex(v).name;
        let pa = VertexProfile::from_mention_indices(name, mentions, idx_a, ctx);
        let pb = VertexProfile::from_mention_indices(name, mentions, idx_b, ctx);
        let wl_nonempty = self.wl[v.index()].as_ref().is_some_and(|f| !f.is_empty());
        let g1 = if wl_nonempty { 1.0 } else { 0.0 };
        // Both halves take the vertex's *full* triangle list (the split is
        // structural-identity by construction) and their own full ad-hoc
        // profile evidence.
        let t = self.tris[v.index()].as_deref().unwrap_or(&[]);
        fn side_of<'a>(p: &'a VertexProfile, t: &'a [(u32, u32)]) -> Side<'a> {
            Side {
                wl: None,
                tris: t,
                kw: &p.keyword_years,
                venues: &p.venue_counts,
                profile: p,
                cnorm: iuad_text::norm(&p.keyword_centroid),
            }
        }
        Some(self.assemble(ctx, g1, &side_of(&pa, t), &side_of(&pb, t)))
    }

    fn assemble(
        &self,
        ctx: &ProfileContext,
        g1: f64,
        si: &Side<'_>,
        sj: &Side<'_>,
    ) -> SimilarityVector {
        let tau = si.profile.num_papers().min(sj.profile.num_papers()).max(1) as f64;
        [
            g1,
            gamma2_cliques(si.tris, sj.tris, tau),
            cosine_with_norms(
                &si.profile.keyword_centroid,
                &sj.profile.keyword_centroid,
                si.cnorm,
                sj.cnorm,
            ),
            gamma4_join(si.kw, sj.kw, tau, ctx, |gap| {
                // Table hit for realistic gaps; identical bits either way.
                match self.g4_exp.get(usize::from(gap)) {
                    Some(&e) => e,
                    None => (-self.alpha * f64::from(gap)).exp(),
                }
            }),
            gamma5_counts(
                si.venues,
                si.profile.representative_venue,
                sj.venues,
                sj.profile.representative_venue,
                tau,
            ),
            gamma6_join(si.venues, sj.venues, tau, ctx),
        ]
    }

    /// WL features for a brand-new mention: a star of the paper's co-author
    /// names around the target name, refined `wl_iters` times. Lives here so
    /// the incremental path shares the label space (name ids) with cached
    /// features.
    pub fn star_features(&self, target: u32, coauthor_names: &[u32]) -> SparseFeatures {
        let mut g: iuad_graph::AdjGraph<u32, ()> = iuad_graph::AdjGraph::new();
        let center = g.add_vertex(target);
        for &n in coauthor_names {
            let leaf = g.add_vertex(n);
            g.upsert_edge(center, leaf, || (), |_| ());
        }
        vertex_features(&g, center, self.wl_iters, |v| *g.vertex(v) as u64)
    }
}

/// γ₂ (Equation 5): `|L(v_i) ∩ L(v_j)| / τ` over sorted name-pair triangles.
pub fn gamma2_cliques(a: &[(u32, u32)], b: &[(u32, u32)], tau: f64) -> f64 {
    let mut i = 0;
    let mut j = 0;
    let mut common = 0usize;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    common as f64 / tau
}

/// Smallest absolute difference between two ascending year lists, by
/// two-pointer scan — O(|a| + |b|) against the nested O(|a|·|b|) loop.
fn min_year_gap(a: &[u16], b: &[u16]) -> u16 {
    let mut i = 0;
    let mut j = 0;
    let mut best = u16::MAX;
    while i < a.len() && j < b.len() {
        let (ya, yb) = (a[i], b[j]);
        best = best.min(ya.abs_diff(yb));
        if best == 0 {
            return 0;
        }
        if ya <= yb {
            i += 1;
        } else {
            j += 1;
        }
    }
    best
}

/// γ₄ (Equation 7, with the decay sign fixed): over common keywords `b`,
/// `Σ e^{−α·min(b)} / ln F_B(b) / τ` where `min(b)` is the smallest year gap
/// between the two vertices' usages of `b`. Common keywords come from a
/// merge join over the keyword-sorted profiles.
pub fn gamma4_time_consistency(
    pi: &VertexProfile,
    pj: &VertexProfile,
    tau: f64,
    alpha: f64,
    ctx: &ProfileContext,
) -> f64 {
    gamma4_join(&pi.keyword_years, &pj.keyword_years, tau, ctx, |gap| {
        (-alpha * f64::from(gap)).exp()
    })
}

/// The γ₄ merge join with the decay factor abstracted: the engine supplies
/// a table lookup, the public entry point a direct `exp`.
#[inline]
fn gamma4_join(
    a: &KeywordYears,
    b: &KeywordYears,
    tau: f64,
    ctx: &ProfileContext,
    decay: impl Fn(u16) -> f64,
) -> f64 {
    let (wa, wb) = (a.words(), b.words());
    let mut i = 0;
    let mut j = 0;
    let mut sum = 0.0;
    while i < wa.len() && j < wb.len() {
        let (x, y) = (wa[i], wb[j]);
        if x == y {
            let min_gap = min_year_gap(a.years_at(i), b.years_at(j));
            sum += decay(min_gap) / ctx.word_ln_freq[x as usize];
            i += 1;
            j += 1;
        } else {
            // Branchless advance: exactly one side moves.
            i += usize::from(x < y);
            j += usize::from(y < x);
        }
    }
    sum / tau
}

/// γ₅ (Equation 8): cross-counts of each vertex's representative venue in
/// the other's venue multiset, over τ.
pub fn gamma5_representative(pi: &VertexProfile, pj: &VertexProfile, tau: f64) -> f64 {
    gamma5_counts(
        &pi.venue_counts,
        pi.representative_venue,
        &pj.venue_counts,
        pj.representative_venue,
        tau,
    )
}

/// γ₅ over explicit venue multisets (the engine passes group-filtered ones;
/// exact because a representative venue is always in its owner's multiset,
/// so a cross-count > 0 implies the venue is shared and survives the
/// filter).
fn gamma5_counts(
    venues_i: &VenueCounts,
    rep_i: Option<iuad_corpus::VenueId>,
    venues_j: &VenueCounts,
    rep_j: Option<iuad_corpus::VenueId>,
    tau: f64,
) -> f64 {
    let cnt = |counts: &VenueCounts, venue: Option<iuad_corpus::VenueId>| -> u32 {
        venue.map_or(0, |v| counts.count_of(v.0))
    };
    let c = cnt(venues_j, rep_i) + cnt(venues_i, rep_j);
    f64::from(c) / tau
}

/// γ₆ (Equation 9): Adamic/Adar over common venues, emphasising small
/// minority venues via `1 / ln F_H(h)`. Common venues come from a merge
/// join over the venue-sorted multisets.
pub fn gamma6_communities(
    pi: &VertexProfile,
    pj: &VertexProfile,
    tau: f64,
    ctx: &ProfileContext,
) -> f64 {
    gamma6_join(&pi.venue_counts, &pj.venue_counts, tau, ctx)
}

/// The γ₆ merge join over explicit venue multisets.
fn gamma6_join(va: &VenueCounts, vb: &VenueCounts, tau: f64, ctx: &ProfileContext) -> f64 {
    let a = va.entries();
    let b = vb.entries();
    let mut i = 0;
    let mut j = 0;
    let mut sum = 0.0;
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let h = a[i].0;
                // `get` guards venues unseen at context-build time (possible
                // in the incremental setting).
                sum += ctx
                    .venue_aa_weight
                    .get(h as usize)
                    .copied()
                    .unwrap_or_else(crate::profile::unseen_venue_aa_weight);
                i += 1;
                j += 1;
            }
        }
    }
    sum / tau
}

#[cfg(test)]
mod tests {
    use super::*;
    use iuad_corpus::{Corpus, CorpusConfig, NameId};
    use rustc_hash::FxHashMap;

    fn setup() -> (Corpus, Scn) {
        let c = Corpus::generate(&CorpusConfig {
            num_authors: 250,
            num_papers: 1000,
            seed: 23,
            ..Default::default()
        });
        let scn = Scn::build(&c, 2);
        (c, scn)
    }

    fn an_ambiguous_pair(scn: &Scn) -> (VertexId, VertexId) {
        let vs = scn
            .by_name
            .values()
            .find(|vs| vs.len() >= 2)
            .expect("ambiguous name exists");
        (vs[0], vs[1])
    }

    #[test]
    fn similarity_vector_is_finite_and_bounded() {
        let (c, scn) = setup();
        let ctx = ProfileContext::build(&c, 16, 2);
        let eng = SimilarityEngine::build(&scn, &ctx, 0.62, 2, CacheScope::AmbiguousOnly);
        let mut checked = 0;
        for vs in scn.by_name.values().filter(|vs| vs.len() >= 2).take(20) {
            for i in 0..vs.len().min(4) {
                for j in (i + 1)..vs.len().min(4) {
                    let g = eng.similarity(&ctx, vs[i], vs[j]);
                    for (k, &x) in g.iter().enumerate() {
                        assert!(x.is_finite(), "γ{} not finite", k + 1);
                    }
                    assert!((0.0..=1.0).contains(&g[0]), "γ1 out of range: {}", g[0]);
                    assert!((-1.0..=1.0).contains(&g[2]), "γ3 out of range: {}", g[2]);
                    for &k in &[1usize, 3, 4, 5] {
                        assert!(g[k] >= 0.0, "γ{} negative: {}", k + 1, g[k]);
                    }
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "no ambiguous pairs exercised");
    }

    #[test]
    fn similarity_is_symmetric() {
        let (c, scn) = setup();
        let ctx = ProfileContext::build(&c, 16, 2);
        let eng = SimilarityEngine::build(&scn, &ctx, 0.62, 2, CacheScope::AmbiguousOnly);
        let (vi, vj) = an_ambiguous_pair(&scn);
        let a = eng.similarity(&ctx, vi, vj);
        let b = eng.similarity(&ctx, vj, vi);
        for k in 0..NUM_SIMILARITIES {
            assert!(
                (a[k] - b[k]).abs() < 1e-12,
                "γ{} asymmetric: {} vs {}",
                k + 1,
                a[k],
                b[k]
            );
        }
    }

    #[test]
    fn same_author_vertices_more_similar_than_different() {
        // Average γ over true-match pairs should exceed non-match pairs on
        // at least the content features — the signal GCN relies on.
        let (c, scn) = setup();
        let ctx = ProfileContext::build(&c, 16, 2);
        let eng = SimilarityEngine::build(&scn, &ctx, 0.62, 2, CacheScope::AmbiguousOnly);
        let mut same = [0.0f64; NUM_SIMILARITIES];
        let mut diff = [0.0f64; NUM_SIMILARITIES];
        let mut n_same = 0usize;
        let mut n_diff = 0usize;
        for vs in scn.by_name.values().filter(|vs| vs.len() >= 2) {
            for i in 0..vs.len() {
                for j in (i + 1)..vs.len() {
                    let truth_i = majority_truth(&c, &scn, vs[i]);
                    let truth_j = majority_truth(&c, &scn, vs[j]);
                    let g = eng.similarity(&ctx, vs[i], vs[j]);
                    if truth_i == truth_j {
                        for k in 0..NUM_SIMILARITIES {
                            same[k] += g[k];
                        }
                        n_same += 1;
                    } else {
                        for k in 0..NUM_SIMILARITIES {
                            diff[k] += g[k];
                        }
                        n_diff += 1;
                    }
                }
            }
        }
        assert!(
            n_same > 5 && n_diff > 5,
            "insufficient pairs: {n_same}/{n_diff}"
        );
        let mean = |acc: &[f64; NUM_SIMILARITIES], n: usize| {
            let mut m = *acc;
            m.iter_mut().for_each(|x| *x /= n as f64);
            m
        };
        let ms = mean(&same, n_same);
        let md = mean(&diff, n_diff);
        // γ3 (interest cosine) and γ6 (venues) must separate on topical data.
        assert!(ms[2] > md[2], "γ3: same {:.3} vs diff {:.3}", ms[2], md[2]);
        assert!(ms[5] > md[5], "γ6: same {:.3} vs diff {:.3}", ms[5], md[5]);
    }

    fn majority_truth(c: &Corpus, scn: &Scn, v: VertexId) -> u32 {
        let mut counts: FxHashMap<u32, usize> = FxHashMap::default();
        for m in &scn.graph.vertex(v).mentions {
            *counts.entry(c.truth_of(*m).0).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .max_by_key(|&(a, n)| (n, std::cmp::Reverse(a)))
            .map(|(a, _)| a)
            .unwrap()
    }

    #[test]
    fn gamma2_counts_shared_cliques() {
        let a = [(1, 2), (3, 4), (5, 6)];
        let b = [(3, 4), (5, 6), (7, 8)];
        assert_eq!(gamma2_cliques(&a, &b, 2.0), 1.0);
        assert_eq!(gamma2_cliques(&a, &[], 2.0), 0.0);
    }

    #[test]
    fn gamma4_decays_with_year_gap() {
        let (c, _) = setup();
        let ctx = ProfileContext::build(&c, 16, 2);
        let mk = |years: Vec<u16>| {
            let mut p = VertexProfile::from_mentions(NameId(0), &[], &ctx);
            p.keyword_years.insert(0, years);
            p.papers = vec![iuad_corpus::PaperId(0)];
            p
        };
        let base = mk(vec![2000]);
        let close = mk(vec![2001]);
        let far = mk(vec![2015]);
        let g_close = gamma4_time_consistency(&base, &close, 1.0, 0.62, &ctx);
        let g_far = gamma4_time_consistency(&base, &far, 1.0, 0.62, &ctx);
        assert!(g_close > g_far, "decay violated: {g_close} <= {g_far}");
    }

    #[test]
    fn min_year_gap_matches_nested_scan() {
        let cases: [(&[u16], &[u16]); 5] = [
            (&[2000], &[2010]),
            (&[1999, 2004, 2010], &[2002, 2003]),
            (&[1990, 2020], &[2000, 2001, 2002]),
            (&[2000, 2000], &[2000]),
            (&[1995], &[1990, 1996, 2005]),
        ];
        for (a, b) in cases {
            let brute = a
                .iter()
                .flat_map(|&x| b.iter().map(move |&y| x.abs_diff(y)))
                .min()
                .unwrap();
            assert_eq!(min_year_gap(a, b), brute, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn gamma5_counts_cross_representative_venues() {
        let (c, _) = setup();
        let ctx = ProfileContext::build(&c, 16, 2);
        let mut p1 = VertexProfile::from_mentions(NameId(0), &[], &ctx);
        let mut p2 = VertexProfile::from_mentions(NameId(0), &[], &ctx);
        p1.venue_counts.insert(3, 5);
        p1.representative_venue = Some(iuad_corpus::VenueId(3));
        p2.venue_counts.insert(3, 2);
        p2.representative_venue = Some(iuad_corpus::VenueId(3));
        // cnt(H2, rep1) + cnt(H1, rep2) = 2 + 5 = 7.
        assert_eq!(gamma5_representative(&p1, &p2, 1.0), 7.0);
    }

    #[test]
    fn gamma6_emphasises_rare_venues() {
        let (c, _) = setup();
        let ctx = ProfileContext::build(&c, 16, 2);
        let mut idx: Vec<usize> = (0..ctx.venue_freq.len()).collect();
        idx.sort_by_key(|&i| ctx.venue_freq[i]);
        let rare = idx[0] as u32;
        let common = *idx.last().unwrap() as u32;
        if ctx.venue_freq[rare as usize] == ctx.venue_freq[common as usize] {
            return; // degenerate corpus; nothing to compare
        }
        let mk = |venue: u32| {
            let mut p = VertexProfile::from_mentions(NameId(0), &[], &ctx);
            p.venue_counts.insert(venue, 1);
            p
        };
        let g_rare = gamma6_communities(&mk(rare), &mk(rare), 1.0, &ctx);
        let g_common = gamma6_communities(&mk(common), &mk(common), 1.0, &ctx);
        assert!(g_rare >= g_common);
    }

    #[test]
    fn synthetic_split_produces_high_similarity() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let (c, scn) = setup();
        let ctx = ProfileContext::build(&c, 16, 2);
        let eng = SimilarityEngine::build(&scn, &ctx, 0.62, 2, CacheScope::All);
        let mut rng = StdRng::seed_from_u64(3);
        // Pick a vertex with many papers.
        let big = scn
            .graph
            .vertices()
            .max_by_key(|(_, p)| p.mentions.len())
            .map(|(v, _)| v)
            .unwrap();
        let g = eng
            .synthetic_split_vector(&scn, &ctx, big, &mut rng)
            .expect("big vertex splittable");
        // A split of one real author should look strongly matched on
        // content: interests cosine near 1.
        assert!(g[2] > 0.5, "split halves should share interests: {g:?}");
    }

    #[test]
    fn split_requires_four_papers() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let (c, scn) = setup();
        let ctx = ProfileContext::build(&c, 16, 2);
        let eng = SimilarityEngine::build(&scn, &ctx, 0.62, 2, CacheScope::AmbiguousOnly);
        let mut rng = StdRng::seed_from_u64(3);
        let small = scn
            .graph
            .vertices()
            .find(|(_, p)| p.mentions.len() < 4)
            .map(|(v, _)| v)
            .unwrap();
        assert!(eng
            .synthetic_split_vector(&scn, &ctx, small, &mut rng)
            .is_none());
    }

    #[test]
    fn block_matches_per_pair_similarity_exactly() {
        let (c, scn) = setup();
        let ctx = ProfileContext::build(&c, 16, 2);
        let eng = SimilarityEngine::build(&scn, &ctx, 0.62, 2, CacheScope::AmbiguousOnly);
        let mut compared = 0usize;
        for vs in scn.by_name.values().filter(|vs| vs.len() >= 2) {
            let block = eng.similarity_block(&ctx, vs);
            let mut it = block.iter();
            for i in 0..vs.len() {
                for j in (i + 1)..vs.len() {
                    let per_pair = eng.similarity(&ctx, vs[i].min(vs[j]), vs[i].max(vs[j]));
                    // Bit-identical, not approximately equal: the batch
                    // path accumulates in the merge join's exact order.
                    assert_eq!(it.next().unwrap(), &per_pair, "pair {i},{j}");
                    compared += 1;
                }
            }
        }
        assert!(compared > 50, "too few pairs compared: {compared}");
    }

    #[test]
    fn absorb_drops_group_to_exact_full_evidence() {
        let (c, scn) = setup();
        let ctx = ProfileContext::build(&c, 16, 2);
        let mut eng = SimilarityEngine::build(&scn, &ctx, 0.62, 2, CacheScope::AmbiguousOnly);
        let vs = scn
            .by_name
            .values()
            .find(|vs| vs.len() >= 3)
            .expect("a 3+ group exists")
            .clone();
        let before: Vec<SimilarityVector> = vec![
            eng.similarity(&ctx, vs[0], vs[1]),
            eng.similarity(&ctx, vs[1], vs[2]),
        ];
        // Absorb a new paper's profile into vs[0]: its whole name group
        // falls back to full (unfiltered) evidence.
        let paper = &c.papers[0];
        let delta = VertexProfile::from_new_paper(scn.graph.vertex(vs[0]).name, paper, &ctx);
        eng.absorb(vs[0], &delta);
        // The absorb added no edge, so the absorbed vertex keeps its WL
        // cache: γ1 over full evidence equals γ1 over the group basis…
        let touched = eng.similarity(&ctx, vs[0], vs[1]);
        assert_eq!(
            touched[0].to_bits(),
            before[0][0].to_bits(),
            "γ1 must keep its pre-absorb bits"
        );
        // …and pairs among untouched members are *bit-identical* on the
        // full-evidence fallback — the group filter never changed a value.
        let untouched = eng.similarity(&ctx, vs[1], vs[2]);
        assert_eq!(untouched, before[1]);
    }

    /// Absorb `paper` (authored by `name` alone) into the network and
    /// engine under `decision`, registering it with the context first as
    /// the serving tier does.
    fn absorb_solo(
        scn: &mut Scn,
        ctx: &mut ProfileContext,
        eng: &mut SimilarityEngine,
        mut paper: iuad_corpus::Paper,
        name: NameId,
        decision: crate::Decision,
    ) -> VertexId {
        paper.id = iuad_corpus::PaperId(ctx.paper_years.len() as u32);
        paper.authors = vec![name];
        ctx.register_paper(&paper);
        let delta = VertexProfile::from_new_paper(name, &paper, ctx);
        crate::absorb_mention(scn, eng, &paper, 0, decision, &delta)
    }

    #[test]
    fn refresh_after_absorbs_matches_all_scope_rebuild() {
        let full = Corpus::generate(&CorpusConfig {
            num_authors: 250,
            num_papers: 1000,
            seed: 23,
            ..Default::default()
        });
        let (base, tail) = full.split_tail(2);
        let mut scn = Scn::build(&base, 2);
        let mut ctx = ProfileContext::build(&base, 16, 2);
        let mut eng = SimilarityEngine::build(&scn, &ctx, 0.62, 2, CacheScope::All);
        let seq = ParallelConfig::sequential();

        // A 2-member name group gains a third vertex, crossing the
        // join-evidence threshold.
        let pair_name = scn
            .by_name
            .iter()
            .filter(|(_, vs)| vs.len() == 2)
            .map(|(&n, _)| n)
            .min()
            .expect("a 2-member name group exists");
        let fresh = absorb_solo(
            &mut scn,
            &mut ctx,
            &mut eng,
            tail[0].0.clone(),
            pair_name,
            crate::Decision::NewAuthor { best_score: None },
        );
        // The highest-degree vertex absorbs a paper.
        let hub = scn
            .graph
            .vertices()
            .map(|(v, _)| v)
            .max_by_key(|&v| (scn.graph.degree(v), std::cmp::Reverse(v)))
            .expect("non-empty network");
        let hub_name = scn.graph.vertex(hub).name;
        absorb_solo(
            &mut scn,
            &mut ctx,
            &mut eng,
            tail[1].0.clone(),
            hub_name,
            crate::Decision::Existing {
                vertex: hub,
                score: 0.0,
            },
        );

        eng.refresh(&[fresh, hub], &scn, &scn.csr(), &ctx, &seq);
        let rebuilt = SimilarityEngine::build_parallel(&scn, &ctx, 0.62, 2, CacheScope::All, &seq);
        assert_eq!(eng.diff_from(&rebuilt), None);
        for &v in &scn.by_name[&pair_name] {
            assert!(
                eng.join[v.index()].is_some(),
                "grown group lacks join evidence"
            );
        }
    }

    #[test]
    fn startup_refresh_widens_a_fitted_engine_to_all_scope() {
        let (c, _) = setup();
        let iuad = crate::Iuad::fit(&c, &crate::IuadConfig::default());
        let all = SimilarityEngine::build(
            &iuad.network,
            &iuad.ctx,
            iuad.config.alpha,
            iuad.config.wl_iters,
            CacheScope::All,
        );
        let mut eng = iuad.engine().clone();
        assert!(eng.diff_from(&all).is_some(), "fit engine is not All-scope");
        eng.refresh(
            &[],
            &iuad.network,
            &iuad.network.csr(),
            &iuad.ctx,
            &ParallelConfig::sequential(),
        );
        assert_eq!(eng.diff_from(&all), None);
    }

    #[test]
    fn star_features_similar_for_shared_coauthors() {
        let (c, scn) = setup();
        let ctx = ProfileContext::build(&c, 16, 2);
        let eng = SimilarityEngine::build(&scn, &ctx, 0.62, 2, CacheScope::AmbiguousOnly);
        let f1 = eng.star_features(5, &[10, 11, 12]);
        let f2 = eng.star_features(5, &[10, 11, 12]);
        let f3 = eng.star_features(5, &[90, 91, 92]);
        assert!((normalized_kernel(&f1, &f2) - 1.0).abs() < 1e-12);
        assert!(normalized_kernel(&f1, &f3) < 1.0);
    }
}
