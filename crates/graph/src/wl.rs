//! Weisfeiler-Lehman subtree features and the normalised WL kernel
//! (Shervashidze et al., JMLR 2011), specialised to *vertex* similarity as
//! IUAD's γ₁ requires.
//!
//! Feature maps are built over a vertex's `h`-hop ego subgraph: run `h`
//! rounds of WL label refinement inside the subgraph and count every label
//! from every round. Labels are compressed by *stable hashing* of
//! `(label, neighbour-label multiset)` rather than a shared dictionary;
//! this keeps feature maps comparable across independently-extracted
//! subgraphs and across threads. The multiset folds in through a salted
//! commutative mix (see `compress`), so refinement performs no neighbour
//! sorting. Collisions are theoretically possible but vanishingly rare at
//! 64 bits, and only ever *raise* similarity marginally.
//!
//! Feature maps are [`SparseFeatures`] — label-sorted `(label, count)`
//! vectors with a precomputed L2 norm — so the kernel is a branch-friendly
//! merge join over two contiguous slices and the normalised kernel pays no
//! self-kernel passes. On the candidate-pair hot path this replaces 2+ hash
//! probes per shared label (and two full hash-map iterations for the norms)
//! with sequential memory reads.

use std::cell::RefCell;

use crate::csr::Csr;
use crate::graph::{AdjGraph, VertexId};

/// Sparse WL feature vector in struct-of-arrays layout: strictly ascending
/// `labels` with `counts` parallel to them, plus the precomputed L2 norm of
/// the counts.
///
/// The split layout keeps the kernel's merge join scanning a contiguous
/// `u64` array (half the memory traffic of `(u64, u32)` pairs padded to 16
/// bytes); counts are only touched on a label match, which is the rare case
/// between distinct vertices.
///
/// Invariants: `labels` is strictly ascending, `counts.len() ==
/// labels.len()`, and `norm == sqrt(Σ count²)`. All are established by
/// every constructor.
#[derive(Debug, Clone, Default)]
pub struct SparseFeatures {
    labels: Vec<u64>,
    counts: Vec<u32>,
    norm: f64,
}

impl PartialEq for SparseFeatures {
    fn eq(&self, other: &Self) -> bool {
        // The norm is derived from the entries, so it carries no extra
        // information — comparing it would only trip on f64 rounding.
        self.labels == other.labels && self.counts == other.counts
    }
}

impl SparseFeatures {
    /// Build from an arbitrary multiset of labels: sort and run-length
    /// encode. This is the producer-side path (`vertex_features` collects
    /// every label of every refinement round into one buffer).
    pub fn from_labels(mut raw: Vec<u64>) -> Self {
        raw.sort_unstable();
        Self::from_sorted_labels(&raw)
    }

    /// Run-length encode an already ascending label multiset. Two passes:
    /// count the distinct labels first so the output vectors are allocated
    /// exactly once at their final size (these vectors live for the whole
    /// engine lifetime, so no growth slack is carried either).
    fn from_sorted_labels(sorted: &[u64]) -> Self {
        debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        if sorted.is_empty() {
            return SparseFeatures::default();
        }
        let distinct = 1 + sorted.windows(2).filter(|w| w[0] != w[1]).count();
        let mut labels: Vec<u64> = Vec::with_capacity(distinct);
        let mut counts: Vec<u32> = Vec::with_capacity(distinct);
        for &l in sorted {
            if labels.last() == Some(&l) {
                *counts.last_mut().unwrap() += 1;
            } else {
                labels.push(l);
                counts.push(1);
            }
        }
        Self::seal(labels, counts)
    }

    /// Build from `(label, count)` pairs in any order; duplicate labels are
    /// summed. Useful for constructing reference inputs in tests.
    pub fn from_counts(pairs: impl IntoIterator<Item = (u64, u32)>) -> Self {
        let mut pairs: Vec<(u64, u32)> = pairs.into_iter().collect();
        pairs.sort_unstable();
        let mut labels: Vec<u64> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        for (l, c) in pairs {
            if labels.last() == Some(&l) {
                *counts.last_mut().unwrap() += c;
            } else {
                labels.push(l);
                counts.push(c);
            }
        }
        Self::seal(labels, counts)
    }

    /// Seal label-sorted, duplicate-free parallel arrays with their norm.
    fn seal(labels: Vec<u64>, counts: Vec<u32>) -> Self {
        debug_assert_eq!(labels.len(), counts.len());
        debug_assert!(labels.windows(2).all(|w| w[0] < w[1]));
        let norm = counts
            .iter()
            .map(|&c| f64::from(c) * f64::from(c))
            .sum::<f64>()
            .sqrt();
        SparseFeatures {
            labels,
            counts,
            norm,
        }
    }

    /// Number of distinct labels.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the feature vector is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Total label occurrences (the multiset cardinality).
    pub fn total_count(&self) -> u64 {
        self.counts.iter().map(|&c| u64::from(c)).sum()
    }

    /// Precomputed L2 norm `sqrt(K(self, self))`.
    pub fn norm(&self) -> f64 {
        self.norm
    }

    /// The strictly ascending labels.
    pub fn labels(&self) -> &[u64] {
        &self.labels
    }

    /// Counts parallel to [`Self::labels`].
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Iterate `(label, count)` in ascending label order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.labels.iter().copied().zip(self.counts.iter().copied())
    }

    /// A join-optimised copy that keeps only the entries whose label is in
    /// the ascending list `keep`, while *retaining `self`'s norm*. Found via
    /// [`join_ascending`], so an empty or near-empty `keep` set, the common
    /// case for group-shared evidence, costs next to nothing.
    ///
    /// This is the one constructor that intentionally breaks the
    /// `norm == sqrt(Σ count²)` invariant: when `keep` drops only labels
    /// that provably cannot occur in any join partner (e.g. labels held by
    /// one member of a name group), [`kernel`] over two such copies returns
    /// the exact dot product of the originals, and [`normalized_kernel`]
    /// still normalises by the full self-kernels — bit-identical results
    /// from a fraction of the scan length.
    pub fn intersect_labels(&self, keep: &[u64]) -> SparseFeatures {
        let mut labels = Vec::new();
        let mut counts = Vec::new();
        join_ascending(&self.labels, keep, |i| {
            labels.push(self.labels[i]);
            counts.push(self.counts[i]);
        });
        SparseFeatures {
            labels,
            counts,
            norm: self.norm,
        }
    }
}

/// Stable 64-bit finaliser (splitmix64): full-avalanche in three multiply
/// rounds — one shot per label instead of FNV-1a's eight byte rounds.
#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d049bb133111eb);
    x ^= x >> 31;
    x
}

/// Salt separating a vertex's *own* label from its neighbour multiset.
const CENTER_SALT: u64 = 0x9e3779b97f4a7c15;
/// Salt separating raw initial labels from compressed round labels.
const INIT_SALT: u64 = 0xc2b2ae3d27d4eb4f;

/// Hash a raw initial label into the label space.
#[inline]
fn init_hash(raw: u64) -> u64 {
    mix(raw ^ INIT_SALT)
}

/// Compress `(label, neighbour-label multiset)` into a new label; the
/// multiset arrives as per-label [`mix`] values (callers hoist the mix out
/// of the edge loop, since one member's mix is consumed once per incident
/// edge).
///
/// The neighbour multiset folds in through a *commutative* combine — a
/// wrapping sum of per-label mixes, finalised by one more mix to break the
/// additive structure — so no per-vertex neighbour sort is needed and the
/// result is invariant to gather order by construction. Two multisets
/// collide only when their mix-sums collide (~2⁻⁶⁴, the same regime as any
/// 64-bit label hash); a collision only ever *raises* γ₁ marginally.
#[inline]
fn compress(label: u64, mixed_neighbour_labels: impl Iterator<Item = u64>) -> u64 {
    let mut acc = mix(label ^ CENTER_SALT);
    for m in mixed_neighbour_labels {
        acc = acc.wrapping_add(m);
    }
    mix(acc)
}

/// WL subtree features of the `h`-hop ego subgraph around `root`.
///
/// `init_label(v)` supplies initial labels — IUAD uses the co-author *name*
/// so that structurally similar neighbourhoods over the same collaborators
/// match ("the number of occurrences of co-authors", §V-B1).
pub fn vertex_features<V, E>(
    g: &AdjGraph<V, E>,
    root: VertexId,
    h: usize,
    init_label: impl Fn(VertexId) -> u64,
) -> SparseFeatures {
    let ball = g.ball(root, h);
    // Dense index for the subgraph, flattened into the CSR-shaped rows the
    // shared refinement core consumes.
    let index: rustc_hash::FxHashMap<VertexId, u32> = ball
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as u32))
        .collect();
    let mut adj_off: Vec<u32> = Vec::with_capacity(ball.len() + 1);
    let mut adj_dat: Vec<u32> = Vec::new();
    adj_off.push(0);
    let mut row: Vec<u32> = Vec::new();
    for &v in &ball {
        row.clear();
        row.extend(g.neighbors(v).filter_map(|(w, _)| index.get(&w).copied()));
        row.sort_unstable();
        adj_dat.extend_from_slice(&row);
        adj_off.push(adj_dat.len() as u32);
    }
    let mut bufs = WlBuffers::default();
    refine_flat(&ball, &adj_off, &adj_dat, h, init_label, &mut bufs)
}

/// Reusable working memory for [`refine_flat`]: label rounds, the flat
/// label multiset, the per-round mixed-label cache, and the bucket-sort
/// scratch.
#[derive(Debug, Default)]
struct WlBuffers {
    labels: Vec<u64>,
    next: Vec<u64>,
    all: Vec<u64>,
    mixed: Vec<u64>,
    sort_scratch: Vec<u64>,
}

/// Sort a buffer of label hashes ascending. Labels are uniform 64-bit mix
/// outputs, so one most-significant-byte counting scatter leaves ~n/256
/// elements per bucket — each then a near-trivial comparison sort — which
/// beats a general comparison sort well before n = 256. Produces exactly
/// the ascending order `sort_unstable` would (u64 order is total; ties are
/// equal values, so instability is unobservable).
fn sort_label_hashes(all: &mut [u64], scratch: &mut Vec<u64>) {
    let n = all.len();
    if n < 128 {
        all.sort_unstable();
        return;
    }
    let mut counts = [0u32; 256];
    for &x in all.iter() {
        counts[(x >> 56) as usize] += 1;
    }
    let mut starts = [0u32; 256];
    let mut acc = 0u32;
    for (s, &c) in starts.iter_mut().zip(&counts) {
        *s = acc;
        acc += c;
    }
    scratch.clear();
    scratch.resize(n, 0);
    let mut cursor = starts;
    for &x in all.iter() {
        let b = (x >> 56) as usize;
        scratch[cursor[b] as usize] = x;
        cursor[b] += 1;
    }
    for b in 0..256 {
        scratch[starts[b] as usize..cursor[b] as usize].sort_unstable();
    }
    all.copy_from_slice(scratch);
}

/// One thread's scratch for bulk CSR feature extraction: the ball buffer,
/// the ball-position map (`pos[v] = index-in-ball + 1`, `0` = absent,
/// un-marked after each extraction), the flattened induced-adjacency rows,
/// and the refinement buffers. Reused across calls so an extraction
/// performs no per-vertex allocation beyond its output — the constant
/// factor that matters when engine builds extract features for thousands
/// of vertices whose 2-hop balls overlap heavily.
#[derive(Debug, Default)]
struct CsrScratch {
    ball: Vec<VertexId>,
    pos: Vec<u32>,
    adj_off: Vec<u32>,
    adj_dat: Vec<u32>,
    bufs: WlBuffers,
}

thread_local! {
    static CSR_SCRATCH: RefCell<CsrScratch> = RefCell::new(CsrScratch::default());
}

/// [`vertex_features`] over a frozen [`Csr`] snapshot — the bulk path
/// engine builds use.
///
/// Ball discovery and induced-adjacency construction are *fused* into one
/// BFS: every neighbour of a member at depth < `h` is itself inside the
/// ball (triangle inequality), so scanning such a member's row both
/// extends the frontier and records its complete adjacency row — each
/// interior row is read exactly once. Only the boundary shell (depth
/// exactly `h`) needs a membership-filtered scan. Ball indices are
/// assigned in discovery order and never sorted: the refinement combine
/// is commutative and the final label multiset is sorted anyway, so the
/// result is bit-identical to the order-independent [`vertex_features`]
/// over the same graph (every label is a pure function of names and
/// structure). All working memory is thread-local and reused, so an
/// extraction allocates nothing beyond its output.
pub fn vertex_features_csr(
    csr: &Csr,
    root: VertexId,
    h: usize,
    init_label: impl Fn(VertexId) -> u64,
) -> SparseFeatures {
    CSR_SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        if s.pos.len() < csr.num_vertices() {
            s.pos.resize(csr.num_vertices(), 0);
        }
        s.ball.clear();
        s.adj_off.clear();
        s.adj_dat.clear();
        s.adj_off.push(0);
        s.ball.push(root);
        s.pos[root.index()] = 1;
        // Interior rounds: members at depth < h; their full rows are
        // in-ball, so every scanned entry lands in the adjacency.
        let mut start = 0usize;
        for _ in 0..h {
            let end = s.ball.len();
            if start == end {
                break;
            }
            for i in start..end {
                let u = s.ball[i];
                for &w in csr.neighbors(u) {
                    let p = s.pos[w.index()];
                    let idx = if p == 0 {
                        s.ball.push(w);
                        let next = s.ball.len() as u32;
                        s.pos[w.index()] = next;
                        next - 1
                    } else {
                        p - 1
                    };
                    s.adj_dat.push(idx);
                }
                s.adj_off.push(s.adj_dat.len() as u32);
            }
            start = end;
        }
        // Boundary shell: depth exactly h; keep only marked neighbours.
        // Membership is data-dependent and unpredictable, so the filter is
        // branchless: write the candidate unconditionally, advance the
        // cursor only on a hit.
        for i in start..s.ball.len() {
            let u = s.ball[i];
            let row = csr.neighbors(u);
            let base = s.adj_dat.len();
            s.adj_dat.resize(base + row.len(), 0);
            let mut k = base;
            for &w in row {
                let p = s.pos[w.index()];
                s.adj_dat[k] = p.wrapping_sub(1);
                k += usize::from(p != 0);
            }
            s.adj_dat.truncate(k);
            s.adj_off.push(k as u32);
        }
        // Un-mark (only the touched entries) so the map is all-zero for
        // the next extraction.
        for &v in &s.ball {
            s.pos[v.index()] = 0;
        }
        refine_flat(&s.ball, &s.adj_off, &s.adj_dat, h, init_label, &mut s.bufs)
    })
}

/// The shared WL refinement core: `h` rounds over an extracted ego
/// subgraph in flattened CSR shape (`adj_dat[adj_off[i]..adj_off[i + 1]]`
/// holds vertex `i`'s ball-index neighbours, ascending), counting every
/// label of every round.
fn refine_flat(
    ball: &[VertexId],
    adj_off: &[u32],
    adj_dat: &[u32],
    h: usize,
    init_label: impl Fn(VertexId) -> u64,
    bufs: &mut WlBuffers,
) -> SparseFeatures {
    let WlBuffers {
        labels,
        next,
        all,
        mixed,
        sort_scratch,
    } = bufs;
    labels.clear();
    // Salt initial labels through the mix so that raw ids don't collide
    // with compressed labels from later iterations.
    labels.extend(ball.iter().map(|&v| init_hash(init_label(v))));

    // Every label of every round lands in one flat buffer; sorting it once
    // at the end replaces per-label hash-map upserts.
    all.clear();
    all.extend_from_slice(labels);
    for _ in 0..h {
        // Each member's mix is consumed once per incident edge; hoisting it
        // out of the edge loop leaves one load-and-add per edge — the same
        // u64 sum [`compress`] folds, term for term.
        mixed.clear();
        mixed.extend(labels.iter().map(|&l| mix(l)));
        next.clear();
        for (i, &l) in labels.iter().enumerate() {
            let row = &adj_dat[adj_off[i] as usize..adj_off[i + 1] as usize];
            next.push(compress(l, row.iter().map(|&j| mixed[j as usize])));
        }
        std::mem::swap(labels, next);
        all.extend_from_slice(labels);
    }
    sort_label_hashes(all, sort_scratch);
    SparseFeatures::from_sorted_labels(all)
}

/// Below this size ratio the kernel scans both sides linearly; above it,
/// it gallops through the larger side instead.
const GALLOP_RATIO: usize = 16;

/// Adaptive ascending-key intersection: invoke `on_match(i)` for every
/// index `i` of `keys` whose value also occurs in `keep` (both strictly
/// ascending), in ascending order. A two-pointer merge join for
/// comparable sizes; gallops through `keys` when `keep` is ≥
/// `GALLOP_RATIO`× smaller, so an empty `keep` costs nothing. The one
/// definition behind every payload-carrying sorted intersection
/// (WL-label, keyword, venue, triangle evidence filters), so the gallop
/// edge cases live in exactly one place.
pub fn join_ascending<T: Ord + Copy>(keys: &[T], keep: &[T], mut on_match: impl FnMut(usize)) {
    if keep.len().saturating_mul(GALLOP_RATIO) < keys.len() {
        let mut lo = 0usize;
        for &k in keep {
            let idx = lo + keys[lo..].partition_point(|&x| x < k);
            if idx >= keys.len() {
                break;
            }
            if keys[idx] == k {
                on_match(idx);
                lo = idx + 1;
            } else {
                lo = idx;
            }
        }
    } else {
        let (mut i, mut j) = (0, 0);
        while i < keys.len() && j < keep.len() {
            let (x, y) = (keys[i], keep[j]);
            if x == y {
                on_match(i);
                i += 1;
                j += 1;
            } else {
                // Branchless advance: exactly one side moves.
                i += usize::from(x < y);
                j += usize::from(y < x);
            }
        }
    }
}

/// Sparse dot product of two feature vectors — the (un-normalised) WL
/// kernel — as a two-pointer merge join over the label-sorted arrays.
///
/// Matches between *different* vertices are rare (refined WL labels encode
/// whole subtree shapes), so the join is written for the mismatch case: a
/// branchless advance over the label arrays, and a galloping (binary
/// probing) variant when one side is ≥ `GALLOP_RATIO`× larger — the
/// hub-versus-singleton shape common in same-name candidate sets. Shared
/// labels are accumulated in ascending order in every path, so all
/// variants produce bit-identical sums.
pub fn kernel(a: &SparseFeatures, b: &SparseFeatures) -> f64 {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.len().saturating_mul(GALLOP_RATIO) < large.len() {
        return kernel_gallop(small, large);
    }
    let (la, lb) = (a.labels.as_slice(), b.labels.as_slice());
    let mut i = 0;
    let mut j = 0;
    let mut dot = 0.0;
    while i < la.len() && j < lb.len() {
        let (x, y) = (la[i], lb[j]);
        if x == y {
            dot += f64::from(a.counts[i]) * f64::from(b.counts[j]);
            i += 1;
            j += 1;
        } else {
            // Branchless advance: exactly one side moves.
            i += usize::from(x < y);
            j += usize::from(y < x);
        }
    }
    dot
}

/// Kernel for heavily skewed sizes: for each label of `small`, gallop the
/// remaining suffix of `large` by binary search.
fn kernel_gallop(small: &SparseFeatures, large: &SparseFeatures) -> f64 {
    let mut lo = 0usize;
    let mut dot = 0.0;
    for (i, &l) in small.labels.iter().enumerate() {
        let idx = lo + large.labels[lo..].partition_point(|&x| x < l);
        if idx == large.labels.len() {
            break;
        }
        if large.labels[idx] == l {
            dot += f64::from(small.counts[i]) * f64::from(large.counts[idx]);
            lo = idx + 1;
        } else {
            lo = idx;
        }
    }
    dot
}

/// Normalised WL kernel: `K(a,b) / sqrt(K(a,a) K(b,b))` ∈ [0, 1]
/// (Equation 4; normalisation per Ah-Pine 2010). The self-kernels come from
/// the precomputed norms, so this is one merge join and one division.
pub fn normalized_kernel(a: &SparseFeatures, b: &SparseFeatures) -> f64 {
    if a.norm() == 0.0 || b.norm() == 0.0 {
        return 0.0;
    }
    (kernel(a, b) / (a.norm() * b.norm())).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Star graph: center 0 with `n` leaves labelled distinctly.
    fn star(n: usize) -> AdjGraph<(), ()> {
        let mut g = AdjGraph::new();
        let c = g.add_vertex(());
        for _ in 0..n {
            let v = g.add_vertex(());
            g.upsert_edge(c, v, || (), |_| ());
        }
        g
    }

    #[test]
    fn identical_structure_gives_kernel_one() {
        // Two disjoint, isomorphic stars with matching labels.
        let mut g: AdjGraph<(), ()> = AdjGraph::new();
        let mut mk_star = |labels: &[u64]| {
            let c = g.add_vertex(());
            let mut ids = vec![c];
            for _ in labels.iter().skip(1) {
                let v = g.add_vertex(());
                g.upsert_edge(c, v, || (), |_| ());
                ids.push(v);
            }
            ids
        };
        let s1 = mk_star(&[7, 1, 2, 3]);
        let s2 = mk_star(&[7, 1, 2, 3]);
        // Label by position within the star so the stars are label-isomorphic.
        let label = |v: VertexId| -> u64 {
            let pos1 = s1.iter().position(|&x| x == v);
            let pos2 = s2.iter().position(|&x| x == v);
            pos1.or(pos2).unwrap() as u64
        };
        let f1 = vertex_features(&g, s1[0], 2, label);
        let f2 = vertex_features(&g, s2[0], 2, label);
        assert_eq!(f1, f2);
        assert!((normalized_kernel(&f1, &f2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn different_neighbourhoods_score_below_one() {
        let g = star(4);
        // Root vs leaf have different neighbourhood structure.
        let f_center = vertex_features(&g, VertexId(0), 2, |v| v.0 as u64);
        let f_leaf = vertex_features(&g, VertexId(1), 2, |v| v.0 as u64);
        let k = normalized_kernel(&f_center, &f_leaf);
        assert!(k < 1.0, "k = {k}");
        assert!(k >= 0.0);
    }

    #[test]
    fn zero_iterations_counts_initial_labels_only() {
        let g = star(3);
        let f = vertex_features(&g, VertexId(0), 0, |_| 5);
        // 0-hop ball = just the root.
        assert_eq!(f.total_count(), 1);
    }

    #[test]
    fn kernel_symmetry() {
        let g = star(5);
        let f1 = vertex_features(&g, VertexId(0), 2, |v| v.0 as u64 % 3);
        let f2 = vertex_features(&g, VertexId(2), 2, |v| v.0 as u64 % 3);
        assert_eq!(kernel(&f1, &f2), kernel(&f2, &f1));
        assert_eq!(normalized_kernel(&f1, &f2), normalized_kernel(&f2, &f1));
    }

    #[test]
    fn empty_features_yield_zero() {
        let empty = SparseFeatures::default();
        let g = star(2);
        let f = vertex_features(&g, VertexId(0), 1, |v| v.0 as u64);
        assert_eq!(normalized_kernel(&empty, &f), 0.0);
    }

    #[test]
    fn norm_is_self_kernel_sqrt() {
        let g = star(6);
        let f = vertex_features(&g, VertexId(0), 2, |v| v.0 as u64 % 4);
        assert!((f.norm() - kernel(&f, &f).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn from_counts_merges_duplicates() {
        let a = SparseFeatures::from_counts([(3, 1), (1, 2), (3, 4)]);
        let b = SparseFeatures::from_counts([(1, 2), (3, 5)]);
        assert_eq!(a, b);
        assert_eq!(a.total_count(), 7);
    }

    #[test]
    fn csr_features_match_adjgraph_features() {
        // Deterministic pseudo-random graph with repeated labels so WL
        // refinement exercises collisions and multi-hop structure.
        let mut g: AdjGraph<(), ()> = AdjGraph::new();
        let n = 40usize;
        let vs: Vec<VertexId> = (0..n).map(|_| g.add_vertex(())).collect();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..3 * n {
            let (a, b) = ((next() as usize) % n, (next() as usize) % n);
            if a != b {
                g.upsert_edge(vs[a], vs[b], || (), |_| ());
            }
        }
        let csr = Csr::from_graph(&g);
        let label = |v: VertexId| u64::from(v.0 % 7);
        for &v in &vs {
            for h in 0..=3 {
                let adj = vertex_features(&g, v, h, label);
                let via_csr = vertex_features_csr(&csr, v, h, label);
                assert_eq!(adj, via_csr, "v={v:?} h={h}");
                assert_eq!(adj.norm().to_bits(), via_csr.norm().to_bits());
            }
        }
    }

    #[test]
    fn shared_collaborators_raise_similarity() {
        // Two centers sharing leaves (same labels) vs disjoint labels.
        let mut g: AdjGraph<(), ()> = AdjGraph::new();
        let a = g.add_vertex(()); // center A
        let b = g.add_vertex(()); // center B, shares leaf labels with A
        let c = g.add_vertex(()); // center C, distinct leaf labels
        for i in 0..3 {
            let v1 = g.add_vertex(());
            g.upsert_edge(a, v1, || (), |_| ());
            let v2 = g.add_vertex(());
            g.upsert_edge(b, v2, || (), |_| ());
            let v3 = g.add_vertex(());
            g.upsert_edge(c, v3, || (), |_| ());
            let _ = i;
        }
        // Labels: A and B's i-th leaves share label 100+i; C's leaves 200+i.
        let label = |v: VertexId| -> u64 {
            match v.0 {
                0..=2 => 0, // all centers share the (same-name) label
                x if x % 3 == 0 => 100 + (x as u64 / 3),
                x if x % 3 == 1 => 100 + (x as u64 / 3),
                x => 200 + (x as u64 / 3),
            }
        };
        let fa = vertex_features(&g, a, 2, label);
        let fb = vertex_features(&g, b, 2, label);
        let fc = vertex_features(&g, c, 2, label);
        let k_ab = normalized_kernel(&fa, &fb);
        let k_ac = normalized_kernel(&fa, &fc);
        assert!(
            k_ab > k_ac,
            "shared-collaborator kernel {k_ab} should beat disjoint {k_ac}"
        );
    }
}
