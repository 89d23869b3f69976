//! Frozen compressed-sparse-row (CSR) adjacency snapshot.
//!
//! [`AdjGraph`] stores adjacency as per-vertex `FxHashMap`s — the right
//! shape while a graph is under construction, but the wrong one for the
//! structural kernels that dominate similarity-engine builds: WL feature
//! extraction, triangle enumeration, and ego-ball BFS all want to *scan*
//! neighbourhoods, and collaboration networks are hub-heavy (scale-free),
//! so hash-probe adjacency and per-call sorted-neighbour allocation are
//! paid exactly where degrees are largest.
//!
//! [`Csr`] freezes a graph's structure once — offsets plus one contiguous,
//! per-row-sorted neighbour array — after which every neighbourhood is a
//! sorted slice: triangle intersection becomes a two-pointer merge join,
//! membership tests become binary searches, and BFS visited-sets become
//! epoch-stamped `Vec` marks instead of hash maps. The snapshot is
//! structure-only (no payloads) and does not track later mutations of the
//! source graph; rebuild it after structural changes.

use std::cell::RefCell;

use crate::graph::{AdjGraph, VertexId};

/// Frozen CSR adjacency: `neighbors(v)` is the ascending slice
/// `neighbors[offsets[v]..offsets[v + 1]]`.
#[derive(Debug, Clone)]
pub struct Csr {
    offsets: Vec<u32>,
    neighbors: Vec<VertexId>,
}

thread_local! {
    /// Epoch-stamped visited marks for [`Csr::ball`]: `marks[v] == epoch`
    /// means "visited during the current call". Reused across calls (and
    /// across graphs — the buffer only ever grows) so a ball never pays an
    /// O(n) clear, and thread-local so parallel engine builds share
    /// nothing.
    static BALL_MARKS: RefCell<(Vec<u32>, u32)> = const { RefCell::new((Vec::new(), 0)) };
}

impl Csr {
    /// Snapshot the structure of `g`.
    pub fn from_graph<V, E>(g: &AdjGraph<V, E>) -> Csr {
        let n = g.num_vertices();
        let mut offsets = vec![0u32; n + 1];
        for (u, v, _) in g.edges() {
            offsets[u.index() + 1] += 1;
            offsets[v.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut neighbors = vec![VertexId(0); offsets[n] as usize];
        for (u, v, _) in g.edges() {
            neighbors[cursor[u.index()] as usize] = v;
            cursor[u.index()] += 1;
            neighbors[cursor[v.index()] as usize] = u;
            cursor[v.index()] += 1;
        }
        for i in 0..n {
            neighbors[offsets[i] as usize..offsets[i + 1] as usize].sort_unstable();
        }
        Csr { offsets, neighbors }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// Neighbours of `v`, strictly ascending.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize]
    }

    /// True if `u—v` exists (binary search over the sorted row).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Vertices within `radius` hops of `v` (including `v`), ascending —
    /// the CSR counterpart of [`AdjGraph::ball`], with visited marks in a
    /// reused epoch-stamped `Vec` instead of a per-call hash map.
    pub fn ball(&self, v: VertexId, radius: usize) -> Vec<VertexId> {
        let mut out = Vec::new();
        self.ball_into(v, radius, &mut out);
        out
    }

    /// [`Self::ball`] into a caller-owned buffer (cleared first), so bulk
    /// extractions reuse one allocation across roots.
    pub fn ball_into(&self, v: VertexId, radius: usize, out: &mut Vec<VertexId>) {
        out.clear();
        BALL_MARKS.with(|cell| {
            let (marks, epoch) = &mut *cell.borrow_mut();
            if marks.len() < self.num_vertices() {
                marks.resize(self.num_vertices(), 0);
            }
            *epoch = epoch.wrapping_add(1);
            if *epoch == 0 {
                marks.fill(0);
                *epoch = 1;
            }
            let e = *epoch;
            out.push(v);
            marks[v.index()] = e;
            let mut frontier_start = 0;
            for _ in 0..radius {
                let frontier_end = out.len();
                if frontier_start == frontier_end {
                    break;
                }
                for i in frontier_start..frontier_end {
                    let u = out[i];
                    for &w in self.neighbors(u) {
                        if marks[w.index()] != e {
                            marks[w.index()] = e;
                            out.push(w);
                        }
                    }
                }
                frontier_start = frontier_end;
            }
            out.sort_unstable();
        });
    }

    /// Expand `seeds` by `radius` BFS hops, marking every reached vertex in
    /// `reached` (which must be `num_vertices` long; pre-set entries count
    /// as already-visited). The multi-source form the in-place engine
    /// refresh uses to mark the dirty region around touched vertices.
    pub fn mark_ball(&self, seeds: &[VertexId], radius: usize, reached: &mut [bool]) {
        assert_eq!(reached.len(), self.num_vertices());
        let mut frontier: Vec<VertexId> = Vec::with_capacity(seeds.len());
        for &v in seeds {
            reached[v.index()] = true;
            frontier.push(v);
        }
        for _ in 0..radius {
            let mut next = Vec::new();
            for &u in &frontier {
                for &w in self.neighbors(u) {
                    if !reached[w.index()] {
                        reached[w.index()] = true;
                        next.push(w);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AdjGraph<(), ()> {
        // Two triangles sharing vertex 2, plus a pendant at 5.
        let mut g = AdjGraph::new();
        let vs: Vec<VertexId> = (0..6).map(|_| g.add_vertex(())).collect();
        for &(a, b) in &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)] {
            g.upsert_edge(vs[a], vs[b], || (), |_| ());
        }
        g
    }

    #[test]
    fn rows_are_sorted_and_match_graph() {
        let g = sample();
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.num_vertices(), g.num_vertices());
        for (v, _) in g.vertices() {
            assert_eq!(csr.neighbors(v).to_vec(), g.sorted_neighbors(v));
            assert_eq!(csr.degree(v), g.degree(v));
            assert!(csr.neighbors(v).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn has_edge_agrees_with_graph() {
        let g = sample();
        let csr = Csr::from_graph(&g);
        for u in 0..6 {
            for v in 0..6 {
                let (u, v) = (VertexId(u), VertexId(v));
                if u != v {
                    assert_eq!(csr.has_edge(u, v), g.has_edge(u, v), "{u:?}-{v:?}");
                }
            }
        }
    }

    #[test]
    fn ball_matches_adjgraph_ball() {
        let g = sample();
        let csr = Csr::from_graph(&g);
        for v in 0..6 {
            for r in 0..4 {
                assert_eq!(
                    csr.ball(VertexId(v), r),
                    g.ball(VertexId(v), r),
                    "v={v} r={r}"
                );
            }
        }
    }

    #[test]
    fn mark_ball_is_union_of_balls() {
        let g = sample();
        let csr = Csr::from_graph(&g);
        let seeds = [VertexId(0), VertexId(5)];
        let mut reached = vec![false; csr.num_vertices()];
        csr.mark_ball(&seeds, 1, &mut reached);
        let mut expect = vec![false; csr.num_vertices()];
        for s in seeds {
            for v in g.ball(s, 1) {
                expect[v.index()] = true;
            }
        }
        assert_eq!(reached, expect);
    }

    #[test]
    fn empty_graph_snapshot() {
        let g: AdjGraph<(), ()> = AdjGraph::new();
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.num_vertices(), 0);
    }
}
