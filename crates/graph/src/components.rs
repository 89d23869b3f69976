//! Connected components via BFS.

use crate::graph::{AdjGraph, VertexId};

/// Assign each vertex a component id in `0..k`; ids are dense and ordered by
/// the smallest vertex in each component. Returns `(assignment, k)`.
pub fn connected_components<V, E>(g: &AdjGraph<V, E>) -> (Vec<u32>, usize) {
    let n = g.num_vertices();
    let mut comp = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if comp[start] != u32::MAX {
            continue;
        }
        comp[start] = next;
        queue.push_back(VertexId::from(start));
        while let Some(v) = queue.pop_front() {
            for (w, _) in g.neighbors(v) {
                if comp[w.index()] == u32::MAX {
                    comp[w.index()] = next;
                    queue.push_back(w);
                }
            }
        }
        next += 1;
    }
    (comp, next as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_components() {
        let mut g: AdjGraph<(), ()> = AdjGraph::new();
        let vs: Vec<VertexId> = (0..5).map(|_| g.add_vertex(())).collect();
        g.upsert_edge(vs[0], vs[1], || (), |_| ());
        g.upsert_edge(vs[3], vs[4], || (), |_| ());
        let (comp, k) = connected_components(&g);
        assert_eq!(k, 3); // {0,1}, {2}, {3,4}
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[2]);
        assert_ne!(comp[0], comp[3]);
    }

    #[test]
    fn empty_graph() {
        let g: AdjGraph<(), ()> = AdjGraph::new();
        let (comp, k) = connected_components(&g);
        assert!(comp.is_empty());
        assert_eq!(k, 0);
    }

    #[test]
    fn members_partition_vertices() {
        let mut g: AdjGraph<(), ()> = AdjGraph::new();
        for _ in 0..4 {
            g.add_vertex(());
        }
        g.upsert_edge(VertexId(1), VertexId(2), || (), |_| ());
        // Ids are dense and ordered by each component's smallest vertex.
        assert_eq!(connected_components(&g), (vec![0, 1, 1, 2], 3));
    }
}
