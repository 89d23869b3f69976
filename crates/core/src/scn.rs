//! Stage 1: Stable Collaboration Network construction (§IV).
//!
//! The SCN assigns every author mention to a vertex. Mentions covered by an
//! η-SCR collapse into shared "stable" vertices (all papers co-authored by a
//! frequently-collaborating name pair are one author on each side); the
//! triangle rule additionally merges SCR endpoints that close a stable
//! triangle. Everything else stays a singleton vertex — the bottom-up
//! default that all same-name authors are distinct.

use rustc_hash::FxHashMap;

use iuad_corpus::{Corpus, Mention, NameId, PaperId};
use iuad_fpgrowth::pairs::frequent_pairs;
use iuad_graph::{AdjGraph, UnionFind, VertexId};
use iuad_par::ParallelConfig;

/// A hypothesised author: a name plus the mentions attributed to it.
#[derive(Debug, Clone)]
pub struct ScnVertex {
    /// The (ambiguous) name this vertex publishes under.
    pub name: NameId,
    /// Mentions assigned to this vertex, in (paper, slot) order.
    pub mentions: Vec<Mention>,
}

impl ScnVertex {
    /// Papers of this vertex (mention papers, deduplicated, ascending).
    pub fn papers(&self) -> Vec<PaperId> {
        let mut ps: Vec<PaperId> = self.mentions.iter().map(|m| m.paper).collect();
        ps.sort_unstable();
        ps.dedup();
        ps
    }
}

/// Edge payload: the papers both endpoints co-authored (`P_uv` of
/// Definition 1) and, if the endpoint names form an η-SCR, its support.
#[derive(Debug, Clone, Default)]
pub struct EdgeData {
    /// Papers shared by the two endpoint vertices.
    pub papers: Vec<PaperId>,
    /// η-SCR support of the endpoint *name* pair; 0 for recovered
    /// (non-stable) relations.
    pub scr_support: u32,
}

/// The stable collaboration network.
#[derive(Debug, Clone)]
pub struct Scn {
    /// The collaboration graph. Edges cover *all* per-paper collaborations
    /// (Definition 1); stable ones carry `scr_support > 0`.
    pub graph: AdjGraph<ScnVertex, EdgeData>,
    /// Mention → vertex assignment (total: every corpus mention appears).
    pub assignment: FxHashMap<Mention, VertexId>,
    /// Vertices grouped by name (ascending vertex id).
    pub by_name: FxHashMap<NameId, Vec<VertexId>>,
    /// Mined η-SCRs: `(name_a, name_b)` with `a < b` → support.
    pub scrs: FxHashMap<(u32, u32), u32>,
    /// The support threshold η used.
    pub eta: u32,
}

impl Scn {
    /// Build the SCN from a corpus with support threshold `eta` (η ≥ 2;
    /// η = 1 would declare every co-authorship stable and collapse the
    /// bottom-up premise). Fully sequential; see [`Scn::build_parallel`].
    pub fn build(corpus: &Corpus, eta: u32) -> Scn {
        Self::build_parallel(corpus, eta, &ParallelConfig::sequential())
    }

    /// [`Scn::build`] with the per-paper preprocessing fanned across
    /// `par.threads` workers. SCR insertion and mention assignment stay
    /// sequential (they fold into shared union-find state in a
    /// deterministic order), so the network is identical at any thread
    /// count.
    pub fn build_parallel(corpus: &Corpus, eta: u32, par: &ParallelConfig) -> Scn {
        let mine = ScnMine::build(corpus, eta, par);
        let scan = mine.scan_mentions(corpus);
        mine.assemble(corpus, scan)
    }

    /// Freeze this network's adjacency as a [`iuad_graph::Csr`] snapshot —
    /// built once per engine build or epoch publish so the structural
    /// kernels (WL, triangles) walk contiguous sorted memory. The snapshot
    /// does not track later mutations (e.g. [`crate::Iuad::ingest`]
    /// appending vertices).
    pub fn csr(&self) -> iuad_graph::Csr {
        self.graph.csr()
    }

    /// Predicted cluster labels for all mentions of `name`, parallel to
    /// `corpus.mentions_of_name(name)`.
    pub fn labels_of_name(&self, corpus: &Corpus, name: NameId) -> Vec<usize> {
        corpus
            .mentions_of_name(name)
            .iter()
            .map(|m| self.assignment[m].index())
            .collect()
    }
}

/// The global (cross-name) part of SCN construction: mined η-SCRs plus the
/// realised proto graph from the stable-triangle fold, which the
/// per-mention coverage scan (`ScnMine::scan_mentions`) reads.
pub(crate) struct ScnMine {
    /// Per-paper sorted, deduplicated author-name lists.
    name_lists: Vec<Vec<u32>>,
    /// Mined η-SCRs: `(name_a, name_b)` with `a < b` → support.
    scrs: FxHashMap<(u32, u32), u32>,
    /// Each SCR's realised proto edge, oriented (vertex-of-a, vertex-of-b).
    scr_edge: FxHashMap<(u32, u32), (VertexId, VertexId)>,
    /// Number of proto vertices the triangle fold created.
    num_proto: usize,
    eta: u32,
}

/// The mention-assignment output: raw proto assignments, proof unions
/// between same-name proto vertices, and the uncovered singletons.
pub(crate) struct MentionScan {
    /// Covered mention → proto vertex id.
    raw: Vec<(Mention, usize)>,
    /// Same-name proto vertices proven identical by a shared mention.
    pending_unions: Vec<(usize, usize)>,
    /// Mentions no SCR covers (future singleton vertices), in scan order.
    uncovered: Vec<Mention>,
}

impl ScnMine {
    /// η-SCR mining plus the sequential SCR-insertion fold with the
    /// stable-triangle rule. The fold walks SCRs strongest-first across
    /// *all* names (a triangle can span any three names).
    fn build(corpus: &Corpus, eta: u32, par: &ParallelConfig) -> ScnMine {
        assert!(eta >= 2, "eta must be at least 2");
        // --- η-SCR mining (frequent 2-itemsets over co-author lists) -----
        let name_lists: Vec<Vec<u32>> = iuad_par::parallel_map(par, &corpus.papers, |p| {
            let mut l: Vec<u32> = p.authors.iter().map(|n| n.0).collect();
            l.sort_unstable();
            l.dedup();
            l
        });
        let scrs = frequent_pairs(name_lists.iter().map(Vec::as_slice), eta);

        // --- SCR insertion with the stable-triangle rule ------------------
        // Proto graph: one vertex per (name, stable author hypothesis).
        let mut proto: AdjGraph<NameId, ()> = AdjGraph::new();
        let mut proto_by_name: FxHashMap<u32, Vec<VertexId>> = FxHashMap::default();
        let mut scr_edge: FxHashMap<(u32, u32), (VertexId, VertexId)> = FxHashMap::default();

        // Strongest relations first; ties resolved lexicographically so the
        // construction is deterministic.
        let mut sorted_scrs: Vec<((u32, u32), u32)> = scrs.iter().map(|(&p, &s)| (p, s)).collect();
        sorted_scrs.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        // Find an existing vertex of `name` that closes a stable triangle
        // with `other`: some neighbour's name c has (other, c) ∈ SCRs.
        let find_triangle_vertex = |proto: &AdjGraph<NameId, ()>,
                                    proto_by_name: &FxHashMap<u32, Vec<VertexId>>,
                                    name: u32,
                                    other: u32|
         -> Option<VertexId> {
            let candidates = proto_by_name.get(&name)?;
            candidates.iter().copied().find(|&v| {
                proto.neighbors(v).any(|(w, _)| {
                    let c = proto.vertex(w).0;
                    let key = if other < c { (other, c) } else { (c, other) };
                    scrs.contains_key(&key)
                })
            })
        };

        for &((a, b), _support) in &sorted_scrs {
            let va = find_triangle_vertex(&proto, &proto_by_name, a, b).unwrap_or_else(|| {
                let v = proto.add_vertex(NameId(a));
                proto_by_name.entry(a).or_default().push(v);
                v
            });
            let vb = find_triangle_vertex(&proto, &proto_by_name, b, a).unwrap_or_else(|| {
                let v = proto.add_vertex(NameId(b));
                proto_by_name.entry(b).or_default().push(v);
                v
            });
            proto.upsert_edge(va, vb, || (), |_| ());
            scr_edge.insert((a, b), (va, vb));
        }

        ScnMine {
            name_lists,
            scrs,
            scr_edge,
            num_proto: proto.num_vertices(),
            eta,
        }
    }

    /// Mention assignment. Covered mentions go to SCR vertices; a paper
    /// whose mention touches two different SCR vertices of the same name
    /// proves those vertices identical (one person wrote that slot), so
    /// they are queued for union.
    fn scan_mentions(&self, corpus: &Corpus) -> MentionScan {
        let mut scan = MentionScan {
            raw: Vec::new(),
            pending_unions: Vec::new(),
            uncovered: Vec::new(),
        };
        for (p, names) in corpus.papers.iter().zip(&self.name_lists) {
            for (slot, &n) in p.authors.iter().enumerate() {
                let a = n.0;
                let mention = Mention::new(p.id, slot);
                let mut assigned: Option<usize> = None;
                for &b in names.iter().filter(|&&b| b != a) {
                    let key = if a < b { (a, b) } else { (b, a) };
                    if let Some(&(v1, v2)) = self.scr_edge.get(&key) {
                        let mine = if a < b { v1 } else { v2 };
                        match assigned {
                            None => {
                                assigned = Some(mine.index());
                                scan.raw.push((mention, mine.index()));
                            }
                            Some(prev) if prev != mine.index() => {
                                scan.pending_unions.push((prev, mine.index()));
                            }
                            Some(_) => {}
                        }
                    }
                }
                if assigned.is_none() {
                    scan.uncovered.push(mention);
                }
            }
        }
        scan
    }

    /// Apply the scan's unions and rebuild the final network. Singleton
    /// ids never participate in a union, and the rebuild renumbers
    /// union-find roots by first appearance in (paper, slot) mention order.
    fn assemble(self, corpus: &Corpus, scan: MentionScan) -> Scn {
        let mut uf = UnionFind::new(self.num_proto + scan.uncovered.len());
        for &(x, y) in &scan.pending_unions {
            uf.union(x, y);
        }
        let mut ordered = scan.raw;
        ordered.reserve(scan.uncovered.len());
        for (i, m) in scan.uncovered.into_iter().enumerate() {
            ordered.push((m, self.num_proto + i));
        }

        // --- Rebuild the final graph ---------------------------------------
        // Canonical root → final vertex.
        let mut final_of_root: FxHashMap<usize, VertexId> = FxHashMap::default();
        let mut graph: AdjGraph<ScnVertex, EdgeData> = AdjGraph::new();
        let mut assignment: FxHashMap<Mention, VertexId> = FxHashMap::default();

        ordered.sort_unstable(); // (paper, slot) order → deterministic ids
        for (mention, raw) in ordered {
            let root = uf.find(raw);
            let name = corpus.name_of(mention);
            let v = *final_of_root.entry(root).or_insert_with(|| {
                graph.add_vertex(ScnVertex {
                    name,
                    mentions: Vec::new(),
                })
            });
            debug_assert_eq!(graph.vertex(v).name, name, "vertex name clash");
            graph.vertex_mut(v).mentions.push(mention);
            assignment.insert(mention, v);
        }

        // Recover all collaborative relations per paper (Definition 1).
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
                        continue; // same vertex cannot self-loop
                    }
                    let key = if na < nb { (na, nb) } else { (nb, na) };
                    let support = self.scrs.get(&key).copied().unwrap_or(0);
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

        let mut by_name: FxHashMap<NameId, Vec<VertexId>> = FxHashMap::default();
        for (v, payload) in graph.vertices() {
            by_name.entry(payload.name).or_default().push(v);
        }

        Scn {
            graph,
            assignment,
            by_name,
            scrs: self.scrs,
            eta: self.eta,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iuad_corpus::{AuthorId, Paper, VenueId};

    /// Hand-built corpus mirroring the paper's Figure 2 example:
    /// papers p1..p8 over names a..g (ids 0..6).
    fn figure2_corpus() -> Corpus {
        let lists: Vec<Vec<u32>> = vec![
            vec![0, 1, 2, 3], // p1: a b c d
            vec![0, 2, 3],    // p2: a c d
            vec![0, 1, 2],    // p3: a b c
            vec![0, 1, 2],    // p4: a b c
            vec![1, 4],       // p5: b e
            vec![1, 4],       // p6: b e
            vec![1, 5],       // p7: b f
            vec![1, 6],       // p8: b g
        ];
        let papers: Vec<Paper> = lists
            .iter()
            .enumerate()
            .map(|(i, l)| Paper {
                id: PaperId::from(i),
                authors: l.iter().map(|&n| NameId(n)).collect(),
                title: format!("paper {i}"),
                venue: VenueId(0),
                year: 2000 + i as u16,
            })
            .collect();
        // Ground truth irrelevant for SCN structure tests: one author per name
        // except b, which is two authors (b0 = stable-with-a/c, b1 = with e).
        let truth: Vec<Vec<AuthorId>> = papers
            .iter()
            .map(|p| p.authors.iter().map(|n| AuthorId(n.0)).collect())
            .collect();
        Corpus {
            papers,
            name_strings: (0..7).map(|i| format!("name{i}")).collect(),
            venue_strings: vec!["v0".into()],
            truth,
            author_names: (0..7).map(NameId).collect(),
            config: None,
        }
    }

    #[test]
    fn figure2_scrs_mined() {
        let c = figure2_corpus();
        let scn = Scn::build(&c, 2);
        // The paper lists (a,b),(a,c),(a,d),(b,c),(b,e),(c,d) as 2-SCRs.
        let expect = [(0u32, 1u32), (0, 2), (0, 3), (1, 2), (1, 4), (2, 3)];
        for pair in expect {
            assert!(scn.scrs.contains_key(&pair), "missing SCR {pair:?}");
        }
        assert_eq!(scn.scrs.len(), 6);
    }

    #[test]
    fn figure2_triangle_merges_a_b_c_d() {
        let c = figure2_corpus();
        let scn = Scn::build(&c, 2);
        // a, b, c, d each appear as exactly ONE stable vertex: the triangle
        // rule unifies (a,b),(a,c),(b,c) and then (a,d),(c,d).
        for name in [0u32, 2, 3] {
            let vs = &scn.by_name[&NameId(name)];
            assert_eq!(vs.len(), 1, "name {name} should be one vertex: {vs:?}");
        }
    }

    #[test]
    fn figure2_b_splits_into_stable_and_singletons() {
        let c = figure2_corpus();
        let scn = Scn::build(&c, 2);
        // b: one vertex for {p1,p3,p4} (with a,c), one for {p5,p6} (with e),
        // and singletons for p7, p8 → 4 vertices.
        let vs = &scn.by_name[&NameId(1)];
        assert_eq!(vs.len(), 4, "vertices of b: {vs:?}");
        let mut sizes: Vec<usize> = vs
            .iter()
            .map(|&v| scn.graph.vertex(v).mentions.len())
            .collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 1, 2, 3]);
    }

    #[test]
    fn every_mention_assigned_exactly_once() {
        let c = figure2_corpus();
        let scn = Scn::build(&c, 2);
        assert_eq!(scn.assignment.len(), c.num_mentions());
        // Vertex mention lists partition the mentions.
        let total: usize = scn.graph.vertices().map(|(_, v)| v.mentions.len()).sum();
        assert_eq!(total, c.num_mentions());
    }

    #[test]
    fn vertices_are_name_pure() {
        let c = figure2_corpus();
        let scn = Scn::build(&c, 2);
        for (_, payload) in scn.graph.vertices() {
            for m in &payload.mentions {
                assert_eq!(c.name_of(*m), payload.name);
            }
        }
    }

    #[test]
    fn stable_edges_marked_with_support() {
        let c = figure2_corpus();
        let scn = Scn::build(&c, 2);
        // a—b edge exists with support 3 (p1, p3, p4).
        let va = scn.by_name[&NameId(0)][0];
        let stable_b = scn.by_name[&NameId(1)]
            .iter()
            .copied()
            .find(|&v| scn.graph.vertex(v).mentions.len() == 3)
            .unwrap();
        let e = scn.graph.edge(va, stable_b).expect("a—b edge");
        assert_eq!(e.scr_support, 3);
        assert_eq!(e.papers.len(), 3);
    }

    #[test]
    fn recovered_edges_have_zero_support() {
        let c = figure2_corpus();
        let scn = Scn::build(&c, 2);
        // b—f co-occur once (p7): recovered edge with support 0.
        let vf = scn.by_name[&NameId(5)][0];
        let (vb_p7, _) = scn
            .graph
            .neighbors(vf)
            .next()
            .expect("f connects to b via p7");
        let e = scn.graph.edge(vf, vb_p7).unwrap();
        assert_eq!(e.scr_support, 0);
        assert_eq!(e.papers, vec![PaperId(6)]);
    }

    #[test]
    fn higher_eta_reduces_stable_structure() {
        let c = figure2_corpus();
        let scn2 = Scn::build(&c, 2);
        let scn3 = Scn::build(&c, 3);
        assert!(scn3.scrs.len() < scn2.scrs.len());
        // At η=3 only (a,b),(a,c),(b,c) remain (support 3).
        assert_eq!(scn3.scrs.len(), 3);
    }

    #[test]
    #[should_panic(expected = "eta")]
    fn eta_one_rejected() {
        let _ = Scn::build(&figure2_corpus(), 1);
    }

    #[test]
    fn generated_corpus_builds_consistently() {
        let c = Corpus::generate(&iuad_corpus::CorpusConfig {
            num_authors: 200,
            num_papers: 800,
            seed: 13,
            ..Default::default()
        });
        let scn = Scn::build(&c, 2);
        assert_eq!(scn.assignment.len(), c.num_mentions());
        // SCN precision premise: grouped mentions of one vertex mostly share
        // a true author. Check the worst case is bounded: each vertex's
        // mentions must at least share the name (already asserted) and the
        // majority-truth fraction should be high.
        let mut pure = 0usize;
        let mut total = 0usize;
        for (_, payload) in scn.graph.vertices() {
            if payload.mentions.len() < 2 {
                continue;
            }
            total += 1;
            let mut counts: FxHashMap<u32, usize> = FxHashMap::default();
            for m in &payload.mentions {
                *counts.entry(c.truth_of(*m).0).or_insert(0) += 1;
            }
            let max = counts.values().max().copied().unwrap_or(0);
            if max == payload.mentions.len() {
                pure += 1;
            }
        }
        assert!(
            total == 0 || pure as f64 / total as f64 > 0.9,
            "stable vertices should be nearly pure: {pure}/{total}"
        );
    }
}
