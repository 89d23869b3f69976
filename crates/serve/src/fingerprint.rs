//! The canonical partition fingerprint: the one hash of a network's
//! mention → author partition, pinned by the seed baseline, the scenario
//! goldens and the benchmark, and compared by the WAL warm-restart and
//! replication contracts.
//!
//! Mentions are enumerated in `(paper, slot)` order and vertex ids densely
//! renamed by first appearance (so the fingerprint depends only on the
//! partition structure, never on internal vertex numbering), then hashed
//! with FNV-1a over the length-prefixed label sequence. It enumerates the
//! network's own assignment rather than a corpus, so streamed papers
//! absorbed after the fit are covered too.

use iuad_core::Scn;
use iuad_corpus::Mention;
use iuad_graph::VertexId;
use rustc_hash::FxHashMap;

/// FNV-1a fingerprint of the network's mention → author partition.
pub fn partition_fingerprint(network: &Scn) -> u64 {
    let mut ordered: Vec<(Mention, VertexId)> =
        network.assignment.iter().map(|(&m, &v)| (m, v)).collect();
    ordered.sort_unstable();
    let mut rename: FxHashMap<VertexId, u64> = FxHashMap::default();
    let mut labels: Vec<u64> = Vec::with_capacity(ordered.len());
    for (_, v) in ordered {
        let next = rename.len() as u64;
        labels.push(*rename.entry(v).or_insert(next));
    }

    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    };
    mix(labels.len() as u64);
    for label in labels {
        mix(label);
    }
    h
}

/// Render a fingerprint the way goldens are recorded (`{:#018x}`).
pub fn fingerprint_hex(fp: u64) -> String {
    format!("{fp:#018x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use iuad_core::{Iuad, IuadConfig};
    use iuad_corpus::{Corpus, CorpusConfig};

    #[test]
    fn fingerprint_is_renaming_invariant_and_sensitive() {
        let c = Corpus::generate(&CorpusConfig {
            num_authors: 80,
            num_papers: 260,
            seed: 91,
            ..Default::default()
        });
        let fit = Iuad::fit(&c, &IuadConfig::default());
        let fp = partition_fingerprint(&fit.network);
        let n = fit.network.graph.num_vertices();

        // Relabelling every vertex keeps the partition, so keeps the hash.
        let mut renamed = fit.network.clone();
        for v in renamed.assignment.values_mut() {
            *v = VertexId::from(n - 1 - v.index());
        }
        assert_eq!(partition_fingerprint(&renamed), fp);

        // Moving one mention to another vertex changes the partition.
        let mut moved = fit.network.clone();
        let (&m, &v) = moved.assignment.iter().min().expect("mentions");
        moved
            .assignment
            .insert(m, VertexId::from((v.index() + 1) % n));
        assert_ne!(partition_fingerprint(&moved), fp);
    }

    #[test]
    fn hex_rendering_is_fixed_width() {
        assert_eq!(fingerprint_hex(0x1), "0x0000000000000001");
    }
}
