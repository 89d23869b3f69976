//! Canonical partition labels.
//!
//! A fitted network's mention partition is canonicalised independently of
//! vertex numbering: mentions are visited in (paper, slot) order and each
//! vertex is renamed to the rank of its first appearance. Two fits that
//! produce the same *partition* therefore produce the same label vector
//! even if their internal vertex ids differ. The invariants compare these
//! vectors; the partition's hash is [`iuad_serve::partition_fingerprint`],
//! which applies the same renaming to a network's own assignment.

use iuad_corpus::{Corpus, Mention};
use rustc_hash::FxHashMap;

/// Canonical dense labels of a mention partition: visit `corpus`'s mentions
/// in (paper, slot) order, mapping each through `vertex_of` and renaming
/// vertices by first appearance.
pub fn canonical_labels(
    corpus: &Corpus,
    mut vertex_of: impl FnMut(Mention) -> usize,
) -> Vec<usize> {
    let mut dense: FxHashMap<usize, usize> = FxHashMap::default();
    let mut out = Vec::with_capacity(corpus.num_mentions());
    for m in corpus.mentions() {
        let raw = vertex_of(m);
        let next = dense.len();
        out.push(*dense.entry(raw).or_insert(next));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iuad_corpus::CorpusConfig;

    fn tiny() -> Corpus {
        Corpus::generate(&CorpusConfig {
            num_authors: 40,
            num_papers: 80,
            seed: 3,
            ..Default::default()
        })
    }

    #[test]
    fn canonical_labels_ignore_vertex_numbering() {
        let c = tiny();
        // Two assignments with the same partition but shifted vertex ids.
        let a = canonical_labels(&c, |m| m.paper.index());
        let b = canonical_labels(&c, |m| m.paper.index() + 1000);
        assert_eq!(a, b);
    }
}
