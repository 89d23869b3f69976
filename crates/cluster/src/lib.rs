//! Clustering substrate for the comparison baselines.
//!
//! The paper's baselines cluster paper embeddings: ANON and Aminer use
//! hierarchical agglomerative clustering, NetE uses HDBSCAN and affinity
//! propagation, GHOST uses affinity propagation over a path-based
//! similarity. This crate implements the required algorithms from scratch:
//!
//! * [`hac`] — agglomerative clustering with single/complete/average linkage
//!   and a distance threshold stop;
//! * [`dbscan`] — density clustering (stands in for HDBSCAN, see DESIGN.md);
//! * [`affinity_propagation`] — Frey & Dueck message passing.
//!
//! All functions are deterministic and return dense cluster labels `0..k`.

#![warn(missing_docs)]

mod ap;
mod dbscan;
mod hac;

pub use ap::{affinity_propagation, ApConfig};
pub use dbscan::dbscan;
pub use hac::{hac, Linkage};

/// Relabel arbitrary cluster ids into dense `0..k`, preserving first-seen
/// order. Noise markers (`usize::MAX`) become singleton clusters.
pub fn densify_labels(labels: &[usize]) -> Vec<usize> {
    let mut map = std::collections::HashMap::new();
    let mut out = Vec::with_capacity(labels.len());
    let mut next = 0usize;
    for &l in labels {
        if l == usize::MAX {
            out.push(usize::MAX);
            continue;
        }
        let id = *map.entry(l).or_insert_with(|| {
            let id = next;
            next += 1;
            id
        });
        out.push(id);
    }
    // Noise points become fresh singletons after real clusters.
    for l in &mut out {
        if *l == usize::MAX {
            *l = next;
            next += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn densify_maps_to_dense_range() {
        let labels = vec![5, 5, 9, 5, 2];
        let d = densify_labels(&labels);
        assert_eq!(d, vec![0, 0, 1, 0, 2]);
    }

    #[test]
    fn densify_noise_becomes_singletons() {
        let labels = vec![7, usize::MAX, 7, usize::MAX];
        let d = densify_labels(&labels);
        assert_eq!(d, vec![0, 1, 0, 2]);
    }
}
