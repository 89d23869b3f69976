//! Frequent-*pair* counting.
//!
//! η-SCR mining only needs frequent 2-itemsets. Counting unordered pairs
//! directly is O(Σ |tx|²) with a single hash map, and it also yields the
//! pair-frequency histogram of Fig. 3(b).

use rustc_hash::FxHashMap;

use crate::Item;

/// An unordered item pair, stored `(min, max)`.
pub type Pair = (Item, Item);

/// Count co-occurrences of all unordered item pairs across transactions.
/// Duplicate items within one transaction are counted once; a pair is
/// counted once per transaction regardless of multiplicity.
pub fn pair_counts<'a, I>(transactions: I) -> FxHashMap<Pair, u32>
where
    I: IntoIterator<Item = &'a [Item]>,
{
    let mut counts: FxHashMap<Pair, u32> = FxHashMap::default();
    let mut buf: Vec<Item> = Vec::new();
    for tx in transactions {
        buf.clear();
        buf.extend_from_slice(tx);
        buf.sort_unstable();
        buf.dedup();
        for i in 0..buf.len() {
            for j in (i + 1)..buf.len() {
                *counts.entry((buf[i], buf[j])).or_insert(0) += 1;
            }
        }
    }
    counts
}

/// All pairs with count ≥ `min_support` (the η-SCRs of IUAD Stage 1).
pub fn frequent_pairs<'a, I>(transactions: I, min_support: u32) -> FxHashMap<Pair, u32>
where
    I: IntoIterator<Item = &'a [Item]>,
{
    let mut counts = pair_counts(transactions);
    counts.retain(|_, c| *c >= min_support);
    counts
}

/// Frequency-of-frequencies over pair counts: `out[k]` = number of pairs
/// co-occurring exactly `k` times. This is the raw series behind Fig. 3(b).
pub fn pair_frequency_histogram(counts: &FxHashMap<Pair, u32>) -> Vec<(u32, u64)> {
    let mut hist: FxHashMap<u32, u64> = FxHashMap::default();
    for &c in counts.values() {
        *hist.entry(c).or_insert(0) += 1;
    }
    let mut v: Vec<(u32, u64)> = hist.into_iter().collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_simple() {
        let txs: Vec<Vec<Item>> = vec![vec![1, 2, 3], vec![1, 2], vec![3, 1]];
        let c = pair_counts(txs.iter().map(Vec::as_slice));
        assert_eq!(c[&(1, 2)], 2);
        assert_eq!(c[&(1, 3)], 2);
        assert_eq!(c[&(2, 3)], 1);
    }

    #[test]
    fn duplicates_in_transaction_count_once() {
        let txs: Vec<Vec<Item>> = vec![vec![1, 1, 2, 2]];
        let c = pair_counts(txs.iter().map(Vec::as_slice));
        assert_eq!(c[&(1, 2)], 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn threshold_filters() {
        let txs: Vec<Vec<Item>> = vec![vec![1, 2], vec![1, 2], vec![2, 3]];
        let f = frequent_pairs(txs.iter().map(Vec::as_slice), 2);
        assert_eq!(f.len(), 1);
        assert_eq!(f[&(1, 2)], 2);
    }

    #[test]
    fn histogram_sums_to_pair_count() {
        let txs: Vec<Vec<Item>> = vec![vec![1, 2], vec![1, 2], vec![2, 3], vec![4, 5]];
        let c = pair_counts(txs.iter().map(Vec::as_slice));
        let h = pair_frequency_histogram(&c);
        let total: u64 = h.iter().map(|&(_, n)| n).sum();
        assert_eq!(total as usize, c.len());
        assert_eq!(h, vec![(1, 2), (2, 1)]);
    }

    #[test]
    fn empty_input() {
        let txs: Vec<Vec<Item>> = Vec::new();
        assert!(pair_counts(txs.iter().map(Vec::as_slice)).is_empty());
    }
}
