//! η-SCR mining as frequent-pair counting.
//!
//! Stage 1 of IUAD mines η-stable collaborative relations — name pairs
//! co-occurring at least η times in co-author lists. The paper finds them
//! with FP-growth (Han, Pei & Yin, SIGMOD 2000), but an η-SCR is a
//! 2-itemset, and FP-growth restricted to itemsets of length two is just
//! pair counting: one pass over each transaction's unordered pairs, one
//! hash map of supports, one threshold. [`pairs`] is that counter; it also
//! yields the pair-frequency histogram of Fig. 3(b).
//!
//! Items are `u32` (name ids in IUAD). Transactions are item slices;
//! duplicate items within one transaction are counted once.
//!
//! ```
//! use iuad_fpgrowth::pairs;
//!
//! let txs: Vec<Vec<u32>> = vec![vec![1, 2, 3], vec![1, 2], vec![1, 2, 4]];
//! let p = pairs::frequent_pairs(txs.iter().map(|t| t.as_slice()), 2);
//! assert_eq!(p.get(&(1, 2)), Some(&3));
//! assert_eq!(p.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod pairs;

/// An item (in IUAD: an author-name id).
pub type Item = u32;
