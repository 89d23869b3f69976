//! Property-based tests over the core data structures and invariants,
//! spanning crates (proptest).

use std::collections::BTreeMap;
use std::sync::OnceLock;

use proptest::prelude::*;

use iuad_suite::cluster::{densify_labels, hac, Linkage};
use iuad_suite::core::similarity::{gamma4_time_consistency, gamma6_communities};
use iuad_suite::core::{KeywordYears, ProfileContext, VenueCounts, VertexProfile};
use iuad_suite::corpus::{Corpus, CorpusConfig, NameId};
use iuad_suite::eval::{b_cubed, k_metric, pairwise_confusion};
use iuad_suite::fpgrowth::pairs::frequent_pairs;
use iuad_suite::graph::wl::{kernel, normalized_kernel, SparseFeatures};
use iuad_suite::graph::UnionFind;

/// Shared corpus + context for the γ merge-join properties (SGNS training
/// is too slow to repeat per proptest case).
fn gamma_ctx() -> &'static (Corpus, ProfileContext) {
    static CTX: OnceLock<(Corpus, ProfileContext)> = OnceLock::new();
    CTX.get_or_init(|| {
        let c = Corpus::generate(&CorpusConfig {
            num_authors: 80,
            num_papers: 250,
            seed: 91,
            ..Default::default()
        });
        let ctx = ProfileContext::build(&c, 8, 7);
        (c, ctx)
    })
}

/// Reference WL kernel: BTreeMap dot product. Ascending-key iteration sums
/// shared labels in the same order as the merge join, so agreement is
/// *exact*, not approximate.
fn kernel_reference(a: &[(u64, u32)], b: &[(u64, u32)]) -> f64 {
    let fold = |pairs: &[(u64, u32)]| {
        let mut m: BTreeMap<u64, u32> = BTreeMap::new();
        for &(l, c) in pairs {
            *m.entry(l).or_insert(0) += c;
        }
        m
    };
    let (ma, mb) = (fold(a), fold(b));
    ma.iter()
        .filter_map(|(l, &ca)| mb.get(l).map(|&cb| f64::from(ca) * f64::from(cb)))
        .sum()
}

/// Reference γ₄: hash-map (BTreeMap) intersection with the nested
/// min-year-gap loop, computing `exp`/`ln` directly per common keyword.
fn gamma4_reference(
    a: &BTreeMap<u32, Vec<u16>>,
    b: &BTreeMap<u32, Vec<u16>>,
    tau: f64,
    alpha: f64,
    ctx: &ProfileContext,
) -> f64 {
    let mut sum = 0.0;
    for (w, years_a) in a {
        let Some(years_b) = b.get(w) else { continue };
        let mut min_gap = u16::MAX;
        for &ya in years_a {
            for &yb in years_b {
                min_gap = min_gap.min(ya.abs_diff(yb));
            }
        }
        let fb = (ctx.word_freq(*w) as f64).max(2.0);
        sum += (-alpha * f64::from(min_gap)).exp() / fb.ln();
    }
    sum / tau
}

/// Reference γ₆: BTreeMap venue intersection with direct `ln` per venue.
fn gamma6_reference(
    a: &BTreeMap<u32, u32>,
    b: &BTreeMap<u32, u32>,
    tau: f64,
    ctx: &ProfileContext,
) -> f64 {
    let mut sum = 0.0;
    for h in a.keys() {
        if b.contains_key(h) {
            let fh = (ctx.venue_freq.get(*h as usize).copied().unwrap_or(1) as f64).max(2.0);
            sum += 1.0 / fh.ln();
        }
    }
    sum / tau
}

/// Brute-force B³ reference: per-mention precision/recall via explicit
/// label-indexed membership maps, summed in the same mention order as the
/// production implementation so agreement is *exact*, not approximate.
fn b_cubed_reference(pred: &[usize], truth: &[usize]) -> (f64, f64, f64) {
    let n = pred.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    let members = |labels: &[usize]| -> BTreeMap<usize, Vec<usize>> {
        let mut m: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, &l) in labels.iter().enumerate() {
            m.entry(l).or_default().push(i);
        }
        m
    };
    let (cm, tm) = (members(pred), members(truth));
    let mut p_sum = 0.0;
    let mut r_sum = 0.0;
    for i in 0..n {
        let cluster = &cm[&pred[i]];
        let author = &tm[&truth[i]];
        let both = cluster.iter().filter(|j| truth[**j] == truth[i]).count();
        p_sum += both as f64 / cluster.len() as f64;
        r_sum += both as f64 / author.len() as f64;
    }
    let p = p_sum / n as f64;
    let r = r_sum / n as f64;
    let f = if p + r == 0.0 {
        0.0
    } else {
        2.0 * p * r / (p + r)
    };
    (p, r, f)
}

/// An empty profile with the given keyword/venue evidence installed.
fn profile_with(
    kw: &BTreeMap<u32, Vec<u16>>,
    venues: &BTreeMap<u32, u32>,
    ctx: &ProfileContext,
) -> VertexProfile {
    let mut p = VertexProfile::from_mentions(NameId(0), &[], ctx);
    let mut ky = KeywordYears::default();
    for (w, years) in kw {
        ky.insert(*w, years.clone());
    }
    let mut vc = VenueCounts::default();
    for (v, c) in venues {
        vc.insert(*v, *c);
    }
    p.keyword_years = ky;
    p.venue_counts = vc;
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Frequent-pair counting agrees with a brute-force oracle that, for
    /// every `a < b`, counts the transactions holding both (an item
    /// repeated within a transaction still counts that transaction once).
    #[test]
    fn frequent_pairs_match_brute_force(
        txs in prop::collection::vec(prop::collection::vec(0u32..8, 1..5), 1..15),
        min_support in 1u32..4,
    ) {
        let mut expected = BTreeMap::new();
        for a in 0u32..8 {
            for b in (a + 1)..8 {
                let support = txs.iter().filter(|t| t.contains(&a) && t.contains(&b)).count() as u32;
                if support >= min_support {
                    expected.insert((a, b), support);
                }
            }
        }
        let mined: BTreeMap<_, _> =
            frequent_pairs(txs.iter().map(Vec::as_slice), min_support).into_iter().collect();
        prop_assert_eq!(mined, expected);
    }

    /// Pairwise confusion counts always partition C(n,2).
    #[test]
    fn confusion_partitions_pairs(
        labels in prop::collection::vec((0usize..4, 0usize..4), 0..30),
    ) {
        let pred: Vec<usize> = labels.iter().map(|&(p, _)| p).collect();
        let truth: Vec<usize> = labels.iter().map(|&(_, t)| t).collect();
        let c = pairwise_confusion(&pred, &truth);
        let n = labels.len() as u64;
        prop_assert_eq!(c.total(), n * n.saturating_sub(1) / 2);
        let m = c.metrics();
        prop_assert!((0.0..=1.0).contains(&m.accuracy));
        prop_assert!((0.0..=1.0).contains(&m.precision));
        prop_assert!((0.0..=1.0).contains(&m.recall));
        prop_assert!((0.0..=1.0).contains(&m.f1));
    }

    /// Union-find agrees with a brute-force reference partition.
    #[test]
    fn union_find_matches_reference(
        unions in prop::collection::vec((0usize..12, 0usize..12), 0..30),
    ) {
        let n = 12;
        let mut uf = UnionFind::new(n);
        // Reference: label propagation to fixpoint.
        let mut label: Vec<usize> = (0..n).collect();
        for &(a, b) in &unions {
            uf.union(a, b);
            let (la, lb) = (label[a], label[b]);
            if la != lb {
                for l in &mut label {
                    if *l == lb {
                        *l = la;
                    }
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(uf.same(i, j), label[i] == label[j], "{} {}", i, j);
            }
        }
        let distinct: std::collections::BTreeSet<usize> = label.into_iter().collect();
        prop_assert_eq!(uf.num_components(), distinct.len());
    }

    /// HAC threshold monotonicity: a larger threshold yields a coarser
    /// partition (fewer or equal clusters) on any point set.
    #[test]
    fn hac_threshold_monotone(
        points in prop::collection::vec(0.0f64..100.0, 2..20),
        t1 in 0.0f64..10.0,
        extra in 0.1f64..10.0,
    ) {
        let t2 = t1 + extra;
        let count = |threshold: f64| {
            let labels = hac(
                points.len(),
                |i, j| (points[i] - points[j]).abs(),
                Linkage::Single,
                threshold,
            );
            labels.iter().copied().collect::<std::collections::BTreeSet<_>>().len()
        };
        prop_assert!(count(t2) <= count(t1));
    }

    /// Densified labels are always 0..k with every value used.
    #[test]
    fn densify_labels_dense(labels in prop::collection::vec(0usize..50, 0..40)) {
        let d = densify_labels(&labels);
        prop_assert_eq!(d.len(), labels.len());
        let k = d.iter().max().map_or(0, |&m| m + 1);
        let mut seen = vec![false; k];
        for &l in &d {
            seen[l] = true;
        }
        prop_assert!(seen.into_iter().all(|s| s));
        // Same-label inputs stay same-label.
        for i in 0..labels.len() {
            for j in 0..labels.len() {
                prop_assert_eq!(labels[i] == labels[j], d[i] == d[j]);
            }
        }
    }

    /// The sorted-vector merge-join WL kernel (with its branchless and
    /// galloping variants) agrees exactly with a map-based reference dot
    /// product on arbitrary inputs, and the precomputed norm matches the
    /// self-kernel.
    #[test]
    fn sparse_kernel_matches_reference(
        a in prop::collection::vec((0u64..60, 1u32..5), 0..50),
        b in prop::collection::vec((0u64..60, 1u32..5), 0..400),
    ) {
        let fa = SparseFeatures::from_counts(a.iter().copied());
        let fb = SparseFeatures::from_counts(b.iter().copied());
        prop_assert_eq!(kernel(&fa, &fb), kernel_reference(&a, &b));
        prop_assert_eq!(kernel(&fb, &fa), kernel_reference(&a, &b));
        prop_assert!((fa.norm() - kernel(&fa, &fa).sqrt()).abs() < 1e-12);
        let nk = normalized_kernel(&fa, &fb);
        prop_assert!((0.0..=1.0).contains(&nk));
    }

    /// `SparseFeatures` stores only the counts that are not 1, yet keeps
    /// every count: `from_counts` round-trips through `iter` and
    /// `total_count`; `intersect_labels` keeps each retained label's count
    /// and the source's norm bits; and the kernel over two copies cut to a
    /// label set holding every shared label equals the kernel over the
    /// originals.
    #[test]
    fn sparse_features_keep_every_count(
        a in prop::collection::vec((0u64..60, 1u32..5), 0..50),
        b in prop::collection::vec((0u64..60, 1u32..5), 0..400),
        extra in prop::collection::btree_set(0u64..60, 0..20),
    ) {
        let summed = |pairs: &[(u64, u32)]| {
            let mut m: BTreeMap<u64, u32> = BTreeMap::new();
            for &(l, c) in pairs {
                *m.entry(l).or_default() += c;
            }
            m
        };
        let (ma, mb) = (summed(&a), summed(&b));
        let fa = SparseFeatures::from_counts(a.iter().copied());
        let fb = SparseFeatures::from_counts(b.iter().copied());
        prop_assert_eq!(fa.iter().collect::<Vec<_>>(), ma.clone().into_iter().collect::<Vec<_>>());
        prop_assert_eq!(fa.total_count(), a.iter().map(|&(_, c)| u64::from(c)).sum::<u64>());
        prop_assert_eq!(&SparseFeatures::from_counts(fa.iter()), &fa);

        let mut keep: Vec<u64> = ma.keys().filter(|l| mb.contains_key(l)).copied().collect();
        keep.extend(&extra);
        keep.sort_unstable();
        keep.dedup();
        let (ca, cb) = (fa.intersect_labels(&keep), fb.intersect_labels(&keep));
        let kept: Vec<(u64, u32)> = ma.iter().filter(|(l, _)| keep.contains(l)).map(|(&l, &c)| (l, c)).collect();
        prop_assert_eq!(ca.iter().collect::<Vec<_>>(), kept);
        prop_assert_eq!(ca.norm().to_bits(), fa.norm().to_bits());
        prop_assert_eq!(kernel(&ca, &cb).to_bits(), kernel(&fa, &fb).to_bits());
    }

    /// γ₄'s keyword merge join + two-pointer year scan agrees exactly with
    /// the straightforward hash-map + nested-loop reference.
    #[test]
    fn gamma4_merge_join_matches_reference(
        a in prop::collection::vec((0u32..12, 1980u16..2024), 0..25),
        b in prop::collection::vec((0u32..12, 1980u16..2024), 0..25),
        tau in 1u32..6,
    ) {
        let (_, ctx) = gamma_ctx();
        let fold = |pairs: &[(u32, u16)]| {
            let mut m: BTreeMap<u32, Vec<u16>> = BTreeMap::new();
            for &(w, y) in pairs {
                m.entry(w).or_default().push(y);
            }
            m
        };
        let (ma, mb) = (fold(&a), fold(&b));
        let (pa, pb) = (profile_with(&ma, &BTreeMap::new(), ctx), profile_with(&mb, &BTreeMap::new(), ctx));
        let fast = gamma4_time_consistency(&pa, &pb, f64::from(tau), 0.62, ctx);
        let slow = gamma4_reference(&ma, &mb, f64::from(tau), 0.62, ctx);
        prop_assert_eq!(fast, slow);
    }

    /// γ₆'s venue merge join agrees exactly with the map-intersection
    /// reference.
    #[test]
    fn gamma6_merge_join_matches_reference(
        a in prop::collection::vec((0u32..40, 1u32..4), 0..15),
        b in prop::collection::vec((0u32..40, 1u32..4), 0..15),
        tau in 1u32..6,
    ) {
        let (_, ctx) = gamma_ctx();
        let fold = |pairs: &[(u32, u32)]| {
            let mut m: BTreeMap<u32, u32> = BTreeMap::new();
            for &(v, c) in pairs {
                *m.entry(v).or_insert(0) += c;
            }
            m
        };
        let (ma, mb) = (fold(&a), fold(&b));
        let (pa, pb) = (profile_with(&BTreeMap::new(), &ma, ctx), profile_with(&BTreeMap::new(), &mb, ctx));
        let fast = gamma6_communities(&pa, &pb, f64::from(tau), ctx);
        let slow = gamma6_reference(&ma, &mb, f64::from(tau), ctx);
        prop_assert_eq!(fast, slow);
    }

    /// B³ agrees exactly with the brute-force membership-map reference on
    /// random clusterings, and K is the geometric mean of its components.
    #[test]
    fn b_cubed_matches_brute_force(
        labels in prop::collection::vec((0usize..5, 0usize..5), 0..40),
    ) {
        let pred: Vec<usize> = labels.iter().map(|&(p, _)| p).collect();
        let truth: Vec<usize> = labels.iter().map(|&(_, t)| t).collect();
        let fast = b_cubed(&pred, &truth);
        let slow = b_cubed_reference(&pred, &truth);
        prop_assert_eq!(fast, slow);
        let (p, r, f) = fast;
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!((0.0..=1.0).contains(&r));
        prop_assert!((0.0..=1.0).contains(&f));
        let k = k_metric(&pred, &truth);
        prop_assert_eq!(k, (p * r).sqrt());
        prop_assert!((0.0..=1.0).contains(&k));
    }

    /// All-singleton predictions have closed-form B³: precision 1, recall
    /// the mean reciprocal true-cluster size.
    #[test]
    fn b_cubed_singletons_closed_form(truth in prop::collection::vec(0usize..6, 1..30)) {
        let n = truth.len();
        let pred: Vec<usize> = (0..n).collect();
        let (p, r, _) = b_cubed(&pred, &truth);
        prop_assert_eq!(p, 1.0);
        let sizes: BTreeMap<usize, usize> = truth.iter().fold(BTreeMap::new(), |mut m, &t| {
            *m.entry(t).or_insert(0) += 1;
            m
        });
        let expect: f64 = truth
            .iter()
            .map(|t| 1.0 / sizes[t] as f64)
            .sum::<f64>() / n as f64;
        prop_assert!((r - expect).abs() < 1e-12, "r = {}, expect = {}", r, expect);
        // K = sqrt(p · r) with p = 1.
        prop_assert!((k_metric(&pred, &truth) - r.sqrt()).abs() < 1e-12);
    }

    /// The all-merged prediction has closed-form B³: recall 1, precision
    /// the mean true-cluster-size fraction.
    #[test]
    fn b_cubed_all_merged_closed_form(truth in prop::collection::vec(0usize..6, 1..30)) {
        let n = truth.len();
        let pred = vec![0usize; n];
        let (p, r, _) = b_cubed(&pred, &truth);
        prop_assert_eq!(r, 1.0);
        let sizes: BTreeMap<usize, usize> = truth.iter().fold(BTreeMap::new(), |mut m, &t| {
            *m.entry(t).or_insert(0) += 1;
            m
        });
        let expect: f64 = truth
            .iter()
            .map(|t| sizes[t] as f64 / n as f64)
            .sum::<f64>() / n as f64;
        prop_assert!((p - expect).abs() < 1e-12, "p = {}, expect = {}", p, expect);
    }

    /// Perfect predictions score exactly 1.0 on B³ and K for any labelling
    /// (including the singleton and all-merged degenerate truths).
    #[test]
    fn b_cubed_perfect_is_one(truth in prop::collection::vec(0usize..4, 1..25)) {
        let (p, r, f) = b_cubed(&truth, &truth);
        prop_assert_eq!((p, r, f), (1.0, 1.0, 1.0));
        prop_assert_eq!(k_metric(&truth, &truth), 1.0);
    }

    /// Generated corpora are always internally consistent, and SCN mention
    /// assignment is a partition, for arbitrary small configurations.
    #[test]
    fn corpus_and_scn_invariants(
        authors in 30usize..120,
        papers in 50usize..300,
        seed in 0u64..1000,
        eta in 2u32..4,
    ) {
        let c = Corpus::generate(&CorpusConfig {
            num_authors: authors,
            num_papers: papers,
            seed,
            ..Default::default()
        });
        prop_assert_eq!(c.validate(), Ok(()));
        let scn = iuad_suite::core::Scn::build(&c, eta);
        prop_assert_eq!(scn.assignment.len(), c.num_mentions());
        let total: usize = scn.graph.vertices().map(|(_, v)| v.mentions.len()).sum();
        prop_assert_eq!(total, c.num_mentions());
        // Vertices are name-pure.
        for (_, payload) in scn.graph.vertices() {
            for m in &payload.mentions {
                prop_assert_eq!(c.name_of(*m), payload.name);
            }
        }
    }
}

/// Slot counts of the pre-alias linear 0.75-power unigram table: word `w`
/// occupied `ceil((count^0.75 / Σ counts^0.75) · 2^16)` slots. The alias
/// sampler must represent exactly this distribution.
fn linear_table_slots(counts: &[u64]) -> Vec<u64> {
    let total_pow: f64 = counts.iter().map(|&c| (c as f64).powf(0.75)).sum();
    counts
        .iter()
        .map(|&c| {
            let share = (c as f64).powf(0.75) / total_pow;
            (share * (1u64 << 16) as f64).ceil() as u64
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The Walker/Vose alias table represents *exactly* the linear
    /// 0.75-power table's distribution: word `w`'s unit mass is its linear
    /// slot count scaled by the bucket count (the word count padded to a
    /// power of two), for arbitrary corpus count vectors.
    #[test]
    fn alias_table_matches_linear_power_table_exactly(
        head in 1u64..500,
        tail in prop::collection::vec(0u64..500, 0..59),
    ) {
        let mut counts = vec![head];
        counts.extend(tail);
        let slots = linear_table_slots(&counts);
        let table = iuad_suite::text::AliasTable::new(&slots).expect("nonzero slots");
        prop_assert_eq!(table.len(), slots.len());
        prop_assert!(table.buckets().is_power_of_two());
        let b = table.buckets() as u64;
        let linear_len: u64 = slots.iter().sum();
        prop_assert_eq!(table.total_units(), linear_len * b);
        let mass = table.unit_mass();
        for (w, &s) in slots.iter().enumerate() {
            prop_assert_eq!(mass[w], s * b, "word {} of {:?}", w, counts);
        }
    }

    /// Small tables, checked exhaustively through the public `lookup` path:
    /// the O(n) mass accessor and the unit-by-unit walk agree, so the
    /// lookup layout really is a permutation of the linear table's slots.
    #[test]
    fn alias_lookup_walk_matches_unit_mass(
        head in 1u64..40,
        tail in prop::collection::vec(0u64..40, 0..11),
    ) {
        let mut weights = vec![head];
        weights.extend(tail);
        let table = iuad_suite::text::AliasTable::new(&weights).expect("nonzero weights");
        let mut mass = vec![0u64; weights.len()];
        for r in 0..table.total_units() {
            mass[table.lookup(r) as usize] += 1;
        }
        prop_assert_eq!(mass, table.unit_mass());
    }

    /// Same rng stream ⇒ same draws: sampling is a pure function of the
    /// table and the rng state, one rng call per draw.
    #[test]
    fn alias_sampling_is_deterministic_per_stream(
        head in 1u64..100,
        tail in prop::collection::vec(0u64..100, 0..29),
        seed in 0u64..10_000,
    ) {
        let mut weights = vec![head];
        weights.extend(tail);
        use iuad_suite::text::AliasTable;
        use rand::{rngs::StdRng, SeedableRng};
        let table = AliasTable::new(&weights).expect("nonzero weights");
        let mut a = StdRng::seed_from_u64(seed);
        let mut b = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            prop_assert_eq!(table.sample(&mut a), table.sample(&mut b));
        }
    }
}
