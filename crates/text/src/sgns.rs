//! Skip-gram with negative sampling (Mikolov et al., 2013), from scratch —
//! deterministically parallel.
//!
//! The trainer processes documents in fixed *batches* of [`BATCH_DOCS`],
//! each split into fixed *segments* of [`SEGMENT_DOCS`]. Every segment
//! trains against the weights **frozen at batch start**, with full
//! read-your-writes inside the segment, and emits sparse per-row deltas
//! (`current − frozen`); deltas are applied in ascending segment order at
//! batch end. Per-document rng streams ([`doc_seed`]) and a position-based
//! learning-rate schedule (token prefix sums) make each segment a pure
//! function of `(corpus, config, segment)`. Segments are computed with
//! [`iuad_par::parallel_map`] — an order-preserving pure map — and applied
//! with [`iuad_par::parallel_mut_shards`] over disjoint row ranges, so the
//! entire schedule is a function of the corpus and [`SgnsConfig`] alone,
//! never of `threads`/`chunk_size`: outputs are bit-identical at any
//! thread count. The schedule constants ([`BATCH_DOCS`], [`SEGMENT_DOCS`],
//! [`NEGATIVE`], [`LR`]) are part of the numeric contract — changing one
//! changes results, which `schedule_golden` pins.
//!
//! One segment loop ([`run_segment`]) runs over one of two [`Rows`]
//! stores, chosen by thread count and pinned bit-identical to each other:
//!
//! * [`Overlay`] (threads > 1): the weight matrices stay immutable and each
//!   worker gets copy-on-touch value semantics over them, so reads see the
//!   segment's own writes and untouched rows cost nothing.
//! * [`InPlace`] (one thread): the single worker updates the live matrices
//!   and saves each touched row's batch-start contents, which `finish`
//!   restores. It stays because it halves the random-access working set:
//!   over 8 interleaved single-thread 100k-paper fits on a 2-core VM, its
//!   epoch loop read a median 2.61 s against 2.82 s for the overlay, and
//!   was faster in all 8.
//!
//! Single-thread wins over the previous sequential SGD: a `min_count`
//! vocabulary cutoff (rare words drop out of the token stream and keep
//! their seeded random init), a Walker/Vose [`AliasTable`] negative
//! sampler whose power-of-two fast path draws without any division, an
//! 8-lane tree-reduced dot product that breaks the serial f32 dependency
//! chain, and a word2vec-style sigmoid lookup table with saturated-gradient
//! skips.

use std::cell::RefCell;
use std::time::Instant;

use rand::prelude::*;
use rand::rngs::StdRng;

use iuad_par::{parallel_map, parallel_mut_shards, ParallelConfig};

use crate::embedding::Embeddings;
use crate::sampler::AliasTable;

/// Sigmoid lookup resolution; `value(x)` saturates outside `±MAX_EXP`.
const SIG_TABLE_SIZE: usize = 1024;
const MAX_EXP: f32 = 6.0;

/// Negative samples per positive pair.
const NEGATIVE: usize = 5;
/// Initial learning rate (decays linearly to 1e-4 of itself).
const LR: f32 = 0.05;
/// Documents per weight-synchronisation batch. Segments within a batch read
/// batch-start weights and their deltas merge at batch end, so this trades
/// gradient freshness for parallel slack.
const BATCH_DOCS: usize = 2048;
/// Documents per segment — the unit of work handed to one worker, and the
/// scope of read-your-writes against the batch-start weights. Trades
/// per-segment bookkeeping (one copy and delta per touched row) against
/// parallel fan-out.
const SEGMENT_DOCS: usize = 256;

/// SGNS hyper-parameters.
#[derive(Debug, Clone)]
pub struct SgnsConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Max distance between centre and context word.
    pub window: usize,
    /// Full passes over the corpus.
    pub epochs: usize,
    /// RNG seed. Drives the full-vocabulary random init, each document's
    /// private sampling stream, and nothing else.
    pub seed: u64,
    /// Vocabulary frequency cutoff: words occurring fewer than `min_count`
    /// times in the corpus are removed from the training stream (exact
    /// remapping — training a pre-filtered corpus with `min_count = 1` is
    /// bit-identical). Dropped words keep their seeded random init rows.
    /// Values `<= 1` keep every word that appears.
    pub min_count: u64,
    /// Thread fan-out for segment compute and delta application. Outputs
    /// are bit-identical for every `threads`/`chunk_size` choice.
    pub parallel: ParallelConfig,
}

impl Default for SgnsConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            window: 4,
            epochs: 3,
            seed: 1,
            min_count: 2,
            parallel: ParallelConfig::sequential(),
        }
    }
}

/// Wall-clock breakdown of one [`train_sgns_with_stats`] call, surfaced as
/// the `sgns_vocab_build`, `sgns_sampler_build` and `sgns_epoch_loop` stage
/// rows of `BENCH_pipeline.json` and `BENCH_scale.json`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SgnsStats {
    /// Token counting, `min_count` cutoff + remap, init generation.
    pub vocab_seconds: f64,
    /// Unigram^0.75 weights + alias-table construction.
    pub sampler_seconds: f64,
    /// The batched epoch loop (segment compute + delta application).
    pub epochs_seconds: f64,
}

/// Precomputed sigmoid lookup: 1024 buckets over `[-MAX_EXP, MAX_EXP]`,
/// hard-saturated outside. Bucket values are the sigmoid at the bucket
/// centre (word2vec's classic table).
struct SigmoidTable {
    table: Vec<f32>,
}

impl SigmoidTable {
    fn new() -> Self {
        let mut table = vec![0.0f32; SIG_TABLE_SIZE];
        for (i, v) in table.iter_mut().enumerate() {
            let x = ((i as f32 + 0.5) / SIG_TABLE_SIZE as f32 * 2.0 - 1.0) * MAX_EXP;
            *v = 1.0 / (1.0 + (-x).exp());
        }
        SigmoidTable { table }
    }

    #[inline(always)]
    fn value(&self, x: f32) -> f32 {
        if x >= MAX_EXP {
            1.0
        } else if x <= -MAX_EXP {
            0.0
        } else {
            let idx = ((x + MAX_EXP) * (SIG_TABLE_SIZE as f32 / (2.0 * MAX_EXP))) as usize;
            self.table[idx.min(SIG_TABLE_SIZE - 1)]
        }
    }
}

/// splitmix64 finalizer — mixes seed material into per-doc rng seeds.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed for document `doc`'s private rng stream in `epoch`. A pure function
/// of `(cfg.seed, epoch, doc)`, so streams are identical no matter which
/// worker thread runs the document.
#[inline]
fn doc_seed(seed: u64, epoch: usize, doc: usize) -> u64 {
    let h = mix64(seed ^ 0x5347_4e53); // "SGNS" domain tag
    mix64(mix64(h ^ epoch as u64) ^ doc as u64)
}

/// 8-lane dot product with a fixed tree reduction. The lane accumulators
/// are independent, so the compiler can vectorise / pipeline them instead
/// of serialising on one f32 add chain; the final
/// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))` order is part of the numeric
/// contract. With `D > 0` the slices become fixed-size array references
/// (no per-element bounds checks); `D == 0` runs the same algorithm
/// dynamically, so monomorphisation stays a pure codegen win
/// (`deterministic_given_seed` pins the two paths against each other).
#[inline(always)]
fn dot_kernel<const D: usize>(a: &[f32], b: &[f32]) -> f32 {
    const LANES: usize = 8;
    let mut acc = [0.0f32; LANES];
    let mut tail = 0.0f32;
    if D > 0 {
        let a: &[f32; D] = a.try_into().expect("dim mismatch");
        let b: &[f32; D] = b.try_into().expect("dim mismatch");
        let mut k = 0;
        while k + LANES <= D {
            for l in 0..LANES {
                acc[l] += a[k + l] * b[k + l];
            }
            k += LANES;
        }
        while k < D {
            tail += a[k] * b[k];
            k += 1;
        }
    } else {
        let n = a.len();
        let mut k = 0;
        while k + LANES <= n {
            for l in 0..LANES {
                acc[l] += a[k + l] * b[k + l];
            }
            k += LANES;
        }
        while k < n {
            tail += a[k] * b[k];
            k += 1;
        }
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
}

/// The fused SGNS update: `grad += g·v_out` (reading the pre-update
/// effective output row) then `v_out += g·v_in`, element by element in
/// ascending order — the exact operation order of the classic sequential
/// trainer, applied to whichever storage holds the row (the live matrix on
/// the in-place path, the overlay working row on the parallel path).
#[inline(always)]
fn update_kernel<const D: usize>(grad: &mut [f32], vo: &mut [f32], vi: &[f32], g: f32) {
    if D > 0 {
        let grad: &mut [f32; D] = grad.try_into().expect("dim mismatch");
        let vo: &mut [f32; D] = vo.try_into().expect("dim mismatch");
        let vi: &[f32; D] = vi.try_into().expect("dim mismatch");
        for k in 0..D {
            grad[k] += g * vo[k];
            vo[k] += g * vi[k];
        }
    } else {
        for ((gr, o), inp) in grad.iter_mut().zip(vo.iter_mut()).zip(vi.iter()) {
            *gr += g * *o;
            *o += g * *inp;
        }
    }
}

/// Apply the accumulated centre-vector gradient: `v_in += grad`.
#[inline(always)]
fn apply_kernel<const D: usize>(vi: &mut [f32], grad: &[f32]) {
    if D > 0 {
        let vi: &mut [f32; D] = vi.try_into().expect("dim mismatch");
        let grad: &[f32; D] = grad.try_into().expect("dim mismatch");
        for k in 0..D {
            vi[k] += grad[k];
        }
    } else {
        for (inp, gr) in vi.iter_mut().zip(grad) {
            *inp += *gr;
        }
    }
}

/// The rows one segment has touched, in touch order. Epoch-stamped, so
/// starting a segment is O(1) amortised across segment reuses.
#[derive(Default)]
struct Touched {
    stamp: u32,
    stamps: Vec<u32>,
    rows: Vec<u32>,
}

impl Touched {
    fn begin(&mut self, n_rows: usize) {
        if self.stamps.len() < n_rows {
            self.stamps.resize(n_rows, 0);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.stamps.fill(0);
            self.stamp = 1;
        }
        self.rows.clear();
    }

    #[inline(always)]
    fn contains(&self, row: u32) -> bool {
        self.stamps[row as usize] == self.stamp
    }

    /// Record `row`; true on its first touch in this segment.
    #[inline(always)]
    fn insert(&mut self, row: u32) -> bool {
        if self.contains(row) {
            return false;
        }
        self.stamps[row as usize] = self.stamp;
        self.rows.push(row);
        true
    }
}

/// Per-matrix reusable segment state: the touched rows plus a row buffer
/// (the overlay's dense working copy, or the in-place store's saved rows).
#[derive(Default)]
struct Side {
    touched: Touched,
    buf: Vec<f32>,
}

/// One weight matrix as a segment sees it: the batch-start rows plus the
/// segment's own writes. Both stores perform identical floating-point
/// operations on identical values in the identical order; only where the
/// working row lives differs. That equivalence keeps the two bit-identical,
/// and the thread/chunk-invariance tests pin it.
trait Rows {
    /// The working row, writable; the first touch starts it from the
    /// batch-start contents.
    fn row_mut(&mut self, row: u32) -> &mut [f32];
    /// The effective row: the segment's write if any, batch-start otherwise.
    fn read(&self, row: u32) -> &[f32];
    /// Emit `(rows, current − batch-start)` in touch order (duplicate-free,
    /// so [`apply_deltas`] does not need them sorted) and leave the matrix
    /// at its batch-start contents.
    fn finish(&mut self) -> (Vec<u32>, Vec<f32>);
}

/// Copy-on-touch view over a frozen matrix: the first write to a row copies
/// it from `base` into a dense full-size working buffer, later accesses hit
/// the working row directly — no slot indirection in the hot path, and no
/// copy for a pure read.
struct Overlay<'a> {
    base: &'a [f32],
    dim: usize,
    side: &'a mut Side,
}

impl<'a> Overlay<'a> {
    fn new(base: &'a [f32], dim: usize, side: &'a mut Side) -> Self {
        side.touched.begin(base.len() / dim);
        if side.buf.len() < base.len() {
            side.buf.resize(base.len(), 0.0);
        }
        Overlay { base, dim, side }
    }
}

impl Rows for Overlay<'_> {
    #[inline(always)]
    fn row_mut(&mut self, row: u32) -> &mut [f32] {
        let s = row as usize * self.dim;
        let work = &mut self.side.buf[s..s + self.dim];
        if self.side.touched.insert(row) {
            work.copy_from_slice(&self.base[s..s + self.dim]);
        }
        work
    }

    #[inline(always)]
    fn read(&self, row: u32) -> &[f32] {
        let s = row as usize * self.dim;
        if self.side.touched.contains(row) {
            &self.side.buf[s..s + self.dim]
        } else {
            &self.base[s..s + self.dim]
        }
    }

    fn finish(&mut self) -> (Vec<u32>, Vec<f32>) {
        let rows = &self.side.touched.rows;
        let mut vals = Vec::with_capacity(rows.len() * self.dim);
        for &row in rows {
            let s = row as usize * self.dim;
            let (work, base) = (&self.side.buf[s..s + self.dim], &self.base[s..s + self.dim]);
            vals.extend(work.iter().zip(base).map(|(w, b)| w - b));
        }
        (rows.clone(), vals)
    }
}

/// The live matrix, updated in place: the first write to a row saves its
/// batch-start contents, and `finish` writes them back.
struct InPlace<'a> {
    live: &'a mut [f32],
    dim: usize,
    side: &'a mut Side,
}

impl<'a> InPlace<'a> {
    fn new(live: &'a mut [f32], dim: usize, side: &'a mut Side) -> Self {
        side.touched.begin(live.len() / dim);
        side.buf.clear();
        InPlace { live, dim, side }
    }
}

impl Rows for InPlace<'_> {
    #[inline(always)]
    fn row_mut(&mut self, row: u32) -> &mut [f32] {
        let s = row as usize * self.dim;
        let live = &mut self.live[s..s + self.dim];
        if self.side.touched.insert(row) {
            self.side.buf.extend_from_slice(live);
        }
        live
    }

    #[inline(always)]
    fn read(&self, row: u32) -> &[f32] {
        let s = row as usize * self.dim;
        &self.live[s..s + self.dim]
    }

    fn finish(&mut self) -> (Vec<u32>, Vec<f32>) {
        let rows = &self.side.touched.rows;
        let mut vals = Vec::with_capacity(rows.len() * self.dim);
        for (&row, saved) in rows.iter().zip(self.side.buf.chunks_exact(self.dim)) {
            let s = row as usize * self.dim;
            let live = &mut self.live[s..s + self.dim];
            vals.extend(live.iter().zip(saved).map(|(w, b)| w - b));
            live.copy_from_slice(saved);
        }
        (rows.clone(), vals)
    }
}

/// Per-worker reusable segment state, one [`Side`] per weight matrix.
#[derive(Default)]
struct SegScratch {
    inp: Side,
    out: Side,
}

thread_local! {
    static SEG_SCRATCH: RefCell<SegScratch> = RefCell::new(SegScratch::default());
}

/// Sparse weight deltas produced by one segment: `(rows, vals)` in touch
/// order for the input and output matrices.
struct SegmentDelta {
    inp: (Vec<u32>, Vec<f32>),
    out: (Vec<u32>, Vec<f32>),
}

/// Shared read-only schedule state for one epoch's segment computations.
/// Weight matrices reach the segment through its [`Rows`] stores, never
/// through this struct.
struct ScheduleCtx<'a> {
    docs: &'a [Vec<u32>],
    token_offset: &'a [usize],
    alias: &'a AliasTable,
    sig: &'a SigmoidTable,
    total_tokens: usize,
    total_steps: usize,
    epoch: usize,
    cfg: &'a SgnsConfig,
}

/// Run one segment `[seg.0, seg.1)` of documents against the batch-start
/// weights held by `inp` and `out`; returns the segment's sparse deltas and
/// leaves both matrices at batch start. Pure in `(ctx, weights, seg)` —
/// the stores reset their scratch on construction — which is what makes
/// the surrounding `parallel_map` deterministic.
fn run_segment<const D: usize, R: Rows>(
    ctx: &ScheduleCtx<'_>,
    mut inp: R,
    mut out: R,
    seg: (usize, usize),
) -> SegmentDelta {
    let mut grad = vec![0.0f32; ctx.cfg.dim];
    for d in seg.0..seg.1 {
        let doc = &ctx.docs[d];
        if doc.is_empty() {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(doc_seed(ctx.cfg.seed, ctx.epoch, d));
        let base_step = ctx.epoch * ctx.total_tokens + ctx.token_offset[d];
        for (i, &center) in doc.iter().enumerate() {
            let step = base_step + i;
            let lr = LR * (1.0 - step as f32 / ctx.total_steps as f32).max(1e-4);
            let win = 1 + rng.gen_range(0..ctx.cfg.window);
            let lo = i.saturating_sub(win);
            let hi = (i + win + 1).min(doc.len());
            let vi = inp.row_mut(center);
            for (j, &ctx_token) in doc.iter().enumerate().take(hi).skip(lo) {
                if j == i {
                    continue;
                }
                grad.fill(0.0);

                // One positive + `NEGATIVE` sampled draws, fused: draw,
                // dot, update. The rng stream is consumed in exactly this
                // order by both stores.
                for k in 0..=NEGATIVE {
                    let (target, label) = if k == 0 {
                        (ctx_token, 1.0f32)
                    } else {
                        let neg = ctx.alias.sample(&mut rng);
                        if neg == ctx_token {
                            continue;
                        }
                        (neg, 0.0)
                    };
                    let dot = dot_kernel::<D>(vi, out.read(target));
                    let g = (label - ctx.sig.value(dot)) * lr;
                    // Saturated sigmoid ⇒ exactly zero gradient: skip the
                    // two fused axpys and the first-touch copy entirely (a
                    // deterministic schedule decision, not an
                    // approximation).
                    if g != 0.0 {
                        update_kernel::<D>(&mut grad, out.row_mut(target), vi, g);
                    }
                }
                apply_kernel::<D>(vi, &grad);
            }
        }
    }
    SegmentDelta {
        inp: inp.finish(),
        out: out.finish(),
    }
}

/// Add every segment's sparse delta into `w`, in segment order per row.
///
/// Rows are sharded across workers (`parallel_mut_shards`), but each worker
/// walks `sides` — the per-segment `(rows, vals)` lists — in the same
/// ascending segment order. A segment's row list is duplicate-free (one
/// delta per touched row) though not sorted, so the additions hitting any
/// given row happen in segment order regardless of sharding: bit-identical
/// for every thread/shard configuration, including the sequential fallback.
fn apply_deltas(par: &ParallelConfig, w: &mut [f32], dim: usize, sides: &[(&[u32], &[f32])]) {
    let n_rows = w.len() / dim;
    if n_rows == 0 {
        return;
    }
    let shard_rows = n_rows.div_ceil(par.resolved_threads().max(1) * 4).max(1);
    parallel_mut_shards(par, w, shard_rows * dim, |offset, shard| {
        let row0 = offset / dim;
        let row_end = row0 + shard.len() / dim;
        for (rows, vals) in sides {
            for (i, &row) in rows.iter().enumerate() {
                let r = row as usize;
                if r < row0 || r >= row_end {
                    continue;
                }
                let dst = &mut shard[(r - row0) * dim..(r - row0 + 1) * dim];
                let src = &vals[i * dim..(i + 1) * dim];
                for k in 0..dim {
                    dst[k] += src[k];
                }
            }
        }
    });
}

/// Train SGNS embeddings over `docs` (documents of word ids drawn from
/// `0..vocab_size`). Returns the input-vector matrix.
///
/// The configured default `dim = 32` dispatches to kernels monomorphised on
/// the dimensionality (no per-element bounds checks in the SGD inner loop);
/// any other `dim` runs the generic path. Embeddings are bit-identical
/// either way, and bit-identical across every
/// [`SgnsConfig::parallel`] `threads`/`chunk_size` choice (see the module
/// docs for the deterministic batch/segment schedule).
pub fn train_sgns(docs: &[Vec<u32>], vocab_size: usize, cfg: &SgnsConfig) -> Embeddings {
    train_sgns_with_stats(docs, vocab_size, cfg).0
}

/// [`train_sgns`] plus a wall-clock [`SgnsStats`] breakdown of the three
/// training phases (vocabulary build, sampler build, epoch loop).
pub fn train_sgns_with_stats(
    docs: &[Vec<u32>],
    vocab_size: usize,
    cfg: &SgnsConfig,
) -> (Embeddings, SgnsStats) {
    match cfg.dim {
        32 => train_sgns_dim::<32>(docs, vocab_size, cfg),
        _ => train_sgns_dim::<0>(docs, vocab_size, cfg),
    }
}

/// [`train_sgns_with_stats`] with the vector kernels monomorphised on `D`
/// (`0` = the dynamic generic path; otherwise `D` must equal `cfg.dim`).
fn train_sgns_dim<const D: usize>(
    docs: &[Vec<u32>],
    vocab_size: usize,
    cfg: &SgnsConfig,
) -> (Embeddings, SgnsStats) {
    assert!(
        cfg.dim > 0 && cfg.window > 0,
        "dim and window must be positive"
    );
    assert!(D == 0 || D == cfg.dim, "monomorphised dim mismatch");
    let dim = cfg.dim;
    let mut stats = SgnsStats::default();

    // ---- Phase 1: vocabulary — counts, min_count cutoff, exact remap. ----
    let t_vocab = Instant::now();
    let mut counts = vec![0u64; vocab_size];
    for doc in docs {
        for &w in doc {
            counts[w as usize] += 1;
        }
    }
    // Words below the cutoff leave the training stream entirely; words
    // that never occur are dropped as well (their sampler weight is zero).
    let cutoff = cfg.min_count.max(1);
    let kept: Vec<u32> = (0..vocab_size as u32)
        .filter(|&w| counts[w as usize] >= cutoff)
        .collect();
    let mut remap: Vec<u32> = vec![u32::MAX; vocab_size];
    for (c, &w) in kept.iter().enumerate() {
        remap[w as usize] = c as u32;
    }
    // Remapped corpus: dropped tokens removed, document positions kept (doc
    // index feeds the per-doc rng seed, so empty docs must stay in place).
    let cdocs: Vec<Vec<u32>> = docs
        .iter()
        .map(|doc| {
            doc.iter()
                .filter_map(|&w| {
                    let c = remap[w as usize];
                    (c != u32::MAX).then_some(c)
                })
                .collect()
        })
        .collect();
    let ccounts: Vec<u64> = kept.iter().map(|&w| counts[w as usize]).collect();
    // Token prefix sums: document d's first token sits at global step
    // `epoch·total_tokens + token_offset[d]` — the lr schedule is a pure
    // function of position, independent of which thread runs the doc.
    let mut token_offset = Vec::with_capacity(cdocs.len() + 1);
    let mut acc = 0usize;
    token_offset.push(0);
    for d in &cdocs {
        acc += d.len();
        token_offset.push(acc);
    }
    let total_tokens = acc;
    // Full-vocabulary init from the seed's global stream; kept rows are
    // gathered for training and scattered back at the end, so dropped words
    // keep exactly the init they would get from an empty corpus.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut init: Vec<f32> = (0..vocab_size * dim)
        .map(|_| (rng.gen::<f32>() - 0.5) / dim as f32)
        .collect();
    let mut w_in: Vec<f32> = Vec::with_capacity(kept.len() * dim);
    for &w in &kept {
        let b = w as usize * dim;
        w_in.extend_from_slice(&init[b..b + dim]);
    }
    stats.vocab_seconds = t_vocab.elapsed().as_secs_f64();

    // ---- Phase 2: negative sampler — unigram^0.75 alias table. ----
    let t_sampler = Instant::now();
    let total_pow: f64 = ccounts.iter().map(|&c| (c as f64).powf(0.75)).sum();
    let alias = if total_pow > 0.0 {
        // Integer weights summing to *exactly* 2^16 (largest-remainder
        // rounding of the unigram^0.75 shares), so the alias table's
        // power-of-two fast path engages: one masked 32-bit draw per
        // negative sample, no division.
        let ideal: Vec<f64> = ccounts
            .iter()
            .map(|&c| (c as f64).powf(0.75) / total_pow * (1u64 << 16) as f64)
            .collect();
        let mut weights: Vec<u64> = ideal.iter().map(|&x| x as u64).collect();
        let assigned: u64 = weights.iter().sum();
        let mut order: Vec<u32> = (0..weights.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            let fa = ideal[a as usize] - ideal[a as usize].floor();
            let fb = ideal[b as usize] - ideal[b as usize].floor();
            fb.partial_cmp(&fa).unwrap().then(a.cmp(&b))
        });
        let mut left = (1u64 << 16).saturating_sub(assigned) as usize;
        let mut i = 0usize;
        while left > 0 {
            weights[order[i % order.len()] as usize] += 1;
            i += 1;
            left -= 1;
        }
        AliasTable::new(&weights)
    } else {
        None
    };
    stats.sampler_seconds = t_sampler.elapsed().as_secs_f64();
    let Some(alias) = alias else {
        return (Embeddings::from_flat(dim, init), stats);
    };

    // ---- Phase 3: the batched epoch loop. ----
    let t_epochs = Instant::now();
    let mut w_out: Vec<f32> = vec![0.0; kept.len() * dim];
    let total_steps = (total_tokens * cfg.epochs).max(1);
    let sequential = cfg.parallel.resolved_threads() <= 1;
    let sig = SigmoidTable::new();
    for epoch in 0..cfg.epochs {
        for batch_start in (0..cdocs.len()).step_by(BATCH_DOCS) {
            let batch_end = (batch_start + BATCH_DOCS).min(cdocs.len());
            let segs: Vec<(usize, usize)> = (batch_start..batch_end)
                .step_by(SEGMENT_DOCS)
                .map(|s| (s, (s + SEGMENT_DOCS).min(batch_end)))
                .collect();
            let ctx = ScheduleCtx {
                docs: &cdocs,
                token_offset: &token_offset,
                alias: &alias,
                sig: &sig,
                total_tokens,
                total_steps,
                epoch,
                cfg,
            };
            // One worker updates the live matrices in place; otherwise
            // overlay segments fan out over the frozen ones.
            let deltas: Vec<SegmentDelta> = if sequential {
                SEG_SCRATCH.with(|s| {
                    let SegScratch { inp, out } = &mut *s.borrow_mut();
                    segs.iter()
                        .map(|&seg| {
                            let inp = InPlace::new(&mut w_in, dim, inp);
                            run_segment::<D, _>(&ctx, inp, InPlace::new(&mut w_out, dim, out), seg)
                        })
                        .collect()
                })
            } else {
                parallel_map(&cfg.parallel, &segs, |&seg| {
                    SEG_SCRATCH.with(|s| {
                        let SegScratch { inp, out } = &mut *s.borrow_mut();
                        let inp = Overlay::new(&w_in, dim, inp);
                        run_segment::<D, _>(&ctx, inp, Overlay::new(&w_out, dim, out), seg)
                    })
                })
            };
            let in_sides: Vec<(&[u32], &[f32])> = deltas
                .iter()
                .map(|d| (d.inp.0.as_slice(), d.inp.1.as_slice()))
                .collect();
            apply_deltas(&cfg.parallel, &mut w_in, dim, &in_sides);
            let out_sides: Vec<(&[u32], &[f32])> = deltas
                .iter()
                .map(|d| (d.out.0.as_slice(), d.out.1.as_slice()))
                .collect();
            apply_deltas(&cfg.parallel, &mut w_out, dim, &out_sides);
        }
    }
    stats.epochs_seconds = t_epochs.elapsed().as_secs_f64();

    // Scatter trained rows back into the full-vocabulary init.
    for (c, &w) in kept.iter().enumerate() {
        init[w as usize * dim..][..dim].copy_from_slice(&w_in[c * dim..][..dim]);
    }
    (Embeddings::from_flat(dim, init), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::cosine;

    /// Two disjoint topic vocabularies; words co-occur only within a topic.
    fn topic_corpus(seed: u64) -> Vec<Vec<u32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut docs = Vec::new();
        for _ in 0..400 {
            let topic = rng.gen_range(0..2u32);
            let base = topic * 8;
            let len = rng.gen_range(4..9);
            docs.push((0..len).map(|_| base + rng.gen_range(0..8)).collect());
        }
        docs
    }

    #[test]
    fn same_topic_words_closer_than_cross_topic() {
        let docs = topic_corpus(3);
        let emb = train_sgns(
            &docs,
            16,
            &SgnsConfig {
                dim: 16,
                epochs: 8,
                ..Default::default()
            },
        );
        // Average within-topic vs cross-topic cosine.
        let mut within = 0.0;
        let mut cross = 0.0;
        let mut n_within = 0;
        let mut n_cross = 0;
        for a in 0..16u32 {
            for b in (a + 1)..16 {
                let c = cosine(emb.get(a), emb.get(b));
                if (a < 8) == (b < 8) {
                    within += c;
                    n_within += 1;
                } else {
                    cross += c;
                    n_cross += 1;
                }
            }
        }
        let within = within / n_within as f64;
        let cross = cross / n_cross as f64;
        assert!(
            within > cross + 0.2,
            "within {within:.3} should exceed cross {cross:.3}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let docs = topic_corpus(5);
        let cfg = SgnsConfig {
            dim: 8,
            epochs: 1,
            ..Default::default()
        };
        let a = train_sgns(&docs, 16, &cfg);
        let b = train_sgns(&docs, 16, &cfg);
        assert_eq!(a.get(3), b.get(3));

        // The default dim (32) dispatches to the monomorphised kernels;
        // pin them against the generic path — embeddings must be
        // bit-identical, not approximately equal.
        let cfg32 = SgnsConfig {
            dim: 32,
            epochs: 1,
            ..Default::default()
        };
        let mono = train_sgns(&docs, 16, &cfg32);
        let generic = train_sgns_dim::<0>(&docs, 16, &cfg32).0;
        for w in 0..16u32 {
            assert_eq!(mono.get(w), generic.get(w), "word {w}");
        }
    }

    #[test]
    fn bit_identical_across_thread_and_chunk_configs() {
        let docs = topic_corpus(9);
        let reference = train_sgns(&docs, 16, &SgnsConfig::default());
        for threads in [1, 3] {
            for chunk_size in [7, 64] {
                let cfg = SgnsConfig {
                    parallel: ParallelConfig {
                        threads,
                        chunk_size,
                    },
                    ..Default::default()
                };
                let emb = train_sgns(&docs, 16, &cfg);
                for w in 0..16u32 {
                    assert_eq!(
                        reference.get(w),
                        emb.get(w),
                        "word {w} threads={threads} chunk={chunk_size}"
                    );
                }
            }
        }
    }

    /// `min_count` removes rare words from the stream with *exact*
    /// remapping: pre-filtering the corpus by hand and training with
    /// `min_count = 1` is bit-identical, and dropped words keep the rows
    /// an empty corpus would give them.
    #[test]
    fn min_count_remapping_is_exact() {
        let mut docs = topic_corpus(11);
        // Word 16 appears once (rare), word 17 never.
        docs[0].push(16);
        let cfg = SgnsConfig {
            min_count: 2,
            ..Default::default()
        };
        let trained = train_sgns(&docs, 18, &cfg);

        // Hand-filtered corpus: drop tokens occurring < 2 times.
        let mut counts = [0u64; 18];
        for doc in &docs {
            for &w in doc {
                counts[w as usize] += 1;
            }
        }
        let filtered: Vec<Vec<u32>> = docs
            .iter()
            .map(|d| {
                d.iter()
                    .copied()
                    .filter(|&w| counts[w as usize] >= 2)
                    .collect()
            })
            .collect();
        let cfg1 = SgnsConfig {
            min_count: 1,
            ..Default::default()
        };
        let prefiltered = train_sgns(&filtered, 18, &cfg1);
        for w in 0..18u32 {
            assert_eq!(trained.get(w), prefiltered.get(w), "word {w}");
        }

        // Dropped words keep their seeded init rows.
        let init_only = train_sgns(&[], 18, &cfg);
        assert_eq!(trained.get(16), init_only.get(16));
        assert_eq!(trained.get(17), init_only.get(17));
        assert_ne!(trained.get(0), init_only.get(0));
    }

    /// Pins the trained embeddings themselves, so a drift in a schedule
    /// constant, in either segment store or in a kernel fails here rather
    /// than only through the pipeline fingerprint. The corpus spans two
    /// batches (2400 docs), so `BATCH_DOCS` and `SEGMENT_DOCS` both shape
    /// it; threads 1 and 3 run the in-place and overlay stores.
    #[test]
    fn schedule_golden() {
        let docs: Vec<Vec<u32>> = (1..=6).flat_map(topic_corpus).collect();
        for threads in [1, 3] {
            let cfg = SgnsConfig {
                parallel: ParallelConfig {
                    threads,
                    chunk_size: 1,
                },
                ..Default::default()
            };
            let emb = train_sgns(&docs, 16, &cfg);
            let mut h = 0u64;
            for w in 0..16u32 {
                for &x in emb.get(w) {
                    h = mix64(h ^ u64::from(x.to_bits()));
                }
            }
            assert_eq!(h, 0x31ab_fdee_e7d7_383e, "threads={threads}: {h:#018x}");
        }
    }

    #[test]
    fn empty_corpus_returns_random_init() {
        let emb = train_sgns(&[], 4, &SgnsConfig::default());
        assert_eq!(emb.len(), 4);
    }

    #[test]
    fn sigmoid_table_saturates() {
        let sig = SigmoidTable::new();
        assert_eq!(sig.value(100.0), 1.0);
        assert_eq!(sig.value(-100.0), 0.0);
        assert!((sig.value(0.0) - 0.5).abs() < 1e-2);
        // Monotone over the table range.
        let mut prev = 0.0;
        for i in -60..=60 {
            let v = sig.value(i as f32 / 10.0);
            assert!(v >= prev, "sigmoid table must be monotone");
            prev = v;
        }
    }
}
