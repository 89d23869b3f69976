//! Skip-gram with negative sampling (Mikolov et al., 2013), from scratch —
//! deterministically parallel.
//!
//! The trainer processes documents in fixed *batches* (default 2048 docs),
//! each split into fixed *segments* (default 256 docs). Every segment
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
//! thread count. `batch_docs` and `segment_docs` *are* part of the
//! schedule — changing them changes results (unlike `parallel`, which
//! never does).
//!
//! Two execution paths produce the segment deltas, dispatched on thread
//! count and pinned bit-identical to each other:
//!
//! * **Parallel** (`run_segment`): the weight matrices stay immutable; an
//!   `Overlay` gives each worker copy-on-touch value semantics over both
//!   matrices, so reads always see the segment's own writes and untouched
//!   rows cost nothing.
//! * **Sequential in-place** (`run_segment_inplace`): a single worker
//!   updates the live matrices directly and an `UndoLog` restores the
//!   batch-start state while emitting the same deltas — half the
//!   random-access working set, no copies on the read side.
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

/// SGNS hyper-parameters.
#[derive(Debug, Clone)]
pub struct SgnsConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Max distance between centre and context word.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negative: usize,
    /// Full passes over the corpus.
    pub epochs: usize,
    /// Initial learning rate (decays linearly to 1e-4 of itself).
    pub lr: f32,
    /// RNG seed. Drives the full-vocabulary random init, each document's
    /// private sampling stream, and nothing else.
    pub seed: u64,
    /// Vocabulary frequency cutoff: words occurring fewer than `min_count`
    /// times in the corpus are removed from the training stream (exact
    /// remapping — training a pre-filtered corpus with `min_count = 1` is
    /// bit-identical). Dropped words keep their seeded random init rows.
    /// Values `<= 1` keep every word that appears.
    pub min_count: u64,
    /// Documents per weight-synchronisation batch. Segments within a batch
    /// read batch-start weights and their deltas merge at batch end, so this
    /// knob trades gradient freshness for parallel slack. Part of the
    /// deterministic schedule: changing it changes results (unlike
    /// `parallel`, which never does).
    pub batch_docs: usize,
    /// Documents per segment — the unit of work handed to one worker, and
    /// the scope of read-your-writes against the batch-start weights. The
    /// batch is split into `batch_docs / segment_docs` segments, so this
    /// knob trades per-segment bookkeeping (each segment pays one
    /// copy/delta per row it touches) against parallel fan-out. Part of
    /// the deterministic schedule, like `batch_docs`.
    pub segment_docs: usize,
    /// Thread fan-out for segment compute and delta application. Outputs
    /// are bit-identical for every `threads`/`chunk_size` choice.
    pub parallel: ParallelConfig,
}

impl Default for SgnsConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            window: 4,
            negative: 5,
            epochs: 3,
            lr: 0.05,
            seed: 1,
            min_count: 2,
            batch_docs: 2048,
            segment_docs: 256,
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

/// Copy-on-touch view over a frozen weight matrix: the first access to a
/// row copies it from `base` into a dense full-size working buffer, later
/// accesses (and all writes) hit the working row directly — no slot
/// indirection in the hot path. Epoch-stamped so `begin` is O(1) amortised
/// across segment reuses.
#[derive(Default)]
struct Overlay {
    stamp: u32,
    stamps: Vec<u32>,
    work: Vec<f32>,
    rows: Vec<u32>,
}

impl Overlay {
    fn begin(&mut self, n_rows: usize, dim: usize) {
        if self.stamps.len() < n_rows {
            self.stamps.resize(n_rows, 0);
        }
        if self.work.len() < n_rows * dim {
            self.work.resize(n_rows * dim, 0.0);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.stamps.fill(0);
            self.stamp = 1;
        }
        self.rows.clear();
    }

    #[inline(always)]
    fn row_mut(&mut self, row: u32, base: &[f32], dim: usize) -> &mut [f32] {
        let r = row as usize;
        let s = r * dim;
        if self.stamps[r] != self.stamp {
            self.stamps[r] = self.stamp;
            self.rows.push(row);
            self.work[s..s + dim].copy_from_slice(&base[s..s + dim]);
        }
        &mut self.work[s..s + dim]
    }

    /// Read the *effective* row: the working copy when this segment has
    /// already written the row, the frozen `base` row otherwise (no copy is
    /// made for a pure read).
    #[inline(always)]
    fn read<'a>(&'a self, row: u32, base: &'a [f32], dim: usize) -> &'a [f32] {
        let r = row as usize;
        let s = r * dim;
        if self.stamps[r] == self.stamp {
            &self.work[s..s + dim]
        } else {
            &base[s..s + dim]
        }
    }

    /// Emit `(rows, overlay − base)` in touch order (per-segment row sets
    /// are duplicate-free, so [`apply_deltas`] does not need them sorted).
    fn delta(&self, base: &[f32], dim: usize) -> (Vec<u32>, Vec<f32>) {
        let mut vals = Vec::with_capacity(self.rows.len() * dim);
        for &row in &self.rows {
            let s = row as usize * dim;
            for k in 0..dim {
                vals.push(self.work[s + k] - base[s + k]);
            }
        }
        (self.rows.clone(), vals)
    }
}

/// Undo log for the sequential in-place fast path: the first touch of a
/// row saves its pre-segment (frozen) contents, updates then hit the live
/// matrix directly. At segment end [`UndoLog::delta_and_restore`] emits
/// `current − saved` and writes the saved rows back, leaving the matrix at
/// its batch-start state again.
///
/// This is the same mathematics as [`Overlay`] — identical floating-point
/// operations on identical values in the identical order; only the storage
/// location of the working row differs (the live matrix here, a side
/// buffer there). That equivalence is what keeps the sequential path
/// bit-identical to the parallel overlay path, and the
/// thread/chunk-invariance tests pin it.
#[derive(Default)]
struct UndoLog {
    stamp: u32,
    stamps: Vec<u32>,
    rows: Vec<u32>,
    saved: Vec<f32>,
}

impl UndoLog {
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
        self.saved.clear();
    }

    /// The live row, saving its frozen contents on first touch.
    #[inline(always)]
    fn row_mut<'w>(&mut self, w: &'w mut [f32], row: u32, dim: usize) -> &'w mut [f32] {
        let r = row as usize;
        let s = r * dim;
        if self.stamps[r] != self.stamp {
            self.stamps[r] = self.stamp;
            self.rows.push(row);
            self.saved.extend_from_slice(&w[s..s + dim]);
        }
        &mut w[s..s + dim]
    }

    /// Emit `(rows, current − saved)` in touch order and restore every
    /// touched row of `w` to its saved (batch-start) contents.
    fn delta_and_restore(&self, w: &mut [f32], dim: usize) -> (Vec<u32>, Vec<f32>) {
        let mut vals = Vec::with_capacity(self.rows.len() * dim);
        for (i, &row) in self.rows.iter().enumerate() {
            let s = row as usize * dim;
            let saved = &self.saved[i * dim..(i + 1) * dim];
            for k in 0..dim {
                vals.push(w[s + k] - saved[k]);
            }
            w[s..s + dim].copy_from_slice(saved);
        }
        (self.rows.clone(), vals)
    }
}

/// Per-worker reusable segment state. The overlays serve the parallel
/// path, the undo logs the sequential in-place path; a worker only ever
/// exercises one pair per training run, and the unused pair stays empty.
#[derive(Default)]
struct SegScratch {
    in_ov: Overlay,
    out_ov: Overlay,
    in_undo: UndoLog,
    out_undo: UndoLog,
    grad: Vec<f32>,
}

thread_local! {
    static SEG_SCRATCH: RefCell<SegScratch> = RefCell::new(SegScratch::default());
}

/// Sparse weight deltas produced by one segment: row-sorted `(rows, vals)`
/// for the input and output matrices.
struct SegmentDelta {
    inp: (Vec<u32>, Vec<f32>),
    out: (Vec<u32>, Vec<f32>),
}

/// Shared read-only schedule state for one epoch's segment computations.
/// Weight matrices are passed alongside (immutably on the parallel path,
/// mutably on the in-place path), never through this struct.
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

/// Run one segment `[seg.0, seg.1)` of documents against the frozen
/// batch-start weights; returns the segment's sparse deltas. Pure in
/// `(ctx, weights, seg)` — scratch is reset per call — which is what makes
/// the surrounding `parallel_map` deterministic.
fn run_segment<const D: usize>(
    ctx: &ScheduleCtx<'_>,
    w_in: &[f32],
    w_out: &[f32],
    seg: (usize, usize),
    s: &mut SegScratch,
) -> SegmentDelta {
    let dim = ctx.cfg.dim;
    let n_rows = w_in.len() / dim;
    s.in_ov.begin(n_rows, dim);
    s.out_ov.begin(n_rows, dim);
    if s.grad.len() != dim {
        s.grad.clear();
        s.grad.resize(dim, 0.0);
    }
    let SegScratch {
        in_ov,
        out_ov,
        grad,
        ..
    } = s;
    for d in seg.0..seg.1 {
        let doc = &ctx.docs[d];
        if doc.is_empty() {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(doc_seed(ctx.cfg.seed, ctx.epoch, d));
        let base_step = ctx.epoch * ctx.total_tokens + ctx.token_offset[d];
        for (i, &center) in doc.iter().enumerate() {
            let step = base_step + i;
            let lr = ctx.cfg.lr * (1.0 - step as f32 / ctx.total_steps as f32).max(1e-4);
            let win = 1 + rng.gen_range(0..ctx.cfg.window);
            let lo = i.saturating_sub(win);
            let hi = (i + win + 1).min(doc.len());
            let vi = in_ov.row_mut(center, w_in, dim);
            for (j, &ctx_token) in doc.iter().enumerate().take(hi).skip(lo) {
                if j == i {
                    continue;
                }
                grad.fill(0.0);

                // One positive + `negative` sampled draws, fused: draw,
                // dot, update. The rng stream is consumed in exactly this
                // order by both execution paths.
                for k in 0..=ctx.cfg.negative {
                    let (target, label) = if k == 0 {
                        (ctx_token, 1.0f32)
                    } else {
                        let neg = ctx.alias.sample(&mut rng);
                        if neg == ctx_token {
                            continue;
                        }
                        (neg, 0.0)
                    };
                    // Read-your-writes with value semantics: the effective
                    // output row is the overlay's working copy once this
                    // segment has written the row, the frozen batch-start
                    // row before that — a single dot either way.
                    let dot = dot_kernel::<D>(vi, out_ov.read(target, w_out, dim));
                    let g = (label - ctx.sig.value(dot)) * lr;
                    // Saturated sigmoid ⇒ exactly zero gradient: skip the
                    // two fused axpys and the copy-on-write touch entirely
                    // (a deterministic schedule decision, not an
                    // approximation).
                    if g != 0.0 {
                        let vo = out_ov.row_mut(target, w_out, dim);
                        update_kernel::<D>(grad, vo, vi, g);
                    }
                }
                apply_kernel::<D>(vi, grad);
            }
        }
    }
    SegmentDelta {
        inp: in_ov.delta(w_in, dim),
        out: out_ov.delta(w_out, dim),
    }
}

/// The sequential fast path: the same schedule and arithmetic as
/// [`run_segment`], but updates hit the live matrices directly and an
/// [`UndoLog`] restores them to their batch-start contents afterwards.
/// That halves the random-access working set (the dots walk `w_in`/`w_out`
/// themselves, no side buffers), which is the whole point — it is only
/// dispatched when a single worker runs every segment in order. Emits
/// deltas bit-identical to the overlay path's (see [`UndoLog`]).
fn run_segment_inplace<const D: usize>(
    ctx: &ScheduleCtx<'_>,
    w_in: &mut [f32],
    w_out: &mut [f32],
    seg: (usize, usize),
    s: &mut SegScratch,
) -> SegmentDelta {
    let dim = ctx.cfg.dim;
    let n_rows = w_in.len() / dim;
    s.in_undo.begin(n_rows);
    s.out_undo.begin(n_rows);
    if s.grad.len() != dim {
        s.grad.clear();
        s.grad.resize(dim, 0.0);
    }
    let SegScratch {
        in_undo,
        out_undo,
        grad,
        ..
    } = s;
    for d in seg.0..seg.1 {
        let doc = &ctx.docs[d];
        if doc.is_empty() {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(doc_seed(ctx.cfg.seed, ctx.epoch, d));
        let base_step = ctx.epoch * ctx.total_tokens + ctx.token_offset[d];
        for (i, &center) in doc.iter().enumerate() {
            let step = base_step + i;
            let lr = ctx.cfg.lr * (1.0 - step as f32 / ctx.total_steps as f32).max(1e-4);
            let win = 1 + rng.gen_range(0..ctx.cfg.window);
            let lo = i.saturating_sub(win);
            let hi = (i + win + 1).min(doc.len());
            let vi = in_undo.row_mut(&mut *w_in, center, dim);
            for (j, &ctx_token) in doc.iter().enumerate().take(hi).skip(lo) {
                if j == i {
                    continue;
                }
                grad.fill(0.0);

                // The same fused draw-dot-update loop as the overlay path;
                // the live matrix is the only storage there is.
                for k in 0..=ctx.cfg.negative {
                    let (target, label) = if k == 0 {
                        (ctx_token, 1.0f32)
                    } else {
                        let neg = ctx.alias.sample(&mut rng);
                        if neg == ctx_token {
                            continue;
                        }
                        (neg, 0.0)
                    };
                    let ti = target as usize * dim;
                    // The live row *is* the effective row.
                    let dot = dot_kernel::<D>(vi, &w_out[ti..ti + dim]);
                    let g = (label - ctx.sig.value(dot)) * lr;
                    if g != 0.0 {
                        let vo = out_undo.row_mut(&mut *w_out, target, dim);
                        update_kernel::<D>(grad, vo, vi, g);
                    }
                }
                apply_kernel::<D>(vi, grad);
            }
        }
    }
    SegmentDelta {
        inp: in_undo.delta_and_restore(w_in, dim),
        out: out_undo.delta_and_restore(w_out, dim),
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
    let batch_docs = cfg.batch_docs.max(1);
    let segment_docs = cfg.segment_docs.max(1);
    let sequential = cfg.parallel.resolved_threads() <= 1;
    let sig = SigmoidTable::new();
    for epoch in 0..cfg.epochs {
        let mut batch_start = 0;
        while batch_start < cdocs.len() {
            let batch_end = (batch_start + batch_docs).min(cdocs.len());
            let mut segs: Vec<(usize, usize)> = Vec::new();
            let mut s = batch_start;
            while s < batch_end {
                segs.push((s, (s + segment_docs).min(batch_end)));
                s += segment_docs;
            }
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
            // One worker ⇒ the in-place fast path (same deltas, half the
            // random working set); otherwise overlay segments fan out.
            let deltas = if sequential {
                SEG_SCRATCH.with(|s| {
                    let s = &mut *s.borrow_mut();
                    segs.iter()
                        .map(|&seg| run_segment_inplace::<D>(&ctx, &mut w_in, &mut w_out, seg, s))
                        .collect::<Vec<_>>()
                })
            } else {
                parallel_map(&cfg.parallel, &segs, |&seg| {
                    SEG_SCRATCH
                        .with(|s| run_segment::<D>(&ctx, &w_in, &w_out, seg, &mut s.borrow_mut()))
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
            batch_start = batch_end;
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

#[cfg(test)]
mod perf_probe {
    use super::*;

    /// Per-component micro timings.
    #[test]
    #[ignore]
    fn micro() {
        let vocab = 3551usize;
        let dim = 32usize;
        let n = 5_000_000u64;
        let mut weights: Vec<u64> = (0..vocab as u64).map(|w| 65536 / (w + 1)).collect();
        // Rescale to a power-of-two total so the division-free sample path
        // engages, as it does for the weights Phase 2 produces.
        let tot: u64 = weights.iter().sum();
        let mut acc_units = 0u64;
        for w in &mut weights {
            *w = *w * 65536 / tot;
            acc_units += *w;
        }
        weights[0] += 65536 - acc_units;
        let alias = AliasTable::new(&weights).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let w: Vec<f32> = (0..vocab * dim).map(|_| rng.gen::<f32>() - 0.5).collect();

        let t = Instant::now();
        let mut acc = 0u64;
        for _ in 0..n {
            acc += alias.sample(&mut rng) as u64;
        }
        eprintln!(
            "alias.sample: {:.1}ns ({acc})",
            t.elapsed().as_secs_f64() / n as f64 * 1e9
        );

        let t = Instant::now();
        let mut acc = 0u64;
        for _ in 0..n {
            acc += rng.gen_range(0..1_000_000_000u64);
        }
        eprintln!(
            "rng u64 range: {:.1}ns ({acc})",
            t.elapsed().as_secs_f64() / n as f64 * 1e9
        );

        // The pre-refactor linear unigram table, for comparison.
        let mut linear: Vec<u32> = Vec::with_capacity(1 << 16);
        let tot: u64 = weights.iter().sum();
        for (wd, &c) in weights.iter().enumerate() {
            let slots = ((c as f64 / tot as f64) * (1 << 16) as f64).ceil() as usize;
            linear.extend(std::iter::repeat_n(wd as u32, slots));
        }
        let t = Instant::now();
        let mut acc = 0u64;
        for _ in 0..n {
            acc += linear[rng.gen_range(0..linear.len())] as u64;
        }
        eprintln!(
            "linear table sample: {:.1}ns ({acc})",
            t.elapsed().as_secs_f64() / n as f64 * 1e9
        );

        let sigt = SigmoidTable::new();
        let t = Instant::now();
        let mut acc = 0.0f32;
        let mut x = -5.0f32;
        for _ in 0..n {
            x = if x > 5.0 { -5.0 } else { x + 1e-6 };
            acc += sigt.value(x);
        }
        eprintln!(
            "sigmoid table: {:.1}ns ({acc})",
            t.elapsed().as_secs_f64() / n as f64 * 1e9
        );
        let t = Instant::now();
        let mut acc = 0.0f32;
        let mut x = -5.0f32;
        for _ in 0..n {
            x = if x > 5.0 { -5.0 } else { x + 1e-6 };
            acc += 1.0 / (1.0 + (-x).exp());
        }
        eprintln!(
            "sigmoid expf: {:.1}ns ({acc})",
            t.elapsed().as_secs_f64() / n as f64 * 1e9
        );

        let vi: Vec<f32> = (0..dim).map(|i| i as f32 * 0.01).collect();
        let t = Instant::now();
        let mut acc = 0.0f32;
        let mut r = 12345u64;
        for _ in 0..n {
            r = super::mix64(r);
            let row = (r as usize) % vocab;
            acc += dot_kernel::<32>(&vi, &w[row * dim..row * dim + dim]);
        }
        eprintln!(
            "random-row dot32: {:.1}ns ({acc})",
            t.elapsed().as_secs_f64() / n as f64 * 1e9
        );

        let t = Instant::now();
        let mut acc = 0.0f32;
        let mut r = 12345u64;
        for _ in 0..n {
            r = super::mix64(r);
            let row = (r as usize) % vocab;
            let b: &[f32; 32] = (&w[row * dim..row * dim + dim]).try_into().unwrap();
            let mut dot = 0.0f32;
            for k in 0..32 {
                dot += vi[k] * b[k];
            }
            acc += dot;
        }
        eprintln!(
            "random-row serial dot32: {:.1}ns ({acc})",
            t.elapsed().as_secs_f64() / n as f64 * 1e9
        );

        let mut ov = Overlay::default();
        let t = Instant::now();
        let mut acc = 0.0f32;
        let mut r = 999u64;
        let seg_draws = 1300usize;
        let rounds = (n as usize) / seg_draws;
        for _ in 0..rounds {
            ov.begin(vocab, dim);
            for _ in 0..seg_draws {
                r = super::mix64(r);
                let row = ((r as usize) % vocab) as u32;
                let vo = ov.row_mut(row, &w, dim);
                vo[0] += 1.0;
            }
            acc += ov.delta(&w, dim).1.iter().sum::<f32>();
        }
        eprintln!(
            "overlay touch+emit: {:.1}ns/touch ({acc})",
            t.elapsed().as_secs_f64() / (rounds * seg_draws) as f64 * 1e9
        );

        let mut live = w.clone();
        let mut undo = UndoLog::default();
        let t = Instant::now();
        let mut acc = 0.0f32;
        let mut r = 999u64;
        for _ in 0..rounds {
            undo.begin(vocab);
            for _ in 0..seg_draws {
                r = super::mix64(r);
                let row = ((r as usize) % vocab) as u32;
                let vo = undo.row_mut(&mut live, row, dim);
                vo[0] += 1.0;
            }
            acc += undo.delta_and_restore(&mut live, dim).1.iter().sum::<f32>();
        }
        eprintln!(
            "undo-log touch+emit: {:.1}ns/touch ({acc})",
            t.elapsed().as_secs_f64() / (rounds * seg_draws) as f64 * 1e9
        );
    }

    /// Manual timing probe (not a test of behaviour): `cargo test -p
    /// iuad-text --release perf_probe -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn probe() {
        // Zipf-ish synthetic stream shaped like the 12k-paper bench corpus.
        let mut rng = StdRng::seed_from_u64(7);
        let vocab = 8000usize;
        let ln_v = (vocab as f32 + 1.0).ln();
        let docs: Vec<Vec<u32>> = (0..12000)
            .map(|_| {
                let len = rng.gen_range(4..10);
                (0..len)
                    .map(|_| ((rng.gen::<f32>() * ln_v).exp() as u32 - 1).min(vocab as u32 - 1))
                    .collect()
            })
            .collect();
        for batch_docs in [256usize, 1024, 100_000] {
            let cfg = SgnsConfig {
                epochs: 4,
                batch_docs,
                ..Default::default()
            };
            let t = Instant::now();
            let (_, stats) = train_sgns_with_stats(&docs, vocab, &cfg);
            eprintln!(
                "batch={batch_docs} segment={}: total {:?} epochs {:.3}s vocab {:.3}s",
                cfg.segment_docs,
                t.elapsed(),
                stats.epochs_seconds,
                stats.vocab_seconds
            );
        }
    }
}
