//! Stage timings and engine heap recorded by [`crate::Iuad::fit`] itself,
//! so the perf and scale benches report the cost of the shipped fit
//! instead of timing a copy of its stage sequence. Std-only and always on:
//! a fit reads the clock about a dozen times, sums two heap figures, and
//! no fitted output depends on either.

use std::time::Instant;

/// Named stage → wall-clock seconds, in execution order, plus the fit's
/// end-to-end wall time.
#[derive(Debug, Clone, Default)]
pub struct StageTimes {
    stages: Vec<(&'static str, f64)>,
    total_seconds: f64,
}

impl StageTimes {
    /// Run `f`, record its wall time under `stage`, and return its output.
    pub fn time<T>(&mut self, stage: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.record(stage, t.elapsed().as_secs_f64());
        out
    }

    /// Record a timing measured elsewhere, e.g. a sub-stage the embedding
    /// trainer times inside an enclosing stage.
    pub fn record(&mut self, stage: &'static str, seconds: f64) {
        self.stages.push((stage, seconds));
    }

    /// Every recorded `(stage, seconds)`, in execution order. Sub-stage
    /// rows follow the stage they decompose, so the rows do not sum to
    /// [`StageTimes::total_seconds`].
    pub fn stages(&self) -> &[(&'static str, f64)] {
        &self.stages
    }

    /// Seconds recorded under `stage`, if it ran.
    pub fn seconds(&self, stage: &str) -> Option<f64> {
        self.stages
            .iter()
            .find(|(name, _)| *name == stage)
            .map(|&(_, s)| s)
    }

    /// End-to-end wall time of the fit that recorded these stages.
    pub fn total_seconds(&self) -> f64 {
        self.total_seconds
    }

    pub(crate) fn set_total(&mut self, since: Instant) {
        self.total_seconds = since.elapsed().as_secs_f64();
    }
}

/// Capacity-based heap of the two similarity engines a fit builds
/// ([`crate::SimilarityEngine::heap_bytes`]), taken as each build
/// finishes. The fit drops the Stage-2 engine before it builds the merged
/// one, so only the fit can record both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineHeap {
    /// The Stage-2 engine over the Stage-1 network.
    pub stage2_bytes: usize,
    /// The merged engine over the final network, as built.
    pub merged_bytes: usize,
}
