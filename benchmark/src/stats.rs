//! Order statistics, the read-rate ladder arithmetic and late-send
//! accounting. Every percentile the benchmark prints goes through
//! [`Sample`], so it always travels with its sample count.

/// A sorted sample (latencies, durations, ...) with its count.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    pub fn new(mut values: Vec<f64>) -> Sample {
        values.sort_by(f64::total_cmp);
        Sample { sorted: values }
    }

    /// The values, in ascending order.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile: the smallest value with at least a share
    /// `q` of the sample at or below it. `NaN` for an empty sample.
    pub fn quantile(&self, q: f64) -> f64 {
        match self.rank(q) {
            Some(rank) => self.sorted[rank - 1],
            None => f64::NAN,
        }
    }

    /// How many samples lie strictly beyond the rank [`Sample::quantile`]
    /// picks for `q` — the guide for whether a tail percentile is backed
    /// by enough samples to mean anything.
    pub fn beyond(&self, q: f64) -> usize {
        self.rank(q).map_or(0, |rank| self.sorted.len() - rank)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(f64::NAN)
    }

    pub fn sum(&self) -> f64 {
        self.sorted.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            f64::NAN
        } else {
            self.sum() / self.sorted.len() as f64
        }
    }

    fn rank(&self, q: f64) -> Option<usize> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
        Some(rank.clamp(1, n))
    }
}

/// One offered rate of the read ladder, as measured.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Offered reads per second.
    pub offered_per_s: f64,
    /// p99 read latency (µs), timed from each request's due time.
    pub p99_us: f64,
    /// Whether the queue grew over the step (see [`backlog_grew`]).
    pub backlog_grew: bool,
}

impl Step {
    pub fn passes(&self, slo_us: f64) -> bool {
        !self.backlog_grew && self.p99_us <= slo_us
    }
}

/// The highest offered rate that meets the SLO, log-interpolated between
/// the last passing and the first failing step of an ascending ladder so
/// that it moves smoothly instead of jumping by whole steps: the failing
/// side's p99 is placed on a log-log line through the two steps and the
/// rate where that line crosses the SLO is returned. A step that failed
/// only by backlog growth (its p99 still under the SLO) gives no slope,
/// so the geometric midpoint is used. With every step passing, the top
/// step is returned (a lower bound); with the first step failing, its
/// rate is scaled down by how far its p99 overshot.
pub fn qps_at_slo(steps: &[Step], slo_us: f64) -> f64 {
    let Some(first_fail) = steps.iter().position(|s| !s.passes(slo_us)) else {
        return steps.last().map_or(f64::NAN, |s| s.offered_per_s);
    };
    let hi = steps[first_fail];
    if first_fail == 0 {
        return hi.offered_per_s * (slo_us / hi.p99_us.max(slo_us));
    }
    let lo = steps[first_fail - 1];
    let frac = if hi.p99_us <= slo_us {
        0.5
    } else {
        let lo_p99 = lo.p99_us.max(f64::MIN_POSITIVE);
        ((slo_us.ln() - lo_p99.ln()) / (hi.p99_us.ln() - lo_p99.ln())).clamp(0.0, 1.0)
    };
    let (lo_r, hi_r) = (lo.offered_per_s.ln(), hi.offered_per_s.ln());
    (lo_r + frac * (hi_r - lo_r)).exp()
}

/// The tail of a latency series that is robust to one unlucky stall: the
/// series (in due order) is cut into consecutive windows of `window`
/// samples, each window's `q`-quantile is taken, and the median of those
/// is returned. A window of 1000 leaves ten samples beyond each window's
/// p99. A regression that lengthens a stall that recurs — an epoch
/// publish every few hundred milliseconds — still moves most windows, so
/// it still moves the median; a single stall moves one window only. With
/// fewer than `window` samples it is the plain quantile.
pub fn windowed_quantile(series: &[f64], window: usize, q: f64) -> f64 {
    if series.len() < 2 * window {
        return Sample::new(series.to_vec()).quantile(q);
    }
    let per_window: Vec<f64> = series
        .chunks_exact(window)
        .map(|w| Sample::new(w.to_vec()).quantile(q))
        .collect();
    Sample::new(per_window).median()
}

/// Whether an open-loop step built a growing queue: its last quarter of
/// requests (in due order) waited longer at the median than its first
/// quarter by more than `slack_us`. A server that keeps up serves both
/// quarters alike; one that falls behind adds queueing delay linearly
/// over the step.
pub fn backlog_grew(latencies_in_due_order: &[f64], slack_us: f64) -> bool {
    let n = latencies_in_due_order.len();
    if n < 8 {
        return false;
    }
    let quarter = n / 4;
    let first = Sample::new(latencies_in_due_order[..quarter].to_vec()).median();
    let last = Sample::new(latencies_in_due_order[n - quarter..].to_vec()).median();
    last > first + slack_us
}

/// How late an open-loop generator sent its requests: each request's send
/// time minus its due time (both in µs from the phase start). Requests are
/// still timed from their due time, so this lateness is inside every
/// reported latency; reporting it separately shows when the generator, not
/// the server, was the bottleneck.
#[derive(Debug, Clone, Default)]
pub struct LateSends {
    late_us: Vec<f64>,
}

impl LateSends {
    pub fn record(&mut self, due_us: f64, sent_us: f64) {
        self.late_us.push((sent_us - due_us).max(0.0));
    }

    /// Sends later than `threshold_us`.
    pub fn count_over(&self, threshold_us: f64) -> usize {
        self.late_us.iter().filter(|&&l| l > threshold_us).count()
    }

    pub fn sample(&self) -> Sample {
        Sample::new(self.late_us.clone())
    }

    pub fn extend(&mut self, other: &LateSends) {
        self.late_us.extend_from_slice(&other.late_us);
    }
}

/// Peak resident set size of this process, in MiB, from
/// `/proc/self/status` (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_carry_their_counts() {
        let s = Sample::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.len(), 100);
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.beyond(0.99), 1);
        assert_eq!(s.quantile(0.9), 90.0);
        assert_eq!(s.beyond(0.9), 10);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.max(), 100.0);
        assert_eq!(s.mean(), 50.5);
    }

    #[test]
    fn small_and_empty_samples() {
        let one = Sample::new(vec![7.0]);
        assert_eq!(one.quantile(0.99), 7.0);
        assert_eq!(one.beyond(0.99), 0);
        let empty = Sample::default();
        assert!(empty.quantile(0.5).is_nan());
        assert_eq!(empty.beyond(0.5), 0);
        // p99 of 10 samples is the maximum: nothing lies beyond it.
        let ten = Sample::new((1..=10).map(f64::from).collect());
        assert_eq!(ten.quantile(0.99), 10.0);
        assert_eq!(ten.beyond(0.99), 0);
    }

    fn step(offered: f64, p99: f64, grew: bool) -> Step {
        Step {
            offered_per_s: offered,
            p99_us: p99,
            backlog_grew: grew,
        }
    }

    #[test]
    fn qps_at_slo_interpolates_on_log_scales() {
        let slo = 5_000.0;
        // p99 1 ms at 4k/s, 25 ms at 16k/s: the log-log line crosses 5 ms
        // exactly halfway, at the geometric mean 8k/s.
        let steps = [
            step(2_000.0, 500.0, false),
            step(4_000.0, 1_000.0, false),
            step(16_000.0, 25_000.0, false),
        ];
        let q = qps_at_slo(&steps, slo);
        assert!((q - 8_000.0).abs() < 1e-6, "{q}");
        // A failing step barely over the SLO puts the answer near it.
        let near = qps_at_slo(
            &[step(4_000.0, 1_000.0, false), step(8_000.0, 5_001.0, false)],
            slo,
        );
        assert!(near > 7_990.0 && near < 8_000.0, "{near}");
        // Steps after the first failure are ignored.
        let later = [
            step(4_000.0, 1_000.0, false),
            step(16_000.0, 25_000.0, false),
            step(32_000.0, 100.0, false),
        ];
        assert!((qps_at_slo(&later, slo) - 8_000.0).abs() < 1e-6);
    }

    #[test]
    fn qps_at_slo_edge_cases() {
        let slo = 5_000.0;
        // All pass: the top offered rate is a lower bound.
        let all = [step(4_000.0, 100.0, false), step(8_000.0, 200.0, false)];
        assert_eq!(qps_at_slo(&all, slo), 8_000.0);
        // Failing by backlog alone gives the geometric midpoint.
        let grew = [step(4_000.0, 100.0, false), step(16_000.0, 900.0, true)];
        assert!((qps_at_slo(&grew, slo) - 8_000.0).abs() < 1e-6);
        // First step fails: scaled down by the overshoot, never zero.
        let first = [step(4_000.0, 10_000.0, false)];
        assert_eq!(qps_at_slo(&first, slo), 2_000.0);
        let first_grew = [step(4_000.0, 100.0, true)];
        assert_eq!(qps_at_slo(&first_grew, slo), 4_000.0);
    }

    #[test]
    fn windowed_quantile_takes_the_median_window() {
        // Four windows of 100; one holds a long stall.
        let mut series: Vec<f64> = (0..400).map(|i| f64::from(i % 100)).collect();
        series[150] = 1e6;
        assert_eq!(windowed_quantile(&series, 100, 0.99), 98.0);
        assert_eq!(Sample::new(series.clone()).quantile(0.99), 99.0);
        series[10] = 1e6;
        series[20] = 1e6;
        series[250] = 1e6;
        series[260] = 1e6;
        // Now the plain p99 sits on the stalls; the windowed one does not
        // move until most windows stall.
        assert_eq!(Sample::new(series.clone()).quantile(0.99), 1e6);
        assert_eq!(windowed_quantile(&series, 100, 0.99), 99.0);
        // Too short to window: the plain quantile.
        assert_eq!(
            windowed_quantile(&series[..150], 100, 0.5),
            Sample::new(series[..150].to_vec()).quantile(0.5)
        );
    }

    #[test]
    fn backlog_growth_compares_first_and_last_quarter() {
        let steady: Vec<f64> = (0..400).map(|i| 100.0 + f64::from(i % 7)).collect();
        assert!(!backlog_grew(&steady, 1_000.0));
        let growing: Vec<f64> = (0..400).map(|i| 100.0 + 50.0 * f64::from(i)).collect();
        assert!(backlog_grew(&growing, 1_000.0));
        assert!(!backlog_grew(&[1e9; 4], 1.0), "too few samples to judge");
    }

    #[test]
    fn late_sends_are_clamped_and_counted() {
        let mut late = LateSends::default();
        late.record(100.0, 100.0);
        late.record(200.0, 450.0);
        late.record(300.0, 290.0); // early wake-up counts as on time
        late.record(400.0, 1_400.0);
        assert_eq!(late.sample().len(), 4);
        assert_eq!(late.count_over(100.0), 2);
        let s = late.sample();
        assert_eq!(s.median(), 0.0);
        assert_eq!(s.max(), 1_000.0);
        let mut all = LateSends::default();
        all.extend(&late);
        all.extend(&late);
        assert_eq!(all.sample().len(), 8);
    }
}
