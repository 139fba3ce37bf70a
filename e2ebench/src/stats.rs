//! Order statistics over latency samples and the result line.

use std::fmt::Write as _;
/// Nearest-rank quantile of ascending-sorted `sorted` at `pct` percent.
pub fn quantile(sorted: &[f64], pct: u32) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let n = sorted.len();
    let rank = (u64::from(pct) * n as u64).div_ceil(100).max(1) as usize;
    sorted[rank.min(n) - 1]
}

/// The highest whole percentile, capped at 99, that leaves at least ten
/// samples above its nearest-rank position. Depends only on the sample
/// count, so a fixed operation count fixes the percentile.
pub fn tail_pct(n: usize) -> u32 {
    (1..=99u32)
        .rev()
        .find(|&p| n.saturating_sub((p as usize * n).div_ceil(100)) >= 10)
        .unwrap_or(50)
}

/// Median, tail percentile and tail value of unsorted samples.
pub struct Summary {
    pub p50: f64,
    pub tail_pct: u32,
    pub tail: f64,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pct = tail_pct(s.len());
    Summary {
        p50: quantile(&s, 50),
        tail_pct: pct,
        tail: quantile(&s, pct),
    }
}

/// One pass over a workload's fixed block of operations: each
/// operation's latency (its request) and its cycle time (the request plus
/// any follow-up it needs, such as the `REMOVE` after an admitted probe).
#[derive(Default)]
pub struct Pass {
    pub lat_us: Vec<f64>,
    pub cycle_us: Vec<f64>,
}

impl Pass {
    /// An operation whose cycle is its request alone.
    pub fn record(&mut self, lat_us: f64) {
        self.record_cycle(lat_us, lat_us);
    }

    pub fn record_cycle(&mut self, lat_us: f64, cycle_us: f64) {
        self.lat_us.push(lat_us);
        self.cycle_us.push(cycle_us);
    }
}

/// The run's figures over identical passes.
#[derive(Default)]
pub struct Figures {
    pub ops_per_s: f64,
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: u32,
    /// Operations per pass.
    pub n: usize,
}

/// Every operation of the block runs once per pass, and each keeps its
/// best (lowest) time over the passes. `p50` and `tail` are the median and
/// tail of the operations' best latencies; `ops_per_s` is the block's
/// operations over the sum of their best cycle times.
///
/// The host's speed flips between a fast and a slow state (up to 2x,
/// shared caches and cores) in stretches from milliseconds to minutes, so
/// a whole pass, or a whole run, may fall in a slow stretch, while each
/// operation of a few milliseconds or less almost always meets the fast
/// state in at least one of its passes. The best of an operation's passes
/// is the time the program needs for it on an unloaded machine: an
/// operation that is slow every time it runs (a costly input, a stall the
/// program causes itself) still shows in the median and the tail.
pub fn best_of_passes(passes: &[Pass]) -> Figures {
    let lat = per_op_best(passes.iter().map(|p| p.lat_us.as_slice()));
    let cycle = per_op_best(passes.iter().map(|p| p.cycle_us.as_slice()));
    if lat.is_empty() {
        return Figures::default();
    }
    let s = summarize(&lat);
    Figures {
        ops_per_s: cycle.len() as f64 * 1e6 / cycle.iter().sum::<f64>(),
        p50: s.p50,
        tail: s.tail,
        tail_pct: s.tail_pct,
        n: lat.len(),
    }
}

/// The median over operations of each one's best time (as in
/// [`best_of_passes`]), from timings recorded pass after pass, `block`
/// operations per pass.
pub fn best_of_passes_p50(flat_us: &[f64], block: usize) -> f64 {
    let best = per_op_best(flat_us.chunks_exact(block.max(1)));
    if best.is_empty() {
        0.0
    } else {
        summarize(&best).p50
    }
}

/// Each operation's lowest time over the passes that reached it.
fn per_op_best<'a>(mut passes: impl Iterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut best = passes.next().map(<[f64]>::to_vec).unwrap_or_default();
    for pass in passes {
        for (b, &t) in best.iter_mut().zip(pass) {
            *b = b.min(t);
        }
    }
    best
}

/// Consecutive cold starts per group in [`setup_figure`].
const SETUP_GROUP: usize = 4;

/// `setup_s` from the run's cold starts, one before the first pass and one
/// after each: the median over groups of `SETUP_GROUP` consecutive cold
/// starts of each group's fastest. A cold start is mostly process start and
/// first-touch page faults, and its median over a run moved by up to a
/// third between runs minutes apart as the host got busier or quieter; the
/// fastest of a few seconds' worth of cold starts filters the host's
/// bursts, as the best of an operation's passes does for the timed figures.
pub fn setup_figure(setups: &[f64]) -> f64 {
    let best: Vec<f64> = setups
        .chunks(SETUP_GROUP)
        .map(|g| g.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    median(&best)
}

/// Median of a few repeated measurements.
pub fn median(values: &[f64]) -> f64 {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// What one run reports: the verdict of every output check, the operation
/// counts, and named metrics with units (printed in insertion order).
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Record a failed output check (kept short: the first few are shown).
    pub fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }

    /// Failed operations, at most one per operation attempted (one probe
    /// can fail its ADMIT, its REMOVE and its replay).
    fn failed_ops(&self) -> u64 {
        self.failed.min(self.attempted.max(1))
    }

    /// Operations whose output passed every check, over those attempted.
    pub fn ok_frac(&self) -> f64 {
        1.0 - self.failed_ops() as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.failed == 0
    }

    /// The one-line JSON result object.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed_ops()
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_above() {
        assert_eq!(tail_pct(10_000), 99);
        assert_eq!(tail_pct(1000), 99);
        assert_eq!(tail_pct(378), 97);
        let n = 600;
        let p = tail_pct(n);
        assert!(n - (p as usize * n).div_ceil(100) >= 10);
        assert!(n - ((p as usize + 1) * n).div_ceil(100) < 10);
    }

    #[test]
    fn nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 50), 50.0);
        assert_eq!(quantile(&s, 99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // Groups {9, 2, 8, 8}, {3, 7, 5, 6}, {4}: fastest 2, 3, 4.
        assert_eq!(
            setup_figure(&[9.0, 2.0, 8.0, 8.0, 3.0, 7.0, 5.0, 6.0, 4.0]),
            3.0
        );
    }

    #[test]
    fn each_operation_keeps_its_best_pass() {
        let pass = |lat_us: Vec<f64>, cycle_us: Vec<f64>| Pass { lat_us, cycle_us };
        let f = best_of_passes(&[
            pass(vec![1.0, 5.0, 9.0], vec![2.0, 5.0, 9.0]),
            pass(vec![3.0, 2.0, 4.0], vec![3.0, 2.0, 5.0]),
        ]);
        // Best latencies 1, 2, 4; best cycles 2 + 2 + 5 = 9 us.
        assert_eq!(f.p50, 2.0);
        assert_eq!(f.ops_per_s, 3.0 * 1e6 / 9.0);
        // Three samples leave no percentile above the median for the tail.
        assert_eq!(f.tail, 2.0);
        assert_eq!(best_of_passes_p50(&[5.0, 1.0, 3.0, 2.0, 2.0, 2.0], 3), 2.0);
    }
}
