//! Small numeric helpers: sample quantiles, histogram quantiles, peak RSS.

use std::time::{Duration, Instant};
use wsn_obs::Histogram;

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by linear interpolation between
/// order statistics; `0.0` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Best-of-passes timing. A run repeats identical passes over a fixed list
/// of operations, and each operation keeps its fastest time. On a shared
/// machine, interference from other tenants only ever adds time, so the
/// fastest of several identical trials is the steadiest estimate of the
/// code's own cost.
pub struct BestOf {
    best_ms: Vec<f64>,
}

impl BestOf {
    pub fn new(ops: usize) -> Self {
        BestOf { best_ms: vec![f64::INFINITY; ops] }
    }

    pub fn record(&mut self, op: usize, ms: f64) {
        self.best_ms[op] = self.best_ms[op].min(ms);
    }

    /// Operations per second, one after another, each at its best time.
    pub fn throughput(&self) -> f64 {
        let ops = self.latencies_ms();
        ops.len() as f64 / (ops.iter().sum::<f64>() / 1e3)
    }

    /// Each operation's fastest time, for those that ever succeeded.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.best_ms.iter().copied().filter(|ms| ms.is_finite()).collect()
    }
}

/// Whether another pass as long as `last_pass` still ends within
/// `seconds` of `start`.
pub fn another_pass_fits(start: Instant, last_pass: Duration, seconds: f64) -> bool {
    (start.elapsed() + last_pass).as_secs_f64() <= seconds
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The upper bound of the bucket holding the `q`-quantile observation of a
/// registry histogram (the overflow bucket reports the last finite bound).
pub fn histogram_quantile(h: &Histogram, q: f64) -> f64 {
    let counts = h.bucket_counts();
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = (q * total as f64).ceil().max(1.0) as u64;
    let bounds = h.bounds();
    let mut seen = 0;
    for (i, c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bounds[i.min(bounds.len() - 1)] as f64;
        }
    }
    bounds[bounds.len() - 1] as f64
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
