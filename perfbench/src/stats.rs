//! Statistics helpers for the update-window benchmark: order statistics
//! over pooled samples, span self time, and open-loop request timing.

use std::collections::BTreeMap;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `xs`, linearly interpolated between
/// order statistics. Returns 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Median, quartiles and count of one sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

/// Summarizes `xs` as median and quartiles.
pub fn summarize(xs: &[f64]) -> Summary {
    Summary {
        n: xs.len(),
        q1: quantile(xs, 0.25),
        median: median(xs),
        q3: quantile(xs, 0.75),
    }
}

/// The nearest-rank `q`-percentile of `xs`, but only when at least
/// `min_beyond` samples lie strictly above its rank; `None` when the sample
/// set is too small to resolve that percentile.
///
/// With `n` samples the percentile is the `⌈q·n⌉`-th smallest, which leaves
/// `n − ⌈q·n⌉` samples beyond it: p90 with ten samples beyond needs n ≥ 100.
pub fn tail_percentile(xs: &[f64], q: f64, min_beyond: usize) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= min_beyond).then(|| s[rank - 1])
}

/// The smallest sample count at which [`tail_percentile`] resolves the
/// `q`-percentile with `min_beyond` samples beyond it.
pub fn samples_for_tail(q: f64, min_beyond: usize) -> usize {
    (1..)
        .find(|&n| {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            n - rank >= min_beyond
        })
        .expect("some sample count resolves every percentile below 1")
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// One recorded span, reduced to what self time needs.
#[derive(Clone, Debug)]
pub struct Interval {
    /// Span id (unique within one trace).
    pub id: u64,
    /// Parent span id (0 for a root).
    pub parent: u64,
    /// Start, in microseconds since the trace epoch.
    pub start_us: u64,
    /// End, in microseconds since the trace epoch.
    pub end_us: u64,
}

/// Self time of every span, keyed by span id: its duration minus the part
/// of its interval that its children cover. Overlapping children (worker
/// threads) are merged first, so covered time is never subtracted twice,
/// and a child running past its parent's end is clipped to the parent.
pub fn self_times(spans: &[Interval]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_us.saturating_sub(s.start_us);
            let covered = children
                .get(&s.id)
                .map_or(0, |cs| covered_within(cs, s.start_us, s.end_us));
            (s.id, dur.saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_within(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|&(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Timing of one open-loop request, all offsets in microseconds since the
/// generator started.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DueSample {
    /// How late the generator sent the request: send time minus due time.
    pub late_us: u64,
    /// Latency timed from the request's due time, so a stall that delays
    /// the send counts against every request it held back.
    pub latency_us: u64,
}

/// The due time of request `i` of an open-loop generator with a fixed
/// period: `i · period_us`.
pub fn due_us(i: u64, period_us: u64) -> u64 {
    i * period_us
}

/// Times request `i` that was sent at `sent_us` and answered at `done_us`.
pub fn due_sample(i: u64, period_us: u64, sent_us: u64, done_us: u64) -> DueSample {
    let due = due_us(i, period_us);
    DueSample {
        late_us: sent_us.saturating_sub(due),
        latency_us: done_us.saturating_sub(due),
    }
}

/// Window times in reference units: each window's wall time divided by the
/// reference time paired with it.
pub fn per_reference(walls: &[f64], refs: &[f64]) -> Vec<f64> {
    walls
        .iter()
        .zip(refs)
        .filter(|&(_, &r)| r > 0.0)
        .map(|(w, r)| w / r)
        .collect()
}

/// Σ window wall / Σ paired reference wall: the mean window in reference
/// units (0 when no reference ran).
pub fn sum_per_reference(walls: &[f64], refs: &[f64]) -> f64 {
    let r: f64 = refs.iter().sum();
    if r > 0.0 {
        walls.iter().sum::<f64>() / r
    } else {
        0.0
    }
}
