//! Order statistics with the benchmark's tail rule.
//!
//! A tail percentile is only as steady as the samples that lie beyond it:
//! with three samples past a p99, one slow scheduler tick moves it. Gated
//! percentiles therefore refuse to report unless at least [`MIN_BEYOND`]
//! samples lie strictly beyond the reported rank.

/// Fewest samples that must lie strictly beyond a gated percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of sorted `xs` (`p` in `(0, 100]`): the value at
/// 1-based rank `ceil(p/100 · n)`, and how many samples lie beyond it.
fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    (sorted[rank - 1], n - rank)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    xs
}

/// A percentile fit to report as an end-to-end metric. Refuses when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn gated_percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if samples.is_empty() {
        return Err(format!("p{p} of no samples"));
    }
    let (value, beyond) = nearest_rank(&sorted(samples), p);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed",
            samples.len()
        ));
    }
    Ok(value)
}

/// A diagnostic percentile (ungated): any non-empty sample set.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    (!samples.is_empty()).then(|| nearest_rank(&sorted(samples), p).0)
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Arithmetic mean.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// First and third quartile, as Python's `statistics.quantiles(xs, n=4)`
/// computes them (the default "exclusive" method). Needs two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let xs = sorted(samples);
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median — the spread the
/// benchmark's bounds are checked against.
pub fn quartile_spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let med = median(samples)?;
    (med != 0.0).then(|| (q3 - q1) / med)
}

/// One open-loop operation on a single nanosecond clock: when it was due,
/// when the generator actually sent it, and when its reply was complete.
///
/// Latency counts from the *due* time, so a generator that stalls charges
/// the stall to every operation it delayed; lateness (`sent - due`)
/// reports the same stall separately as the generator's own fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Paced {
    /// When the schedule said to send.
    pub due: u64,
    /// When the generator sent.
    pub sent: u64,
    /// When the reply was complete.
    pub done: u64,
}

impl Paced {
    /// Due → done, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due) as f64 / 1e6
    }

    /// Due → sent, in milliseconds.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due) as f64 / 1e6
    }
}
