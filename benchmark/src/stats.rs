//! The few statistics the benchmark reports: nearest-rank percentiles,
//! medians, quartile spread, and segment-median throughput.

/// Sorts ascending; every input here is a finite measurement.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `p` percent of the samples at or below it. 0 for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile's position: how
/// many observations the reported tail value leaves above it.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - (((p / 100.0) * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (exclusive method), so the spread printed here is the
/// spread the driver judges. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (at(1), at(3))
}

/// One completed operation of the timed loop, in seconds since the loop
/// began.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub start: f64,
    pub end: f64,
    /// Passed every check (no error, no `Busy`, satisfied, bound held).
    pub ok: bool,
    /// Which of the workload's cycling variants ran (scheme index), else 0.
    pub variant: u8,
}

/// Throughput as the median over up to five contiguous segments of
/// (ops that passed ÷ segment wall time). `ops` are in completion order;
/// segments hold equal numbers of whole `cycle`s, so every segment sees
/// the same mix of cheap and expensive ops, and one stolen-CPU burst costs
/// one segment rather than the run. The first segment begins when the
/// earliest op starts.
pub fn segment_throughput(ops: &[Op], cycle: usize) -> f64 {
    let cycles = ops.len() / cycle.max(1);
    if cycles == 0 {
        return 0.0;
    }
    let segments = cycles.min(5);
    let mut rates = Vec::with_capacity(segments);
    let mut begin = ops.iter().map(|o| o.start).fold(f64::INFINITY, f64::min);
    let mut first = 0usize;
    for s in 1..=segments {
        let last = cycles * s / segments * cycle;
        let seg = &ops[first..last];
        let end = seg.iter().map(|o| o.end).fold(begin, f64::max);
        let passed = seg.iter().filter(|o| o.ok).count();
        rates.push(passed as f64 / (end - begin).max(1e-9));
        begin = end;
        first = last;
    }
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v[..1], 90.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // 120 samples leave 12 beyond p90, the floor the workloads keep
        assert_eq!(samples_beyond(120, 90.0), 12);
        assert_eq!(samples_beyond(10, 50.0), 5);
        assert_eq!(samples_beyond(0, 90.0), 0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[2.0, 1.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    fn op(start: f64, end: f64, ok: bool) -> Op {
        Op {
            start,
            end,
            ok,
            variant: 0,
        }
    }

    #[test]
    fn segment_median_ignores_one_slow_segment() {
        // ten ops, one per second, except ops 4..6 which stall: the stalled
        // segment reads 0.2/s, the other four read 1/s, the median is 1/s
        let mut ops = Vec::new();
        let mut t = 0.0;
        for i in 0..10 {
            let d = if (4..6).contains(&i) { 5.0 } else { 1.0 };
            ops.push(op(t, t + d, true));
            t += d;
        }
        assert!((segment_throughput(&ops, 1) - 1.0).abs() < 1e-12);
        // a plain mean would have read 10 ops / 18 s
        assert!(10.0 / t < 0.6);
    }

    #[test]
    fn segments_hold_whole_cycles_and_count_only_passes() {
        // 4 cycles of 3 ops: 4 segments of one cycle each (3 s, 3 ops)
        let ops: Vec<Op> = (0..12)
            .map(|i| op(f64::from(i), f64::from(i + 1), true))
            .collect();
        assert!((segment_throughput(&ops, 3) - 1.0).abs() < 1e-12);
        // a failed op in every cycle lowers every segment to 2 ops / 3 s
        let ops: Vec<Op> = (0..12)
            .map(|i| op(f64::from(i), f64::from(i + 1), i % 3 != 0))
            .collect();
        assert!((segment_throughput(&ops, 3) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(segment_throughput(&ops[..2], 3), 0.0);
    }
}
