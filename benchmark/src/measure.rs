//! Statistics and process-level measurements the harness reports.
//!
//! Nothing here touches the repository's code: timing is
//! `std::time::Instant`, CPU time and peak RSS come from `/proc/self`.

use std::time::{Duration, Instant};

/// Median of a sample (sorts in place). Panics on an empty sample —
/// every caller measures at least one operation.
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    xs.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Nearest-rank quantile of an ascending-sorted sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A quantile smoothed over its neighbourhood: the mean of the order
/// statistics between `q − half_width` and `q + half_width`.
///
/// Latencies of a query mix cluster in service-time classes (the
/// serving mix spans 1000×), so a nearest-rank quantile can sit on the
/// edge of a plateau of the CDF and jump between two classes when the
/// share of requests below it moves by a fraction of a percent. The
/// band mean measures the same place and moves continuously. Falls
/// back to nearest rank when the band holds no sample.
pub fn band_quantile_sorted(sorted: &[f64], q: f64, half_width: f64) -> f64 {
    let n = sorted.len() as f64;
    let lo = ((q - half_width) * n).ceil() as usize;
    let hi = (((q + half_width) * n).ceil() as usize).min(sorted.len());
    if lo >= hi {
        return quantile_sorted(sorted, q);
    }
    sorted[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// A quantile made robust to a disturbed stretch of the run: the sample
/// (in the order it was taken) is cut into `segments` consecutive
/// pieces, each piece's [`band_quantile_sorted`] is taken and the median
/// of those is returned. A stall that inflates every latency of one
/// stretch then moves one piece, not the result. Samples with fewer
/// than two values per piece are taken whole.
pub fn segmented_quantile(in_time_order: &[f64], q: f64, half_width: f64, segments: usize) -> f64 {
    assert!(!in_time_order.is_empty(), "quantile of an empty sample");
    let size = if in_time_order.len() < 2 * segments {
        in_time_order.len()
    } else {
        in_time_order.len().div_ceil(segments)
    };
    let mut per_segment: Vec<f64> = in_time_order
        .chunks(size)
        .map(|piece| {
            let mut sorted = piece.to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
            band_quantile_sorted(&sorted, q, half_width)
        })
        .collect();
    median(&mut per_segment)
}

/// The typical latency of a mix of request classes whose service times
/// differ by orders of magnitude: the geometric mean over the classes
/// of each class's median latency — what `geomean_query_s` is to
/// execution time. `classes[i]` is the class of `latencies[i]`.
///
/// The pooled median of such a mix is ill-conditioned. The serving mix
/// spans 1000× in service time, so around its median the logarithm of
/// the pooled quantile function rises by 4–7 per unit of probability: a
/// 1 % change in the share of requests that queue moves the pooled
/// median by 4–7 %, and a 10 % step in the host's speed was measured to
/// move it by 35 %. Inside one class most requests do not queue and
/// all cost the same, so the class median sits in a dense bulk and
/// follows service time and dispatch cost.
pub fn class_median_geomean(latencies: &[f64], classes: &[usize]) -> f64 {
    assert_eq!(latencies.len(), classes.len(), "one class per latency");
    let n_classes = classes.iter().max().map_or(0, |c| c + 1);
    let mut by_class = vec![Vec::new(); n_classes];
    for (&latency, &class) in latencies.iter().zip(classes) {
        by_class[class].push(latency);
    }
    let medians: Vec<f64> = by_class
        .iter_mut()
        .filter(|sample| !sample.is_empty())
        .map(|sample| median(sample))
        .collect();
    geomean(&medians)
}

/// The highest percentile of the ladder 50/90/95/99/99.9 that still has
/// at least ten samples beyond it in a sample of `n` (choosing-metrics
/// §1); `0.5` when even p90 does not.
pub fn highest_supported_quantile(n: usize) -> f64 {
    // Per-mille ladder, integer arithmetic: 100 × (1 − 0.9) is not 10
    // in floating point.
    [999usize, 990, 950, 900]
        .into_iter()
        .find(|q| n * (1000 - q) >= 10_000)
        .map_or(0.5, |q| q as f64 / 1000.0)
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of an empty sample");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Process CPU seconds (user + system, all threads, including exited
/// ones) from `/proc/self/stat`. Linux reports these in `USER_HZ` ticks,
/// which is 100 on every supported platform; the 10 ms granularity is
/// <0.2 % of the shortest timed window.
pub fn process_cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, i.e. 12 and 13 after `)`.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|s| s.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|s| s.parse().ok()).unwrap_or(0.0);
    (utime + stime) / USER_HZ
}

/// Peak resident set size (`VmHWM`) in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Client/worker threads the harness uses: `min(nproc, 4)`, so load is
/// sized to the host and the numbers stay comparable on small sandboxes.
pub fn load_threads() -> usize {
    nproc().min(4)
}

/// Runs `f` repeatedly for about `budget` (at least `min_iters` times)
/// and returns the median seconds per call. The closure's result goes
/// through `black_box` so the measured work cannot be optimised away.
pub fn time_median<T>(budget: Duration, min_iters: usize, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_iters || start.elapsed() < budget {
        let t0 = Instant::now();
        std::hint::black_box(f());
        samples.push(t0.elapsed().as_secs_f64());
    }
    median(&mut samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&sorted, 0.5), 50.0);
        assert_eq!(quantile_sorted(&sorted, 0.99), 99.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 100.0);
    }

    #[test]
    fn band_quantile_averages_its_band() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Order statistics 986..=995 → mean 990.5.
        assert_eq!(band_quantile_sorted(&sorted, 0.99, 0.005), 990.5);
        // Order statistics 451..=550 → mean 500.5.
        assert_eq!(band_quantile_sorted(&sorted, 0.5, 0.05), 500.5);
        let few: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(band_quantile_sorted(&few, 0.99, 0.005), 20.0);
    }

    #[test]
    fn segmented_quantile_ignores_one_disturbed_stretch() {
        // Five stretches of 100 samples at 1.0; the third is stalled.
        let mut xs = vec![1.0; 500];
        for x in &mut xs[200..300] {
            *x = 50.0;
        }
        assert_eq!(segmented_quantile(&xs, 0.99, 0.005, 5), 1.0);
        assert_eq!(segmented_quantile(&xs, 0.5, 0.05, 5), 1.0);
        // Too few samples to cut: taken whole.
        assert_eq!(segmented_quantile(&[1.0, 2.0, 3.0], 0.5, 0.05, 5), 2.0);
    }

    #[test]
    fn class_median_geomean_takes_each_class_once() {
        // Class 0: median 1 of three; class 2: one request at 16;
        // class 1 was never requested.
        let latencies = [1.0, 16.0, 0.5, 100.0];
        let classes = [0, 2, 0, 0];
        assert!((class_median_geomean(&latencies, &classes) - 4.0).abs() < 1e-12);
        assert_eq!(class_median_geomean(&[3.0, 1.0, 2.0], &[0, 0, 0]), 2.0);
    }

    #[test]
    fn highest_quantile_needs_ten_beyond() {
        assert_eq!(highest_supported_quantile(50), 0.5);
        assert_eq!(highest_supported_quantile(100), 0.90);
        assert_eq!(highest_supported_quantile(1_000), 0.99);
        assert_eq!(highest_supported_quantile(10_000), 0.999);
    }

    #[test]
    fn proc_readers_return_something() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_seconds() >= 0.0);
        assert!(load_threads() >= 1 && load_threads() <= 4);
    }
}
