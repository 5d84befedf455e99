//! Summary statistics every workload reports through. Which of them an
//! end-to-end metric uses is told where the metrics are made
//! (`workload::Samples::timed`).

/// Percentiles the tail metric may use, highest first.
const TAIL_LADDER: [u32; 4] = [99, 95, 90, 75];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// Equal time segments a run is cut into.
pub const SEGMENTS: usize = 10;

pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Nearest-rank percentile of an ascending slice (0 for an empty one):
/// the one the daemon reports its own latencies with.
pub use tce_serve::percentile;

/// Median: the mean of the two middle values for an even count.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// The highest percentile of the ladder that has at least ten samples
/// beyond it among `n`; the median when even p75 has too few.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n * (100 - p as usize) >= MIN_BEYOND * 100)
        .map_or(50.0, f64::from)
}

/// Geometric mean of positive values (0 for an empty slice).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The segment of a run of `window_s` seconds that time `t_s` falls in;
/// `None` once the window has closed.
pub fn segment_of(t_s: f64, window_s: f64) -> Option<usize> {
    (t_s < window_s).then(|| ((t_s / window_s * SEGMENTS as f64) as usize).min(SEGMENTS - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_wants_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs[..1], 99.0), 1.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn segments_tile_the_window() {
        assert_eq!(segment_of(0.0, 20.0), Some(0));
        assert_eq!(segment_of(1.999, 20.0), Some(0));
        assert_eq!(segment_of(2.0, 20.0), Some(1));
        assert_eq!(segment_of(19.999, 20.0), Some(9));
        assert_eq!(segment_of(20.0, 20.0), None);
    }
}
