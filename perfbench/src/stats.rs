//! Order statistics over latency samples.
//!
//! Percentiles are Harrell–Davis estimates: a weighted mean of every order
//! statistic, the `i`-th of `n` weighted by the probability a
//! Beta(`q(n+1)`, `(1-q)(n+1)`) variable falls in `((i-1)/n, i/n]`.  On a
//! suite of a few dozen distinct problems the nearest-rank median is the time
//! of one problem, so that problem's run-to-run noise is the metric's noise;
//! the Harrell–Davis median spreads the weight over the problems around it.
//! A tail percentile is only meaningful when enough samples lie beyond it, so
//! every workload names the tail it reports and [`beyond`] counts what is
//! left past its nearest rank.

use std::f64::consts::PI;

/// The Harrell–Davis estimate of the `p`-th percentile of `samples` (any
/// order).  Empty input yields `0.0`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (Some(&first), Some(&last)) = (sorted.first(), sorted.last()) else {
        return 0.0;
    };
    let q = (p / 100.0).clamp(0.0, 1.0);
    let n = sorted.len() as f64;
    let (a, b) = (q * (n + 1.0), (1.0 - q) * (n + 1.0));
    if sorted.len() == 1 || a <= 0.0 {
        return first;
    }
    if b <= 0.0 {
        return last;
    }
    let mut below = 0.0;
    let mut estimate = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        let cdf = beta_cdf((i + 1) as f64 / n, a, b);
        estimate += (cdf - below) * x;
        below = cdf;
    }
    estimate
}

/// The Harrell–Davis median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
pub fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps exact products (0.5 * 1000) from rounding up.
    (((p / 100.0) * n as f64) - 1e-9)
        .ceil()
        .clamp(1.0, n.max(1) as f64) as usize
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`-th
/// percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7, nine terms).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        return (PI / (PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let series = C[1..]
        .iter()
        .enumerate()
        .fold(C[0], |acc, (i, c)| acc + c / (x + i as f64 + 1.0));
    let t = x + 7.5;
    0.5 * (2.0 * PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// The regularized incomplete beta function `I_x(a, b)`: the CDF of a
/// Beta(`a`, `b`) variable at `x`.
fn beta_cdf(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    // The continued fraction converges fast on this side of the mean.
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_continued_fraction(x, a, b) / a
    } else {
        1.0 - front * beta_continued_fraction(1.0 - x, b, a) / b
    }
}

/// The continued fraction of `I_x(a, b)`, by the modified Lentz method.
fn beta_continued_fraction(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let guard = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..10_000 {
        let m = f64::from(m);
        let even = m * (b - m) * x / ((a - 1.0 + 2.0 * m) * (a + 2.0 * m));
        d = 1.0 / guard(1.0 + even * d);
        c = guard(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 1.0 + 2.0 * m));
        d = 1.0 / guard(1.0 + odd * d);
        c = guard(1.0 + odd / c);
        h *= d * c;
        if (d * c - 1.0).abs() < 1e-14 {
            break;
        }
    }
    h
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `0.0` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * b.abs().max(1.0)
    }

    #[test]
    fn beta_cdf_matches_closed_forms() {
        for x in [0.1, 0.37, 0.5, 0.9] {
            assert!(close(beta_cdf(x, 1.0, 1.0), x));
            assert!(close(beta_cdf(x, 2.0, 1.0), x * x));
            assert!(close(beta_cdf(x, 1.0, 3.0), 1.0 - (1.0 - x).powi(3)));
        }
        assert!(close(beta_cdf(0.5, 500.5, 500.5), 0.5));
        assert!(close(ln_gamma(10.0), 362_880f64.ln()));
        assert!(close(ln_gamma(0.5), PI.sqrt().ln()));
    }

    #[test]
    fn harrell_davis_percentiles() {
        let samples: Vec<f64> = (1..=9).map(f64::from).collect();
        assert!(close(median(&samples), 5.0));
        assert!(close(percentile(&[4.0; 7], 99.0), 4.0));
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[3.0], 69.0), 3.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 100.0), 2.0);
        let mut last = 0.0;
        for p in [10.0, 50.0, 69.0, 90.0, 99.0] {
            let estimate = percentile(&samples, p);
            assert!(estimate > last && estimate < 9.0);
            last = estimate;
        }
        // Weights sum to one at large n, so a shift moves the estimate by
        // exactly the shift.
        let many: Vec<f64> = (0..1500).map(|i| f64::from(i % 97)).collect();
        let shifted: Vec<f64> = many.iter().map(|x| x + 10.0).collect();
        assert!(close(
            percentile(&shifted, 99.0),
            percentile(&many, 99.0) + 10.0
        ));
    }

    #[test]
    fn one_noisy_problem_moves_the_median_less_than_its_own_swing() {
        let mut suite: Vec<f64> = (1..=33).map(|i| f64::from(i) * 100.0).collect();
        let before = median(&suite);
        suite[16] *= 1.25;
        let after = median(&suite);
        assert!(after > before && after - before < 0.25 * 1700.0 / 3.0);
    }

    #[test]
    fn beyond_counts_the_tail() {
        assert_eq!(beyond(33, 69.0), 10);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(10, 50.0), 5);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
