//! Order statistics and process memory readings.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by linear interpolation
/// between closest ranks; `0.0` for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let (Some(a), Some(b)) = (sorted.get(lo), sorted.get(hi)) else {
        return 0.0;
    };
    a + (b - a) * (pos - lo as f64)
}

/// The median of `samples`; `0.0` for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Mean of the last tenth of `series` over the mean of its first tenth
/// (at least one element each): how much a per-frame cost grew over the
/// horizon. `0.0` when the series is empty or starts at zero.
pub fn late_over_early(series: &[f64]) -> f64 {
    let tenth = (series.len() / 10).max(1);
    if series.len() < 2 {
        return 0.0;
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let (Some(first), Some(last)) = (series.get(..tenth), series.get(series.len() - tenth..))
    else {
        return 0.0;
    };
    let (early, late) = (mean(first), mean(last));
    if early > 0.0 {
        late / early
    } else {
        0.0
    }
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// one) in MB, from `/proc`; `0.0` where `/proc` is unavailable.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0.0;
    };
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

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&xs, 0.9), 4.6);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn late_over_early_compares_the_tenths() {
        let flat = vec![2.0; 40];
        assert_eq!(late_over_early(&flat), 1.0);
        let growing: Vec<f64> = (1..=20).map(f64::from).collect();
        // first tenth {1, 2}, last tenth {19, 20}.
        assert_eq!(late_over_early(&growing), 39.0 / 3.0);
        assert_eq!(late_over_early(&[]), 0.0);
    }
}
