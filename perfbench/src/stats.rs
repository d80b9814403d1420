//! Summary statistics and the naming rules every reported metric obeys.

/// Samples that must lie beyond a tail percentile before it is
/// reported.
pub const MIN_BEYOND: usize = 10;

/// The median of `values` (mean of the middle pair for an even count);
/// 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank rank (1-based) of the `per_mille` percentile of `n`
/// samples.
fn rank(n: usize, per_mille: u32) -> usize {
    (n * per_mille as usize).div_ceil(1000).max(1)
}

/// Nearest-rank percentile of ascending `sorted` samples; 0 for none.
pub fn percentile(sorted: &[f64], per_mille: u32) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), per_mille).min(sorted.len()) - 1]
}

/// A tail latency at a fixed percentile, with the sample counts that
/// say whether it can be trusted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in per mille.
    pub per_mille: u32,
    /// Its value.
    pub value: f64,
    /// Samples in the run.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

impl Tail {
    /// The `per_mille` percentile of ascending `sorted` samples.
    pub fn of(sorted: &[f64], per_mille: u32) -> Self {
        let n = sorted.len();
        Self {
            per_mille,
            value: percentile(sorted, per_mille),
            samples: n,
            beyond: n - rank(n, per_mille).min(n),
        }
    }

    /// Whether at least [`MIN_BEYOND`] samples lie beyond it.
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }

    /// `p99`, `p90`, `p99.9`, ...
    pub fn label(&self) -> String {
        match self.per_mille % 10 {
            0 => format!("p{}", self.per_mille / 10),
            tenth => format!("p{}.{tenth}", self.per_mille / 10),
        }
    }
}

/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit and has at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: at most 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn a_tail_reports_its_sample_count_and_needs_ten_beyond() {
        let t = Tail::of(&ramp(1_000), 990);
        assert_eq!((t.value, t.samples, t.beyond), (990.0, 1_000, 10));
        assert!(t.supported());
        assert_eq!(t.label(), "p99");
        let t = Tail::of(&ramp(999), 990);
        assert_eq!((t.samples, t.beyond), (999, 9));
        assert!(!t.supported());
        let t = Tail::of(&ramp(100), 900);
        assert_eq!((t.value, t.beyond, t.label().as_str()), (90.0, 10, "p90"));
        assert!(t.supported());
        assert!(!Tail::of(&ramp(99), 900).supported());
        assert_eq!(Tail::of(&ramp(20_000), 999).label(), "p99.9");
        let empty = Tail::of(&[], 990);
        assert_eq!((empty.value, empty.samples, empty.beyond), (0.0, 0, 0));
    }

    #[test]
    fn percentile_and_median_use_nearest_rank_and_midpoint() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 500), 5.0);
        assert_eq!(percentile(&v, 900), 9.0);
        assert_eq!(percentile(&v, 1000), 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn names_and_units_follow_the_character_rules() {
        for ok in [
            "setup_s",
            "sim.run_p99_us",
            "daemon.apply_submit_busy_s",
            "9lives",
            "a-b.c_d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_x",
            ".x",
            "has space",
            "p99%",
            "a/b",
            "ü",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "MiB", "B"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "µs", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
