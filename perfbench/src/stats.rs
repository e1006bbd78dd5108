//! Small numeric and process helpers.

/// Median of `v` (mean of the middle pair for even lengths); NaN when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`), MiB; NaN where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Machine-wide CPU time counters (the `cpu` line of `/proc/stat`).
pub struct CpuTimes(Vec<u64>);

impl CpuTimes {
    pub fn now() -> Option<CpuTimes> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let line = stat.lines().next()?.strip_prefix("cpu ")?;
        let fields: Option<Vec<u64>> = line.split_whitespace().map(|f| f.parse().ok()).collect();
        fields.filter(|f| f.len() >= 8).map(CpuTimes)
    }

    /// Share of all CPU time since `self` that the hypervisor gave to
    /// other guests (`steal`). Timings taken while it is high are slowed
    /// by the host, not by the program.
    pub fn steal_share_since(&self) -> Option<f64> {
        let now = CpuTimes::now()?;
        let delta = |i: usize| now.0[i].saturating_sub(self.0[i]);
        let total: u64 = (0..8).map(delta).sum();
        (total > 0).then(|| delta(7) as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
