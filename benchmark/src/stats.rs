//! Small measurement helpers: order statistics and the process's
//! memory counters.

/// The `q`-quantile (0..=1) of `values` by nearest rank on a sorted
/// copy; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in bytes.
pub fn proc_status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn reads_this_process_memory() {
        assert!(proc_status_bytes("VmHWM") > 0);
        assert!(proc_status_bytes("VmRSS") > 0);
    }
}
