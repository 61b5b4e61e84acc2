//! Order statistics and process facts the benchmark reports.

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median of `xs` (mean of the middle two for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// First quartile, median and third quartile, interpolated the way
/// Python's `statistics.quantiles(xs, n=4)` does (exclusive method).
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        n => {
            let at = |p: f64| {
                let h = (n as f64 + 1.0) * p;
                let lo = (h.floor() as usize).clamp(1, n);
                let hi = (lo + 1).min(n);
                let frac = (h - lo as f64).clamp(0.0, 1.0);
                v[lo - 1] + frac * (v[hi - 1] - v[lo - 1])
            };
            (at(0.25), at(0.5), at(0.75))
        }
    }
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Cumulative CPU time the hypervisor gave to other guests (the `steal`
/// column of `/proc/stat`), in clock ticks; `None` where unavailable.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}
