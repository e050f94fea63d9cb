//! Host resource readings from `/proc`: CPU time of this process plus
//! its reaped children, and peak resident set size.

/// Kernel clock ticks per second for the `/proc/self/stat` time fields
/// (`sysconf(_SC_CLK_TCK)`, 100 on every Linux target this runs on).
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds of this process and every child it has
/// reaped (worker processes count once they exit).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3
    // (state); utime, stime, cutime and cstime are fields 14 to 17.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(4)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / CLK_TCK
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
