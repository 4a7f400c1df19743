//! What the kernel reports about this process (`/proc/self`).

use std::fs;

fn status_field(field: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    status_field("VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Live threads in this process.
pub fn threads() -> Option<u64> {
    status_field("Threads")
}

/// Processor time every live thread of this process has used, in
/// microseconds: the first field of each `/proc/self/task/*/schedstat`,
/// which counts nanoseconds (the tick counters of `/proc/self/stat` are
/// too coarse for a phase that keeps the processors mostly idle).
pub fn cpu_us() -> Option<u64> {
    let mut ns = 0u64;
    for task in fs::read_dir("/proc/self/task").ok()? {
        let stat = fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
        ns += stat.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some(ns / 1_000)
}
