//! Readings a process takes of itself, and the provenance every result
//! records.

use std::time::{SystemTime, UNIX_EPOCH};

/// Linux reports `/proc/<pid>/stat` CPU times in `USER_HZ` ticks, which
/// the kernel fixes at 100 on every architecture for user-space ABI
/// stability.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds this process has used so far, summed over
/// all its threads, finished ones included.
#[must_use]
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields after it are
    // plain. utime and stime are fields 14 and 15, i.e. the 12th and 13th
    // after the closing parenthesis.
    let tail = stat.rsplit_once(')').map_or("", |(_, t)| t);
    let ticks: f64 = tail
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / USER_HZ
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Wall-clock nanoseconds since the Unix epoch: the one clock a parent and
/// its child share, used to time a child's start-up across the process
/// boundary.
#[must_use]
pub fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// Cores available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Worker threads every child gets: all cores, at most four, so a run on
/// a large machine stays comparable with one on a small one.
#[must_use]
pub fn bench_threads() -> usize {
    nproc().min(4)
}

/// The CPU model name from `/proc/cpuinfo`, or `unknown`.
#[must_use]
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|v| v.split_once(':'))
                .map(|(_, name)| name.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The checked-out git revision, or `unknown` outside a git checkout.
#[must_use]
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_readings_are_plausible() {
        // Burn a little CPU so the tick counter has moved.
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mib() > 0.5);
        assert!(unix_ns() > 1_600_000_000_000_000_000);
        assert!((1..=4).contains(&bench_threads()));
    }
}
