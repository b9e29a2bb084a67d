//! What the benchmark reads about its own process from `/proc`.

use std::time::Duration;

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (`VmHWM`) in MB; 0 where `/proc` has no such line.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU time of the whole process, exited threads included.
/// `/proc/self/stat` counts in clock ticks; Linux fixes `USER_HZ` at 100.
pub fn cpu_time() -> Duration {
    let ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // fields after the parenthesised command name; utime and stime
            // are the 14th and 15th of the line, 12th and 13th after ")"
            let rest = s.rsplit_once(')')?.1;
            let mut f = rest.split_whitespace().skip(11);
            Some(f.next()?.parse::<u64>().ok()? + f.next()?.parse::<u64>().ok()?)
        })
        .unwrap_or(0);
    Duration::from_millis(ticks * 10)
}

/// `(all, stolen)` clock ticks of the whole machine since boot, from the
/// first line of `/proc/stat`: how much of the host another guest took.
pub fn cpu_ticks() -> (u64, u64) {
    let fields: Vec<u64> = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.strip_prefix("cpu")?.to_string();
            Some(
                line.split_whitespace()
                    .filter_map(|f| f.parse().ok())
                    .collect(),
            )
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal
    (
        fields.iter().take(8).sum(),
        fields.get(7).copied().unwrap_or(0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mb() > 0.5, "VmHWM unreadable");
        let t0 = cpu_time();
        let mut x = 0u64;
        while cpu_time() - t0 < Duration::from_millis(20) {
            x = std::hint::black_box(x + 1);
        }
        assert!(cpu_time() > t0);
    }
}
