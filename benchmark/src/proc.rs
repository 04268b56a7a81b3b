//! Process accounting read from `/proc/self`.

use std::fs;

/// Linux reports `utime`/`stime` in clock ticks; `USER_HZ` is 100 on
/// every architecture Linux supports.
const TICKS_PER_SEC: f64 = 100.0;

/// Cumulative CPU seconds of the whole process (all threads, exited
/// ones included): `(user, system)`.
pub fn cpu_seconds() -> (f64, f64) {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis are positional: utime is the 12th, stime the
    // 13th of them.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
            / TICKS_PER_SEC
    };
    let user = tick();
    (user, tick())
}

/// CPU seconds the process's live threads have run, from the
/// scheduler's own nanosecond accounting (`/proc/self/task/*/schedstat`).
/// `utime`/`stime` are sampled at clock ticks, and a deployment that is
/// mostly short timer wake-ups aliases with the tick: on `geo_wan` the
/// tick-sampled figure swung 2× between identical runs. Threads that
/// exit between two readings take their time with them; none do during
/// a measured interval.
pub fn cpu_seconds_scheduled() -> f64 {
    let mut nanos = 0u64;
    for task in fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
    {
        nanos += fs::read_to_string(task.path().join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            .unwrap_or(0);
    }
    nanos as f64 / 1e9
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb(
        &fs::read_to_string("/proc/self/status").unwrap_or_default(),
        "VmHWM:",
    ) / 1024.0
}

fn status_kb(status: &str, key: &str) -> f64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Live threads of the process and the context switches (voluntary +
/// involuntary) they have made so far.
pub fn threads_and_ctx_switches() -> (u64, u64) {
    let mut threads = 0;
    let mut switches = 0.0;
    for task in fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
    {
        let Ok(status) = fs::read_to_string(task.path().join("status")) else {
            continue; // the thread exited while we were listing
        };
        threads += 1;
        switches += status_kb(&status, "voluntary_ctxt_switches:")
            + status_kb(&status, "nonvoluntary_ctxt_switches:");
    }
    (threads, switches as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        let (user, sys) = cpu_seconds();
        assert!(user >= 0.0 && sys >= 0.0);
        assert!(cpu_seconds_scheduled() > 0.0);
        assert!(peak_rss_mb() > 0.0);
        let (threads, _) = threads_and_ctx_switches();
        assert!(threads >= 1);
    }

    #[test]
    fn parses_status_lines() {
        let status = "Name:\tx\nVmHWM:\t  2048 kB\nvoluntary_ctxt_switches:\t17\n";
        assert_eq!(status_kb(status, "VmHWM:"), 2048.0);
        assert_eq!(status_kb(status, "voluntary_ctxt_switches:"), 17.0);
        assert_eq!(status_kb(status, "absent:"), 0.0);
    }
}
