//! What the host took from a test while it ran, for the failure messages
//! of timing bounds: the machine's steal ticks (`/proc/stat`) and this
//! process's run delay, the time its threads waited runnable for a CPU
//! (`/proc/self/task/*/schedstat`). A bound missed under heavy steal is
//! the host's load, not the program's. Only reads `/proc`; reads 0 where
//! it is not there.

use std::collections::HashMap;

/// The counters at one instant.
pub struct Steal {
    ticks: u64,
    run_delay: HashMap<String, u64>,
}

impl Steal {
    /// The counters now.
    pub fn now() -> Self {
        Steal {
            ticks: steal_ticks(),
            run_delay: run_delay_ns(),
        }
    }

    /// What accrued since `self`, as a clause for a failure message. The
    /// run delay counts the threads alive now.
    pub fn since(&self) -> String {
        let delay: u64 = (run_delay_ns().into_iter())
            .map(|(tid, ns)| ns.saturating_sub(self.run_delay.get(&tid).copied().unwrap_or(0)))
            .sum();
        format!(
            "host steal {} ticks, run delay {:.1} ms",
            steal_ticks().saturating_sub(self.ticks),
            delay as f64 / 1e6
        )
    }
}

/// The `steal` column of `/proc/stat`'s aggregate `cpu` line.
fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu = stat.lines().find(|l| l.starts_with("cpu ")).unwrap_or("");
    cpu.split_whitespace()
        .nth(8)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Per thread of this process, the nanoseconds it has waited runnable
/// (the second field of its `schedstat`).
fn run_delay_ns() -> HashMap<String, u64> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return HashMap::new();
    };
    (tasks.flatten())
        .filter_map(|task| {
            let stat = std::fs::read_to_string(task.path().join("schedstat")).ok()?;
            let delay = stat.split_whitespace().nth(1)?.parse().ok()?;
            Some((task.file_name().to_string_lossy().into_owned(), delay))
        })
        .collect()
}
