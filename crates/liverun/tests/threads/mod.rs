//! Thread inventory helpers shared by the integration tests that count
//! a deployment's threads.

use std::sync::{Mutex, PoisonError};

/// Held while probing for free ports and while [`alone`] forks its
/// child: a child forked while a probe's listener is open keeps a copy of
/// it until it execs, and the test's own bind of that port then fails.
static FORK: Mutex<()> = Mutex::new(());

/// A block of `n` free localhost ports
/// ([`liverun::config::free_port_block`]), never probed while a child is
/// being forked.
pub fn free_ports(n: u16) -> u16 {
    let _fork = FORK.lock().unwrap_or_else(PoisonError::into_inner);
    liverun::config::free_port_block(n).unwrap()
}

/// The names of this process's running threads (`comm`, at most 15
/// bytes).
pub fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
}

/// This process's threads once there are `expected` of them and none is
/// a dial helper, waiting at most five seconds. A dial helper lives only
/// until its connect returns, and a thread just spawned still bears its
/// parent's name until it names itself, so one snapshot can catch a
/// helper that a loop starts at that moment under its loop's name.
pub fn settled_threads(expected: usize) -> Vec<String> {
    let settled = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let names = thread_names();
        let dialing = names.iter().any(|n| n.contains("-dial"));
        if (names.len() == expected && !dialing) || std::time::Instant::now() > settled {
            return names;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

/// `true` when `test` runs alone in this process. Otherwise runs it
/// alone — `--exact`, in a child process of this test binary, where no
/// other test's threads share `/proc/self/task` — asserts that it
/// passed, and returns `false`.
pub fn alone(test: &str) -> bool {
    if std::env::args().any(|arg| arg == "--exact") {
        return true;
    }
    let child = {
        // `spawn` returns once the child has exec'd.
        let _fork = FORK.lock().unwrap_or_else(PoisonError::into_inner);
        std::process::Command::new(std::env::current_exe().unwrap())
            .args([test, "--exact", "--test-threads=1", "--nocapture"])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .unwrap()
    };
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "{test} alone:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    false
}
