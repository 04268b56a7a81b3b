//! Thread inventory helpers shared by the integration tests that count
//! a deployment's threads.

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

/// `true` when `test` runs alone in this process. Otherwise runs it
/// alone — `--exact`, in a child process of this test binary, where no
/// other test's threads share `/proc/self/task` — asserts that it
/// passed, and returns `false`.
pub fn alone(test: &str) -> bool {
    if std::env::args().any(|arg| arg == "--exact") {
        return true;
    }
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args([test, "--exact", "--test-threads=1", "--nocapture"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "{test} alone:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    false
}
