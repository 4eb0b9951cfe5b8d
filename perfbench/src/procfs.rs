//! Process and host facts: peak RSS from `/proc/self`, CPU count, and
//! the commit the checkout was made from.

use std::fs;

/// The process's peak resident set (`VmHWM`) in MiB, or 0 when the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets `VmHWM` to the current RSS (`/proc/self/clear_refs` ← `5`), so
/// the next [`peak_rss_mb`] reads the peak of the code run in between.
pub fn reset_peak_rss() {
    // Best effort: without the reset the reading is the process peak.
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// CPUs available to this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit `HEAD` names in `.git` under the working directory, or
/// `"unknown"` when the checkout carries no git metadata.
pub fn git_commit() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(name) => fs::read_to_string(format!(".git/{name}"))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| packed_ref(name)),
        None => Some(head.to_string()),
    };
    commit
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn packed_ref(name: &str) -> Option<String> {
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (hash, r) = l.split_once(' ')?;
        (r == name).then(|| hash.to_string())
    })
}
