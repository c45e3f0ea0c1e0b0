//! Host fingerprint printed with every result, and process memory.

use std::process::{Command, Stdio};

/// Cores, last-level cache, commit and compiler of this run.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let l3 = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned());
    let commit = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    format!(
        "nproc={nproc} l3={l3} commit={commit} rustc=\"{}\"",
        env!("PERFBENCH_RUSTC")
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
