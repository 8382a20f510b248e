//! Readings of the machine and the process from `/proc`.

use std::fs;
use std::process::Command;

/// Clock ticks per second of `/proc` CPU counters (`USER_HZ`), which is
/// 100 on every Linux architecture the benchmark targets.
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU time of this process in milliseconds, from the
/// `utime` and `stime` fields of `/proc/self/stat`.
pub fn process_cpu_ms() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name (field 2) may hold spaces; fields after it are
    // counted from the closing parenthesis.
    let after = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let field = |index: usize| -> Result<f64, String> {
        fields
            .get(index)
            .and_then(|v| v.parse::<u64>().ok())
            .map(|v| v as f64)
            .ok_or_else(|| format!("missing field {index} of /proc/self/stat"))
    };
    // utime and stime are fields 14 and 15; `after` starts at field 3.
    Ok((field(11)? + field(12)?) * 1000.0 / TICKS_PER_SECOND)
}

/// Steal ticks of all CPUs so far, from the `cpu` line of `/proc/stat`.
pub fn steal_ticks() -> Result<u64, String> {
    let stat = fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    let line = stat.lines().find(|l| l.starts_with("cpu ")).ok_or("no cpu line in /proc/stat")?;
    line.split_whitespace()
        .nth(8)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "no steal column in /proc/stat".to_owned())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Number of CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

/// The `rustc --version` line of the toolchain on `PATH`.
pub fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|v| v.trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}
