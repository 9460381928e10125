//! What the operating system says about this process and this machine.

use std::process::Command;

use crate::json::Value;

/// Kernel clock ticks per second in `/proc/<pid>/stat`. Linux reports
/// these fields in `USER_HZ`, which is 100 on every supported platform;
/// reading the true value needs `sysconf`, which needs libc.
const USER_HZ: f64 = 100.0;

fn proc_status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix(field)?.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
            })
        })
        .unwrap_or(0.0)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

/// Names the directory in which a node process leaves its own peak
/// memory when it exits; `net-open` sets it for the processes it deploys.
pub const NODE_RSS_DIR: &str = "OC_BENCHMARK_NODE_RSS_DIR";

/// Called by a node process on its way out: nobody can read the `VmHWM`
/// of a process that has exited, so it writes its own.
pub fn leave_peak_rss() {
    if let Some(dir) = std::env::var_os(NODE_RSS_DIR) {
        let file = std::path::Path::new(&dir).join(std::process::id().to_string());
        let _ = std::fs::write(file, peak_rss_mb().to_string());
    }
}

/// Sums and removes what the node processes of one deployment left in
/// `dir`, in MB.
pub fn collect_node_rss_mb(dir: &std::path::Path) -> f64 {
    let mut sum = 0.0;
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let text = std::fs::read_to_string(entry.path()).unwrap_or_default();
        sum += text.trim().parse::<f64>().unwrap_or(0.0);
        let _ = std::fs::remove_file(entry.path());
    }
    sum
}

/// CPU seconds (user + system) consumed so far by this process's threads
/// and by the children it has already waited for.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime, stime, cutime, cstime are
    // fields 14–17.
    let Some((_, rest)) = stat.rsplit_once(')') else { return 0.0 };
    rest.split_whitespace().skip(11).take(4).filter_map(|f| f.parse::<f64>().ok()).sum::<f64>()
        / USER_HZ
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Where a result was produced: every number in the result file is a
/// number about this machine and this commit.
pub fn provenance() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Value::Obj(vec![
        ("nproc", Value::UInt(nproc as u64)),
        ("arch", Value::str(std::env::consts::ARCH)),
        ("os", Value::str(std::env::consts::OS)),
        ("rustc", Value::str(command_line("rustc", &["--version"]))),
        ("git_head", Value::str(command_line("git", &["rev-parse", "HEAD"]))),
    ])
}
