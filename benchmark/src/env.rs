//! What the result depends on besides the code: cores, load, toolchain,
//! commit, and the process's own memory high-water mark.

use std::process::Command;

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One-minute load average, if the platform exposes it.
pub fn load_average() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/loadavg").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Peak resident set size of this process in MB (`VmHWM`), if exposed.
pub fn peak_rss_mb() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Keeps only characters the JSON writer can emit without escaping.
fn plain(s: &str) -> String {
    s.trim()
        .chars()
        .map(|c| match c {
            'A'..='Z' | 'a'..='z' | '0'..='9' | '_' | '.' | '-' | ' ' | '(' | ')' => c,
            _ => '_',
        })
        .collect()
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(plain))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `rustc --version`, or `unknown`.
pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"])
}

/// The checked-out commit, or `unknown` outside a git work tree.
pub fn git_commit() -> String {
    first_line_of("git", &["rev-parse", "HEAD"])
}
