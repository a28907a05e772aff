//! What the operating system reports about this process and host: CPU time and peak
//! resident memory from `/proc`, and the fingerprint (`env` block) stored with results.

use std::process::Command;
use std::time::{Duration, Instant};

use serde::json::JsonValue;

/// Kernel clock ticks per second for the `utime`/`stime` fields of `/proc/self/stat`
/// (`USER_HZ`, fixed at 100 on Linux).
const USER_HZ: f64 = 100.0;

/// Process-wide user + system CPU seconds (all threads), or `None` off Linux.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields are counted after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3; utime and stime are fields 14 and 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Reads process CPU time at the start of a window, at each of the `segments - 1`
/// equally spaced boundaries inside it, and once more when [`CpuMarks::finish`] is
/// called: `segments + 1` readings, from a thread that otherwise sleeps.
pub struct CpuMarks {
    sampler: std::thread::JoinHandle<Vec<f64>>,
}

impl CpuMarks {
    pub fn start(window: Duration, segments: u32) -> Self {
        let start = Instant::now();
        let sampler = std::thread::spawn(move || {
            let mut marks = vec![cpu_seconds().unwrap_or(0.0)];
            for boundary in 1..segments {
                let at = start + window * boundary / segments;
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                marks.push(cpu_seconds().unwrap_or(0.0));
            }
            marks
        });
        Self { sampler }
    }

    /// Waits for the last boundary and appends the closing reading.
    pub fn finish(self) -> Vec<f64> {
        let mut marks = self.sampler.join().expect("CPU sampler panicked");
        marks.push(cpu_seconds().unwrap_or(0.0));
        marks
    }
}

/// Peak resident set size (`VmHWM`) in MiB, or `None` off Linux.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The host/toolchain fingerprint recorded with every results file, so two result
/// sets are only compared knowingly across hosts, backends or compilers.
pub fn env_block(seed: u64, seconds: f64) -> JsonValue {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cpu = vitality_tensor::cpu_features();
    let unknown = || "unknown".to_string();
    let mut env = JsonValue::object();
    env.set("cpu_model", cpu_model)
        .set(
            "nproc",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .set("matmul_backend", vitality_tensor::matmul_backend().label())
        .set("cpu_avx2", cpu.avx2)
        .set("cpu_fma", cpu.fma)
        .set("perf_supported", perf::supported())
        .set(
            "rustc",
            command_line("rustc", &["--version"]).unwrap_or_else(unknown),
        )
        .set(
            "git_sha",
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        )
        .set("seed", seed)
        .set("seconds", seconds);
    env
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_present_and_monotone_on_linux() {
        if !cfg!(target_os = "linux") {
            return;
        }
        let before = cpu_seconds().expect("cpu time");
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds().expect("cpu time") >= before);
        assert!(peak_rss_mib().expect("VmHWM") > 0.0);
    }

    #[test]
    fn cpu_marks_bracket_every_segment() {
        let marks = CpuMarks::start(Duration::from_millis(40), 4).finish();
        assert_eq!(marks.len(), 5);
        assert!(marks.windows(2).all(|w| w[0] <= w[1]));
    }
}
