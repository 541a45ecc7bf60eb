//! What the harness reads from the host: process CPU time and peak
//! memory from `/proc`, and the provenance header every run records
//! (ROADMAP: a number must name the host it ran on).

use serde::json::Value;
use std::process::Command;
use std::time::Duration;

/// Kernel clock ticks per second for `/proc/self/stat` times. Linux
/// fixes `USER_HZ` at 100 on every architecture this repo builds for;
/// there is no libc in the offline dependency set to ask `sysconf`.
const TICKS_PER_SEC: u64 = 100;

/// User and system ticks (`utime`, `stime`: fields 14 and 15) of a
/// `/proc/<pid>/stat` line. The command name (field 2) may itself
/// contain spaces and parentheses, so fields are counted from the
/// *last* `)`.
#[must_use]
pub fn parse_stat_cpu(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime is 11 fields further on.
    let utime = fields.nth(11)?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// User + system CPU time this process (all threads, live and joined)
/// has consumed so far. Zero where `/proc` is unavailable.
#[must_use]
pub fn process_cpu() -> Duration {
    let ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu(&s))
        .map_or(0, |(u, s)| u + s);
    Duration::from_micros(ticks * (1_000_000 / TICKS_PER_SEC))
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status`
/// text, in kB.
#[must_use]
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size of this process so far, in MB (10⁶ bytes).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 * 1024.0 / 1e6)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Host and toolchain identity for a run's JSON header.
#[must_use]
pub fn provenance() -> Vec<(String, Value)> {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    vec![
        ("nproc".into(), Value::U64(nproc)),
        ("cpu_model".into(), Value::Str(cpu_model)),
        (
            "git_rev".into(),
            Value::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc".into(), Value::Str(command_line("rustc", &["-V"]))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_fields_survive_hostile_command_names() {
        let plain = "4242 (stackbench) S 1 4242 4242 0 -1 4194304 1500 0 0 0 \
                     321 45 0 0 20 0 7 0 123456 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_cpu(plain), Some((321, 45)));
        // A comm with spaces and a `)` must not shift the fields.
        let hostile = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 1500 0 0 0 \
                       9 8 0 0 20 0 7 0 123456 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_cpu(hostile), Some((9, 8)));
        assert_eq!(parse_stat_cpu("garbage"), None);
        assert_eq!(parse_stat_cpu("1 (x) S 1 2 3"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\tstackbench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn live_process_reports_cpu_and_memory() {
        // Burn a little CPU so at least one tick lands.
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed() < Duration::from_millis(40) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu() >= Duration::from_millis(10));
        assert!(peak_rss_mb() > 0.0);
    }
}
