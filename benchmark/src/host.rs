//! What the machine was doing while a workload ran: core count, stolen
//! CPU, peak memory, threads created. These explain an unresolved
//! comparison; they are never a claim.

use std::process::Command;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Counters from `/proc/stat` at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStat {
    /// All CPU jiffies (hundredths of a second, every CPU), every state.
    pub total: u64,
    /// Jiffies the guest wanted and the hypervisor gave to someone else.
    pub steal: u64,
    /// Forks and thread creations since boot, system-wide.
    pub processes: u64,
}

pub fn proc_stat() -> ProcStat {
    parse_proc_stat(&std::fs::read_to_string("/proc/stat").unwrap_or_default())
}

fn parse_proc_stat(text: &str) -> ProcStat {
    let mut out = ProcStat::default();
    for line in text.lines() {
        let mut it = line.split_ascii_whitespace();
        match it.next() {
            Some("cpu") => {
                // user nice system idle iowait irq softirq steal [guest …];
                // guest time is already inside user, so stop after steal
                let v: Vec<u64> = it.take(8).filter_map(|t| t.parse().ok()).collect();
                out.total = v.iter().sum();
                out.steal = v.get(7).copied().unwrap_or(0);
            }
            Some("processes") => {
                out.processes = it.next().and_then(|t| t.parse().ok()).unwrap_or(0)
            }
            _ => {}
        }
    }
    out
}

impl ProcStat {
    /// Share of all CPU time since `earlier` that was stolen.
    pub fn steal_fraction_since(&self, earlier: &ProcStat) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }

    /// Threads and processes created since `earlier`, system-wide — on a
    /// box running only the benchmark, the threads the workload spawned.
    pub fn spawned_since(&self, earlier: &ProcStat) -> u64 {
        self.processes.saturating_sub(earlier.processes)
    }
}

/// Peak resident set (`VmHWM`) of this process in MB; 0 where `/proc` has
/// no such line.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_ascii_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .map(str::to_string)
    })?
}

pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())
}

/// The commit measured, `-dirty` when the tree has uncommitted changes;
/// `unknown` outside a git checkout (the driver's checkouts are not one).
pub fn commit() -> String {
    let Some(head) = first_line_of("git", &["rev-parse", "HEAD"]) else {
        return "unknown".into();
    };
    match first_line_of("git", &["status", "--porcelain"]) {
        Some(_) => format!("{head}-dirty"),
        None => head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_stat_fields_are_read_by_position() {
        let a = parse_proc_stat("cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 1 2 3\nprocesses 400\n");
        assert_eq!((a.total, a.steal, a.processes), (1000, 35, 400));
        let b = parse_proc_stat("cpu  150 0 60 1700 10 0 5 75 9 0\nprocesses 460\n");
        assert!((b.steal_fraction_since(&a) - 0.04).abs() < 1e-12);
        assert_eq!(b.spawned_since(&a), 60);
        assert_eq!(a.steal_fraction_since(&a), 0.0);
        assert_eq!(parse_proc_stat("").total, 0);
    }

    #[test]
    fn this_process_has_a_peak_rss_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
        assert!(nproc() >= 1);
    }
}
