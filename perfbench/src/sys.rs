//! Process-level measurements read from `/proc` (Linux): CPU time, peak
//! resident set, and the core count the load is sized to.

use std::time::Instant;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. Linux
/// fixes it at 100 on every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has used so far, all threads.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis are space separated. utime and stime are
    // fields 14 and 15, i.e. the 12th and 13th after the parenthesis.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<f64>().expect("numeric stat field") };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Accumulates wall and CPU time over the timed phases of a run, so that
/// set-up and teardown between timed phases stay out of both.
#[derive(Default)]
pub struct PhaseClock {
    /// Wall seconds inside timed phases.
    pub wall_s: f64,
    /// Process CPU seconds inside timed phases.
    pub cpu_s: f64,
}

impl PhaseClock {
    /// Time `f` as one timed phase.
    pub fn measure<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (t0, c0) = (Instant::now(), cpu_s());
        let out = f();
        self.wall_s += t0.elapsed().as_secs_f64();
        self.cpu_s += cpu_s() - c0;
        out
    }
}
