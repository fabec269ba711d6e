//! Stopwatch for the coarse end-to-end timings (set-up, builds, cold
//! starts, throughput windows) that leaves out time the hypervisor
//! stole from this virtual machine.
//!
//! On a shared host the VM's vCPUs are descheduled for stretches that
//! belong to other tenants; the kernel counts them in the `steal`
//! column of `/proc/stat`. Subtracting them took the run-to-run range
//! of a repeated `train_pipeline` build from 14% to 4% on a 2-core VM.
//! The benchmark is the only busy process in its VM, and a stall of
//! either vCPU stalls its pool-synchronised work, so all stolen time is
//! charged to the interval. Where the kernel reports no steal time the
//! stopwatch reads plain wall time. Per-request latencies are too short
//! for the 10 ms resolution and stay plain wall time.

use std::time::Instant;

/// Clock ticks per second of `/proc/stat` (`USER_HZ`, 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// Seconds stolen from all vCPUs since boot, or 0 if not reported.
fn stolen_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .filter(|line| line.starts_with("cpu "))
        .and_then(|line| line.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / TICKS_PER_S)
}

pub struct Stopwatch {
    start: Instant,
    stolen: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch { start: Instant::now(), stolen: stolen_s() }
    }

    /// Wall seconds since the start, less the time stolen meanwhile.
    /// The correction is capped at half the interval: a larger reading
    /// would mean the VM barely ran, and says more about the host than
    /// about the program.
    pub fn seconds(&self) -> f64 {
        let wall = self.start.elapsed().as_secs_f64();
        (wall - (stolen_s() - self.stolen)).max(wall / 2.0)
    }
}
