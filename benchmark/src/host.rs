//! What the host can tell the benchmark: CPU time, peak memory, core
//! count, streaming bandwidth, and the order statistics used throughout.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Clock ticks per second of `/proc/self/stat` (`USER_HZ`, 100 on every
/// Linux ABI the benchmark runs on).
const USER_HZ: f64 = 100.0;

/// Process CPU time so far (user + system, all threads), in milliseconds.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the line, 12 and 13 after the name.
    let ticks: f64 = fields[11..13]
        .iter()
        .map(|f| f.parse::<f64>().expect("tick count"))
        .sum();
    ticks * 1e3 / USER_HZ
}

/// Peak resident set size of the process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .expect("VmHWM value")
        .parse()
        .expect("VmHWM number");
    kb / 1e3
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Read bandwidth of one thread summing a `bytes`-sized `u32` buffer, in
/// GB/s: the median of 5 reps (after one untimed) and their spread
/// ((max − min) ÷ median). A rep is 32 passes over the buffer: single
/// passes of a millisecond or two differed by more than half.
pub fn stream_gbps(bytes: usize) -> (f64, f64) {
    const PASSES: usize = 32;
    let buf: Vec<u32> = (0..(bytes / 4).max(1) as u32).collect();
    let mut rates = Vec::new();
    for rep in 0..6 {
        let t = Instant::now();
        for _ in 0..PASSES {
            let sum = black_box(&buf).iter().fold(0u32, |a, &x| a.wrapping_add(x));
            black_box(sum);
        }
        if rep > 0 {
            rates.push((PASSES * buf.len()) as f64 * 4.0 / t.elapsed().as_secs_f64() / 1e9);
        }
    }
    let mid = median(&rates);
    let (lo, hi) = rates
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &r| (lo.min(r), hi.max(r)));
    (mid, (hi - lo) / mid)
}

/// Milliseconds one run of the [`SpeedKernel`] takes on this class of host
/// when nothing disturbs it; it only fixes the unit of the slowdown.
const KERNEL_REFERENCE_MS: f64 = 3.5;

/// A fixed piece of work the benchmark owns, timed to tell how slow the
/// machine runs right now. Like the workloads it is part streaming from
/// memory and part arithmetic in cache: one pass of wrapping multiply-adds
/// over a 16 MiB buffer, then 128 passes over the buffer's first 256 KiB.
pub struct SpeedKernel {
    buf: Vec<u64>,
}

impl Default for SpeedKernel {
    fn default() -> Self {
        Self {
            buf: (0..2u64 << 20)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect(),
        }
    }
}

impl SpeedKernel {
    /// Runs the kernel again and again for `budget` on the calling thread
    /// and returns each run's time over the reference: 1.0 on an
    /// undisturbed host, above it when the machine is slow. The caller
    /// sees to it that the process does nothing else meanwhile.
    pub fn slowdowns(&self, budget: Duration) -> Vec<f64> {
        let pass = |acc: u64, block: &[u64], by: u64| {
            // Opaque, so that the multiplications stay multiplications.
            let by = black_box(by);
            block
                .iter()
                .fold(acc, |a, &x| a.wrapping_add(x.wrapping_mul(by)))
        };
        let start = Instant::now();
        let mut samples = Vec::new();
        while start.elapsed() < budget {
            let t = Instant::now();
            let mut acc = pass(0, &self.buf, 3);
            for i in 0..128 {
                acc = pass(acc, &self.buf[..32768], i | 1);
            }
            black_box(acc);
            samples.push(t.elapsed().as_secs_f64() * 1e3 / KERNEL_REFERENCE_MS);
        }
        samples
    }
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)`; `None` below 11 samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = n - 11;
    Some((100.0 * (idx + 1) as f64 / n as f64, v[idx]))
}
