//! The process clock, which every timestamp and duration in the
//! workspace reads. Its one epoch, started by the first read, is the
//! origin of span `start_us`, recorder `at_us` and the SLO windows'
//! second stamps, so all three share one time axis.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// The current instant (never before the epoch).
pub fn now() -> Instant {
    epoch();
    Instant::now()
}

/// Time elapsed since `t`, zero if `t` is later than now.
pub fn since(t: Instant) -> Duration {
    now().saturating_duration_since(t)
}

/// Microseconds since the epoch.
pub fn now_us() -> u64 {
    since(epoch()).as_micros() as u64
}

/// Runs `f`; returns its result and the wall-clock time it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = now();
    let r = f();
    (r, since(start))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_measures_the_closure_on_the_epoch_clock() {
        let before = now_us();
        let (v, d) = timed(|| {
            std::thread::sleep(Duration::from_millis(2));
            42
        });
        assert_eq!(v, 42);
        assert!(d >= Duration::from_millis(2) && d < Duration::from_secs(5), "{d:?}");
        assert!(now_us() >= before + 2_000);
    }
}
