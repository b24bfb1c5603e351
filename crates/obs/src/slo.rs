//! SLO burn-rate counters: deadline-miss and shed rates over short
//! and long sliding windows.
//!
//! Plain counters answer "how many sheds ever"; operating a fleet
//! needs "how fast are we burning error budget *right now*" — the
//! multiwindow burn-rate alert shape. Each [`BurnWindow`] is a ring
//! of per-second buckets (stamp + count), written lock-free with
//! plain atomics: a recorder CAS-claims the current second's slot,
//! zeroing it if the stamp is stale, then increments the count.
//! Readers sum the slots whose stamps fall inside the queried window.
//!
//! The two canonical windows are [`SHORT_WINDOW`] (fast burn —
//! page-worthy) and [`LONG_WINDOW`] (slow burn — ticket-worthy).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use crate::clock;

/// Fast-burn window: a spike visible here means active overload.
pub const SHORT_WINDOW: Duration = Duration::from_secs(10);
/// Slow-burn window: sustained elevation here means capacity debt.
pub const LONG_WINDOW: Duration = Duration::from_secs(60);

/// Per-second slots retained; must exceed `LONG_WINDOW` seconds so a
/// long-window read never wraps onto live data.
const SLOTS: usize = 128;

/// A lock-free sliding-window event counter with one-second buckets.
pub struct BurnWindow {
    /// Second-since-epoch stamp for each slot (`u64::MAX` = empty).
    stamps: [AtomicU64; SLOTS],
    /// Event count within the stamped second.
    counts: [AtomicU64; SLOTS],
    /// All-time event total.
    total: AtomicU64,
}

impl Default for BurnWindow {
    fn default() -> Self {
        Self::new()
    }
}

impl BurnWindow {
    /// An empty window.
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const EMPTY: AtomicU64 = AtomicU64::new(u64::MAX);
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self { stamps: [EMPTY; SLOTS], counts: [ZERO; SLOTS], total: ZERO }
    }

    /// Counts one event at "now".
    pub fn record(&self) {
        self.record_at(Duration::from_micros(clock::now_us()));
    }

    /// Counts one event at an explicit offset from the process epoch
    /// (tests use this to exercise window edges without sleeping).
    pub fn record_at(&self, since_epoch: Duration) {
        let sec = since_epoch.as_secs();
        let slot = (sec as usize) % SLOTS;
        let stamp = &self.stamps[slot];
        let prev = stamp.load(Ordering::Acquire);
        if prev != sec {
            // Claim the slot for this second; the single winner zeroes
            // the stale count. Losers see `prev == sec` on reload (or
            // a racing newer second, in which case their event lands
            // in a slot that is already being reused — acceptable
            // smear for a rate estimator).
            if stamp.compare_exchange(prev, sec, Ordering::AcqRel, Ordering::Acquire).is_ok() {
                self.counts[slot].store(0, Ordering::Release);
            }
        }
        self.counts[slot].fetch_add(1, Ordering::AcqRel);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Events within the trailing `window` ending at `now` (an offset
    /// from the process epoch).
    pub fn count_over_at(&self, window: Duration, now: Duration) -> u64 {
        let now_sec = now.as_secs();
        let span = window.as_secs().min(SLOTS as u64 - 1);
        let oldest = now_sec.saturating_sub(span);
        let mut sum = 0;
        for i in 0..SLOTS {
            let stamp = self.stamps[i].load(Ordering::Acquire);
            if stamp != u64::MAX && stamp >= oldest && stamp <= now_sec {
                sum += self.counts[i].load(Ordering::Acquire);
            }
        }
        sum
    }

    /// Events per second over the trailing `window`.
    pub fn rate_over(&self, window: Duration) -> f64 {
        let now = Duration::from_micros(clock::now_us());
        self.count_over_at(window, now) as f64 / window.as_secs_f64().max(1e-9)
    }

    /// All-time event total.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }
}

/// The serving plane's SLO counters.
pub struct Slo {
    /// Queries that exhausted their deadline budget.
    pub deadline_miss: BurnWindow,
    /// Queries shed by admission control.
    pub shed: BurnWindow,
}

/// The process-global SLO counters.
pub fn slo() -> &'static Slo {
    static S: OnceLock<Slo> = OnceLock::new();
    S.get_or_init(|| Slo { deadline_miss: BurnWindow::new(), shed: BurnWindow::new() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_sums_only_recent_seconds() {
        let w = BurnWindow::new();
        let t = |s| Duration::from_secs(s);
        w.record_at(t(100));
        w.record_at(t(100));
        w.record_at(t(105));
        w.record_at(t(150));
        assert_eq!(w.count_over_at(Duration::from_secs(10), t(107)), 3);
        assert_eq!(w.count_over_at(Duration::from_secs(10), t(155)), 1);
        assert_eq!(w.count_over_at(Duration::from_secs(60), t(155)), 4);
        assert_eq!(w.count_over_at(Duration::from_secs(60), t(170)), 1);
        assert_eq!(w.total(), 4);
    }

    #[test]
    fn stale_slots_are_zeroed_on_reuse() {
        let w = BurnWindow::new();
        let t = |s| Duration::from_secs(s);
        // Second 5 and second 5 + SLOTS share a slot.
        w.record_at(t(5));
        w.record_at(t(5));
        w.record_at(t(5 + SLOTS as u64));
        assert_eq!(w.count_over_at(Duration::from_secs(10), t(7 + SLOTS as u64)), 1);
        assert_eq!(w.total(), 3);
    }

    #[test]
    fn concurrent_records_are_all_counted_within_one_second() {
        let w = BurnWindow::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..500 {
                        w.record_at(Duration::from_secs(33));
                    }
                });
            }
        });
        assert_eq!(w.count_over_at(Duration::from_secs(10), Duration::from_secs(34)), 2000);
        assert_eq!(w.total(), 2000);
    }

    #[test]
    fn global_slo_counters_exist_and_rate_is_finite() {
        slo().shed.record();
        slo().deadline_miss.record();
        assert!(slo().shed.total() >= 1);
        assert!(slo().shed.rate_over(SHORT_WINDOW).is_finite());
        assert!(LONG_WINDOW.as_secs() < SLOTS as u64);
    }
}
