//! Brownout degradation: under sustained pressure the gateway trades accuracy for
//! latency along the paper's own axis instead of shedding requests.
//!
//! ViTALiTy's whole premise is that the linear Taylor path (served here as the
//! `latency` tier's int8 variant) answers the same request far cheaper than the
//! exact unified path (`accuracy` tier). The [`BrownoutController`] watches the
//! pressure signal the prober already collects — probed backend queue depths and
//! in-flight batches, optionally the miss-path p95 latency — and, past the
//! configured [`BrownoutConfig`] thresholds,
//! downgrades `accuracy`-tier requests to the latency variant. The response is
//! annotated (`"degraded": true`) and counted, so clients and dashboards can see
//! the trade being made; explicit model keys and `latency`-tier requests are never
//! touched.
//!
//! Hysteresis: entry and exit use different thresholds (`enter_pressure` >
//! `exit_pressure`) and an engaged brownout holds for at least `min_hold`, so one
//! hot probe round cannot flap the cluster's tier routing.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::config::BrownoutConfig;

/// Tracks cluster pressure across prober rounds and decides whether the gateway is
/// currently degrading accuracy-tier traffic.
#[derive(Debug)]
pub struct BrownoutController {
    config: BrownoutConfig,
    engaged: AtomicBool,
    engaged_at: Mutex<Option<Instant>>,
    /// Times brownout has engaged since startup.
    entries: AtomicU64,
    /// Last observed pressure, stored as f64 bits for the healthz snapshot.
    last_pressure: AtomicU64,
}

impl BrownoutController {
    /// Creates a disengaged controller with the given thresholds.
    pub fn new(config: BrownoutConfig) -> Self {
        assert!(
            config.exit_pressure <= config.enter_pressure,
            "exit_pressure ({}) must not exceed enter_pressure ({}) — the gap is the hysteresis band",
            config.exit_pressure,
            config.enter_pressure
        );
        Self {
            config,
            engaged: AtomicBool::new(false),
            engaged_at: Mutex::new(None),
            entries: AtomicU64::new(0),
            last_pressure: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Feeds one prober round's observation: `pressure` is the mean probed
    /// `queue_depth + in_flight_batches` per admitted backend, `miss_p95_us` the
    /// gateway's current miss-path p95 latency.
    pub fn observe(&self, pressure: f64, miss_p95_us: u64) {
        self.last_pressure
            .store(pressure.to_bits(), Ordering::Relaxed);
        let latency_hot = self
            .config
            .miss_p95_trigger_us
            .is_some_and(|threshold| miss_p95_us >= threshold);
        let hot = pressure >= self.config.enter_pressure || latency_hot;
        if self.engaged.load(Ordering::SeqCst) {
            // Exit needs all three: not currently hot, pressure inside the exit
            // band, and the minimum hold served.
            let mut engaged_at = self.engaged_at.lock().expect("brownout lock poisoned");
            let held_long_enough =
                engaged_at.is_some_and(|since| since.elapsed() >= self.config.min_hold);
            if !hot && pressure <= self.config.exit_pressure && held_long_enough {
                *engaged_at = None;
                self.engaged.store(false, Ordering::SeqCst);
                trace::info!("brownout disengaged (pressure {pressure:.2})");
            }
        } else if hot {
            *self.engaged_at.lock().expect("brownout lock poisoned") = Some(Instant::now());
            self.entries.fetch_add(1, Ordering::Relaxed);
            self.engaged.store(true, Ordering::SeqCst);
            trace::info!(
                "brownout engaged (pressure {pressure:.2}, latency trigger: {latency_hot})"
            );
        }
    }

    /// Whether accuracy-tier requests are currently being downgraded.
    pub fn engaged(&self) -> bool {
        self.engaged.load(Ordering::SeqCst)
    }

    /// The pressure value fed by the most recent prober round.
    pub fn last_pressure(&self) -> f64 {
        f64::from_bits(self.last_pressure.load(Ordering::Relaxed))
    }

    /// Times brownout has engaged since startup.
    pub fn entries(&self) -> u64 {
        self.entries.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn config(enter: f64, exit: f64, hold_ms: u64) -> BrownoutConfig {
        BrownoutConfig {
            enter_pressure: enter,
            exit_pressure: exit,
            min_hold: Duration::from_millis(hold_ms),
            miss_p95_trigger_us: None,
        }
    }

    #[test]
    fn engages_at_enter_and_recovers_only_below_exit() {
        let ctl = BrownoutController::new(config(8.0, 2.0, 0));
        ctl.observe(5.0, 0);
        assert!(!ctl.engaged(), "below enter threshold");
        ctl.observe(9.0, 0);
        assert!(ctl.engaged(), "at/above enter threshold");
        assert_eq!(ctl.entries(), 1);
        // Inside the hysteresis band: stays engaged.
        ctl.observe(5.0, 0);
        assert!(ctl.engaged(), "between exit and enter stays engaged");
        ctl.observe(1.0, 0);
        assert!(!ctl.engaged(), "below exit recovers");
        assert!((ctl.last_pressure() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn min_hold_debounces_recovery() {
        let ctl = BrownoutController::new(config(8.0, 2.0, 40));
        ctl.observe(10.0, 0);
        assert!(ctl.engaged());
        ctl.observe(0.0, 0);
        assert!(ctl.engaged(), "a single quiet round inside min_hold holds");
        std::thread::sleep(Duration::from_millis(60));
        ctl.observe(0.0, 0);
        assert!(!ctl.engaged(), "after min_hold the quiet round recovers");
    }

    #[test]
    fn latency_trigger_counts_as_pressure() {
        let ctl = BrownoutController::new(BrownoutConfig {
            miss_p95_trigger_us: Some(250_000),
            ..config(100.0, 1.0, 0)
        });
        ctl.observe(0.0, 100_000);
        assert!(!ctl.engaged(), "latency under the trigger");
        ctl.observe(0.0, 300_000);
        assert!(
            ctl.engaged(),
            "slow misses engage brownout without deep queues"
        );
        ctl.observe(0.0, 100_000);
        assert!(
            !ctl.engaged(),
            "fast again (and under exit pressure) recovers"
        );
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn inverted_thresholds_are_rejected() {
        BrownoutController::new(config(2.0, 8.0, 0));
    }
}
