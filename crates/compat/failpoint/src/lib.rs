//! A tiny fail-rs-style failpoint registry for chaos testing the serving stack.
//!
//! A *failpoint* is a named injection site compiled into production code paths
//! (`serve`'s HTTP framing, the worker loop, the gateway's prober). In the default
//! build every site is an inline no-op — [`fire`] is a `const`-foldable `false` and
//! the registry does not exist, so the alloc-regression and bench gates measure the
//! exact same code with or without this crate in the dependency graph. Building with
//! `RUSTFLAGS="--cfg failpoints"` compiles the registry in, and sites can then be
//! activated per test (or via the `FAILPOINTS` environment variable) to inject
//! stalls, partial writes, corrupted bytes, panics and probe failures.
//!
//! # Activation spec
//!
//! Each point is configured with a spec string:
//!
//! ```text
//! spec   := [prob '%'] [count '*'] kind ['@' thread_prefix]
//! kind   := 'off' | 'return' | 'sleep(' ms ')' | 'panic'
//! ```
//!
//! * `return` — [`fire`] yields `true`; the site injects its site-specific fault
//!   (truncate the write, flip the response bytes, fail the probe, ...).
//! * `sleep(ms)` — [`fire`] sleeps for `ms` milliseconds, then yields `false`
//!   (stall faults: slow reads/writes, wedged backends).
//! * `panic` — [`fire`] panics (worker-crash faults).
//! * `off` — the point stays registered but never triggers.
//! * `prob%` — trigger with the given percent probability, drawn from a
//!   deterministic xorshift generator seeded by [`set_seed`] (or the
//!   `FAILPOINTS_SEED` environment variable), so a chaos run replays exactly under
//!   a fixed seed and single-threaded evaluation order.
//! * `count*` — trigger at most `count` times; afterwards the point goes quiet.
//!   The count is consumed only by evaluations that pass the scope and probability
//!   filters.
//! * `@thread_prefix` — trigger only on threads whose name starts with the prefix.
//!   Serving threads carry their bound port in the name (`serve-conn-41123-…`), so
//!   one engine of an in-process cluster can be faulted while its siblings stay
//!   healthy.
//!
//! `FAILPOINTS="name=spec;name2=spec2"` configures points from the environment on
//! first use; programmatic [`cfg()`] calls override it.
//!
//! # Worked example: adding a new failpoint site
//!
//! Say the response cache should be able to simulate eviction storms. Add one line
//! at the site:
//!
//! ```ignore
//! pub fn put(&self, key: &str, hash: u64, reply: InferReply) {
//!     if failpoint::fire("cache-drop-put") {
//!         return; // injected fault: the entry is silently not cached
//!     }
//!     /* real insert */
//! }
//! ```
//!
//! and activate it from a chaos test built with `--cfg failpoints`:
//!
//! ```ignore
//! failpoint::cfg("cache-drop-put", "25%return").unwrap();
//! // ... drive traffic, assert hit-rate degradation is handled ...
//! failpoint::remove("cache-drop-put");
//! ```
//!
//! The default build pays nothing for the new site: `fire` is `#[inline(always)]`
//! `false`, so the branch folds away.

#![deny(missing_docs)]

/// Whether failpoints are compiled into this build.
#[cfg(failpoints)]
pub const ENABLED: bool = true;

/// Whether failpoints are compiled into this build.
#[cfg(not(failpoints))]
pub const ENABLED: bool = false;

/// Evaluates the named failpoint (no-op build): never triggers, costs nothing.
#[cfg(not(failpoints))]
#[inline(always)]
pub fn fire(_name: &str) -> bool {
    false
}

/// Configures a failpoint (no-op build): accepted and ignored, so test setup code
/// can run unconditionally.
#[cfg(not(failpoints))]
#[inline(always)]
pub fn cfg(_name: &str, _spec: &str) -> Result<(), String> {
    Ok(())
}

/// Removes a failpoint (no-op build).
#[cfg(not(failpoints))]
#[inline(always)]
pub fn remove(_name: &str) {}

/// Clears every failpoint (no-op build).
#[cfg(not(failpoints))]
#[inline(always)]
pub fn clear() {}

/// Seeds the probability generator (no-op build).
#[cfg(not(failpoints))]
#[inline(always)]
pub fn set_seed(_seed: u64) {}

#[cfg(failpoints)]
mod enabled {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    use std::time::Duration;

    /// What a triggered point does.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Kind {
        Off,
        Return,
        Sleep(u64),
        Panic,
    }

    #[derive(Debug, Clone)]
    struct Point {
        kind: Kind,
        /// Percent chance per evaluation (100 = always).
        prob_pct: u8,
        /// Remaining triggers (`None` = unlimited).
        remaining: Option<u64>,
        /// Thread-name prefix filter.
        thread_prefix: Option<String>,
    }

    struct Registry {
        points: HashMap<String, Point>,
        /// xorshift64* state for probabilistic triggers.
        rng_state: u64,
    }

    fn registry() -> &'static Mutex<Registry> {
        static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
        REGISTRY.get_or_init(|| {
            let mut reg = Registry {
                points: HashMap::new(),
                rng_state: std::env::var("FAILPOINTS_SEED")
                    .ok()
                    .and_then(|s| s.parse::<u64>().ok())
                    .unwrap_or(0x5DEECE66D)
                    | 1,
            };
            if let Ok(env) = std::env::var("FAILPOINTS") {
                for entry in env.split(';').filter(|e| !e.trim().is_empty()) {
                    if let Some((name, spec)) = entry.split_once('=') {
                        if let Ok(point) = parse_spec(spec.trim()) {
                            reg.points.insert(name.trim().to_string(), point);
                        } else {
                            trace::warn!("ignoring malformed FAILPOINTS entry {entry:?}");
                        }
                    }
                }
            }
            Mutex::new(reg)
        })
    }

    fn parse_spec(spec: &str) -> Result<Point, String> {
        // Split off the optional thread scope first: prob%count*kind@prefix.
        let (term, thread_prefix) = match spec.split_once('@') {
            Some((term, prefix)) if !prefix.is_empty() => (term, Some(prefix.to_string())),
            Some(_) => return Err(format!("empty thread prefix in {spec:?}")),
            None => (spec, None),
        };
        let (prob_pct, term) = match term.split_once('%') {
            Some((pct, rest)) => (
                pct.parse::<u8>()
                    .ok()
                    .filter(|p| *p <= 100)
                    .ok_or_else(|| format!("bad probability in {spec:?}"))?,
                rest,
            ),
            None => (100, term),
        };
        let (remaining, term) = match term.split_once('*') {
            Some((count, rest)) => (
                Some(
                    count
                        .parse::<u64>()
                        .map_err(|_| format!("bad count in {spec:?}"))?,
                ),
                rest,
            ),
            None => (None, term),
        };
        let kind = if term == "off" {
            Kind::Off
        } else if term == "return" {
            Kind::Return
        } else if term == "panic" {
            Kind::Panic
        } else if let Some(ms) = term
            .strip_prefix("sleep(")
            .and_then(|rest| rest.strip_suffix(')'))
        {
            Kind::Sleep(
                ms.parse::<u64>()
                    .map_err(|_| format!("bad sleep duration in {spec:?}"))?,
            )
        } else {
            return Err(format!("unknown failpoint action {term:?}"));
        };
        Ok(Point {
            kind,
            prob_pct,
            remaining,
            thread_prefix,
        })
    }

    /// xorshift64*: tiny, deterministic, good enough for fault probabilities.
    fn next_pct(state: &mut u64) -> u8 {
        let mut x = *state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        *state = x;
        ((x.wrapping_mul(0x2545F4914F6CDD1D) >> 32) % 100) as u8
    }

    /// Configures (or reconfigures) a failpoint from a spec string.
    pub fn cfg(name: &str, spec: &str) -> Result<(), String> {
        let point = parse_spec(spec)?;
        registry()
            .lock()
            .expect("failpoint registry poisoned")
            .points
            .insert(name.to_string(), point);
        Ok(())
    }

    /// Removes a failpoint; the site reverts to never triggering.
    pub fn remove(name: &str) {
        registry()
            .lock()
            .expect("failpoint registry poisoned")
            .points
            .remove(name);
    }

    /// Removes every configured failpoint (chaos-scenario teardown).
    pub fn clear() {
        registry()
            .lock()
            .expect("failpoint registry poisoned")
            .points
            .clear();
    }

    /// Reseeds the probability generator (overrides `FAILPOINTS_SEED`).
    pub fn set_seed(seed: u64) {
        registry()
            .lock()
            .expect("failpoint registry poisoned")
            .rng_state = seed | 1;
    }

    /// Evaluates the named failpoint.
    ///
    /// Sleep and panic actions are performed *inside* this call; a `return` action
    /// yields `true`, telling the site to inject its site-specific fault. Anything
    /// else (unregistered point, `off`, failed probability draw, exhausted count,
    /// thread-scope mismatch) yields `false`.
    pub fn fire(name: &str) -> bool {
        let action = {
            let mut reg = registry().lock().expect("failpoint registry poisoned");
            let Registry { points, rng_state } = &mut *reg;
            let Some(point) = points.get_mut(name) else {
                return false;
            };
            if matches!(point.kind, Kind::Off) {
                return false;
            }
            if let Some(prefix) = &point.thread_prefix {
                let matches_scope = std::thread::current()
                    .name()
                    .is_some_and(|n| n.starts_with(prefix.as_str()));
                if !matches_scope {
                    return false;
                }
            }
            if point.prob_pct < 100 && next_pct(rng_state) >= point.prob_pct {
                return false;
            }
            match &mut point.remaining {
                Some(0) => return false,
                Some(n) => *n -= 1,
                None => {}
            }
            point.kind
        };
        match action {
            Kind::Off => false,
            Kind::Return => true,
            Kind::Sleep(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
                false
            }
            Kind::Panic => panic!("failpoint {name:?} triggered a panic"),
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        // The registry is process-global and these tests share it; every test uses
        // its own point names so they can run concurrently.

        #[test]
        fn unregistered_and_off_points_never_trigger() {
            assert!(!fire("t1-missing"));
            cfg("t1-off", "off").unwrap();
            assert!(!fire("t1-off"));
            remove("t1-off");
        }

        #[test]
        fn return_triggers_until_removed() {
            cfg("t2-ret", "return").unwrap();
            assert!(fire("t2-ret"));
            assert!(fire("t2-ret"));
            remove("t2-ret");
            assert!(!fire("t2-ret"));
        }

        #[test]
        fn counts_bound_the_trigger_budget() {
            cfg("t3-count", "2*return").unwrap();
            assert!(fire("t3-count"));
            assert!(fire("t3-count"));
            assert!(!fire("t3-count"), "count exhausted");
            remove("t3-count");
        }

        #[test]
        fn sleep_actions_stall_the_caller() {
            cfg("t4-sleep", "sleep(30)").unwrap();
            let start = std::time::Instant::now();
            assert!(!fire("t4-sleep"), "sleep yields false after stalling");
            assert!(start.elapsed() >= Duration::from_millis(25));
            remove("t4-sleep");
        }

        #[test]
        #[should_panic(expected = "failpoint \"t5-panic\" triggered a panic")]
        fn panic_actions_panic() {
            cfg("t5-panic", "panic").unwrap();
            fire("t5-panic");
        }

        #[test]
        fn thread_scopes_filter_by_name_prefix() {
            cfg("t6-scoped", "return@t6-target").unwrap();
            assert!(
                !fire("t6-scoped"),
                "the default test thread does not match the scope"
            );
            let triggered = std::thread::Builder::new()
                .name("t6-target-worker-3".to_string())
                .spawn(|| fire("t6-scoped"))
                .unwrap()
                .join()
                .unwrap();
            assert!(triggered, "a thread under the prefix triggers");
            remove("t6-scoped");
        }

        #[test]
        fn probabilities_are_deterministic_under_a_seed() {
            // Single-threaded evaluation order + fixed seed => identical sequences.
            let sequence = |seed: u64| -> Vec<bool> {
                set_seed(seed);
                cfg("t7-prob", "50%return").unwrap();
                let drawn = (0..64).map(|_| fire("t7-prob")).collect();
                remove("t7-prob");
                drawn
            };
            let a = sequence(42);
            let b = sequence(42);
            assert_eq!(a, b, "same seed replays the same fault pattern");
            assert!(a.iter().any(|t| *t) && a.iter().any(|t| !*t));
        }

        #[test]
        fn malformed_specs_are_rejected() {
            for bad in [
                "explode",
                "sleep(abc)",
                "200%return",
                "x*return",
                "return@",
                "sleep(",
            ] {
                assert!(cfg("t8-bad", bad).is_err(), "{bad:?} should not parse");
            }
            assert!(!fire("t8-bad"));
        }
    }
}

#[cfg(failpoints)]
pub use enabled::{cfg, clear, fire, remove, set_seed};

#[cfg(all(test, not(failpoints)))]
mod noop_tests {
    #[test]
    fn default_build_compiles_failpoints_out() {
        // The failpoints-off purity gate: sites cost a constant-false branch that
        // the optimiser folds away, and configuration is accepted but inert.
        assert_eq!(crate::ENABLED, cfg!(failpoints));
        crate::set_seed(7);
        crate::cfg("anything", "return").unwrap();
        assert!(!crate::fire("anything"), "no-op build never triggers");
        crate::remove("anything");
        crate::clear();
    }
}
