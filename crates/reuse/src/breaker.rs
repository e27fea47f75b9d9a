//! Per-fingerprint circuit breaker for shared-subplan execution.
//!
//! Shared execution concentrates risk as well as cost: a shared group
//! whose one-shot execution keeps failing makes every batch that re-forms
//! it pay the failed attempt *and* the per-consumer detach/re-execute
//! fallback. The breaker caps that tax: after `threshold` *consecutive*
//! failures of the same fingerprint, the breaker opens and the workload
//! optimizer stops forming groups for it — consumers simply run their
//! original plans, with a note in `OptimizerReport::reuse` explaining
//! why. A later successful execution (after [`FailureBreaker::cool_down`]
//! half-opens the breaker) closes it again.
//!
//! The breaker is deliberately *not* time-based: the engine has no
//! background clock, so cooling down is driven by batch arrivals — every
//! `cool_after` batches that observe an open breaker, one probe group is
//! allowed through (half-open). If the probe succeeds the breaker closes;
//! if it fails the breaker re-opens for another round.

use std::collections::HashMap;

/// State of one fingerprint's breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Failures below threshold; groups form normally.
    Closed { consecutive_failures: u32 },
    /// Too many consecutive failures; groups are not formed.
    Open { batches_waited: u32 },
    /// One probe group is in flight; its outcome decides the next state.
    HalfOpen,
}

/// Circuit breakers for every fingerprint that ever failed a shared
/// execution. Fingerprints with no entry are implicitly closed.
#[derive(Debug)]
pub struct FailureBreaker {
    threshold: u32,
    cool_after: u32,
    states: HashMap<u64, State>,
}

/// The session's breaker: opens after 3 consecutive failures of one
/// fingerprint, half-opens a probe group after 4 skipped batches.
impl Default for FailureBreaker {
    fn default() -> Self {
        FailureBreaker::new(3, 4)
    }
}

impl FailureBreaker {
    /// A breaker that opens after `threshold` consecutive failures and
    /// half-opens a probe after `cool_after` skipped batches. A zero
    /// `threshold` disables the breaker entirely (it never opens).
    pub fn new(threshold: u32, cool_after: u32) -> Self {
        FailureBreaker {
            threshold,
            cool_after: cool_after.max(1),
            states: HashMap::new(),
        }
    }

    /// Whether shared groups may be formed for this fingerprint right
    /// now. An open breaker counts the ask toward its cool-down and
    /// half-opens (allowing one probe) once `cool_after` asks have been
    /// swallowed.
    pub fn allows(&mut self, fp: u64) -> bool {
        match self.states.get_mut(&fp) {
            None | Some(State::Closed { .. }) | Some(State::HalfOpen) => true,
            Some(State::Open { batches_waited }) => {
                *batches_waited += 1;
                if *batches_waited >= self.cool_after {
                    self.states.insert(fp, State::HalfOpen);
                }
                false
            }
        }
    }

    /// Record a failed shared execution. Returns `true` when this failure
    /// tripped the breaker open (closed→open or a failed half-open
    /// probe), so the caller can count `circuit_breaker_trips` exactly
    /// once per trip.
    pub fn record_failure(&mut self, fp: u64) -> bool {
        if self.threshold == 0 {
            return false;
        }
        let state = self
            .states
            .entry(fp)
            .or_insert(State::Closed { consecutive_failures: 0 });
        match state {
            State::Closed { consecutive_failures } => {
                *consecutive_failures += 1;
                if *consecutive_failures >= self.threshold {
                    *state = State::Open { batches_waited: 0 };
                    return true;
                }
                false
            }
            State::HalfOpen => {
                // The probe failed: straight back to open.
                *state = State::Open { batches_waited: 0 };
                true
            }
            State::Open { .. } => false,
        }
    }

    /// Record a successful shared execution: the breaker closes and the
    /// consecutive-failure count resets.
    pub fn record_success(&mut self, fp: u64) {
        self.states.remove(&fp);
    }

    /// Whether the breaker is currently open (no probe allowed yet).
    /// Unlike [`FailureBreaker::allows`] this does not advance cool-down.
    pub fn is_open(&self, fp: u64) -> bool {
        matches!(self.states.get(&fp), Some(State::Open { .. }))
    }

    /// Drop all breaker state (e.g. when the cache is cleared).
    pub fn clear(&mut self) {
        self.states.clear();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn opens_after_threshold_consecutive_failures() {
        let mut b = FailureBreaker::new(3, 4);
        assert!(!b.record_failure(1));
        assert!(!b.record_failure(1));
        assert!(b.allows(1), "still closed below threshold");
        assert!(b.record_failure(1), "third failure trips");
        assert!(b.is_open(1));
        assert!(!b.allows(1));
    }

    #[test]
    fn success_resets_the_count() {
        let mut b = FailureBreaker::new(2, 4);
        assert!(!b.record_failure(1));
        b.record_success(1);
        assert!(!b.record_failure(1), "count restarted after success");
        assert!(b.record_failure(1));
    }

    #[test]
    fn cool_down_half_opens_then_probe_decides() {
        let mut b = FailureBreaker::new(1, 2);
        assert!(b.record_failure(7));
        // Two swallowed asks reach cool_after; the third is the probe.
        assert!(!b.allows(7));
        assert!(!b.allows(7));
        assert!(b.allows(7), "half-open probe allowed");
        // Failed probe re-opens and counts as a trip.
        assert!(b.record_failure(7));
        assert!(!b.allows(7));
        assert!(!b.allows(7));
        assert!(b.allows(7));
        // Successful probe closes for good.
        b.record_success(7);
        assert!(b.allows(7));
        assert!(!b.is_open(7));
    }

    #[test]
    fn zero_threshold_disables() {
        let mut b = FailureBreaker::new(0, 1);
        for _ in 0..10 {
            assert!(!b.record_failure(1));
        }
        assert!(b.allows(1));
    }

    #[test]
    fn fingerprints_are_independent() {
        let mut b = FailureBreaker::new(1, 4);
        assert!(b.record_failure(1));
        assert!(!b.allows(1));
        assert!(b.allows(2), "other fingerprints unaffected");
    }
}
