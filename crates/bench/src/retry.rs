//! Client-side retry with capped exponential backoff and seeded jitter.
//!
//! A [`ScanService`](s3_engine::ScanService) sheds load with typed
//! [`JobError::Rejected`] errors; the polite
//! client response is to back off and resubmit. [`RetryPolicy`] packages
//! the standard policy: exponential growth from a base delay, a hard cap,
//! and *deterministic* jitter (seeded hash of `(seed, salt, attempt)`)
//! so a fleet of clients retrying the same burst decorrelates — no
//! thundering herd — while any single run stays exactly reproducible,
//! which the chaos fuzzer's replay identity relies on.

use s3_engine::{JobError, RejectReason};
use std::time::Duration;

/// Capped exponential backoff with seeded jitter.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (0 disables retrying).
    pub max_retries: u32,
    /// Backoff before the first retry, pre-jitter.
    pub base: Duration,
    /// Multiplier applied per further retry (≥ 1.0).
    pub factor: f64,
    /// Hard cap on the pre-jitter backoff.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter hash.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// 3 retries, 1 ms base doubling to a 50 ms cap — tuned for the
    /// in-process service, where a revolution finishes in milliseconds.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base: Duration::from_millis(1),
            factor: 2.0,
            max_backoff: Duration::from_millis(50),
            jitter_seed: 0x5337,
        }
    }
}

/// splitmix64: cheap, well-mixed, and stable across platforms.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// Whether `err` is worth retrying at all: only capacity rejections
    /// (`QueueFull`/`Overloaded`) can succeed on resubmit. An
    /// `UnknownFile` rejection, a panic, an abort, or an expired deadline
    /// never will.
    pub fn retryable(err: &JobError) -> bool {
        matches!(
            err,
            JobError::Rejected {
                reason: RejectReason::QueueFull | RejectReason::Overloaded,
                ..
            }
        )
    }

    /// Backoff to sleep before retry `attempt` (1-based: the first retry
    /// is attempt 1) of the operation identified by `salt` (e.g. a job
    /// index). Pure: the same `(policy, attempt, salt)` always yields the
    /// same duration.
    ///
    /// The pre-jitter delay is `base * factor^(attempt-1)` capped at
    /// [`max_backoff`](RetryPolicy::max_backoff); equal-jitter then keeps
    /// a random half — the result is uniform in `[delay/2, delay)`, so
    /// backoff never collapses to zero and never exceeds the cap.
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let exp = self.factor.max(1.0).powi(attempt.saturating_sub(1).min(63) as i32);
        let raw = self.base.as_nanos() as f64 * exp;
        let capped = raw.min(self.max_backoff.as_nanos() as f64).max(0.0) as u64;
        let h = mix(self.jitter_seed ^ mix(salt ^ ((attempt as u64) << 32)));
        // Uniform fraction in [0, 1) from the top 53 bits.
        let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
        let jittered = capped / 2 + ((capped / 2) as f64 * frac) as u64;
        Duration::from_nanos(jittered)
    }

    /// Run `op` with retries: attempt 0 first, then up to
    /// [`max_retries`](RetryPolicy::max_retries) more, sleeping
    /// [`backoff`](RetryPolicy::backoff) before each retry. Retries only
    /// on [`retryable`](RetryPolicy::retryable) errors; any other error
    /// (or exhaustion) is returned as-is. `op` receives the attempt
    /// number (0-based).
    pub fn run<T>(
        &self,
        salt: u64,
        mut op: impl FnMut(u32) -> Result<T, JobError>,
    ) -> Result<T, JobError> {
        let mut attempt = 0u32;
        loop {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) if attempt < self.max_retries && Self::retryable(&e) => {
                    attempt += 1;
                    std::thread::sleep(self.backoff(attempt, salt));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3_engine::QosClass;

    #[test]
    fn backoff_is_deterministic_capped_and_growing() {
        let p = RetryPolicy::default();
        for attempt in 1..=8 {
            for salt in [0u64, 7, 1 << 40] {
                assert_eq!(p.backoff(attempt, salt), p.backoff(attempt, salt));
                assert!(p.backoff(attempt, salt) <= p.max_backoff);
            }
        }
        // Pre-jitter growth: attempt 4's floor (cap/2 at worst) exceeds
        // attempt 1's ceiling only when uncapped; check the raw floors.
        let early = p.backoff(1, 3);
        assert!(early >= p.base / 2, "jitter keeps at least half the delay");
        // Different salts decorrelate (overwhelmingly likely to differ).
        assert_ne!(p.backoff(3, 1), p.backoff(3, 2));
    }

    #[test]
    fn run_retries_only_capacity_rejections() {
        let p = RetryPolicy {
            base: Duration::from_micros(10),
            ..RetryPolicy::default()
        };
        let mut calls = 0;
        let out: Result<u32, _> = p.run(9, |attempt| {
            calls += 1;
            if attempt < 2 {
                Err(JobError::Rejected {
                    reason: RejectReason::QueueFull,
                    class: QosClass::Low,
                })
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(out, Ok(2));
        assert_eq!(calls, 3);

        let mut calls = 0;
        let out: Result<(), _> = p.run(9, |_| {
            calls += 1;
            Err(JobError::Rejected {
                reason: RejectReason::UnknownFile,
                class: QosClass::High,
            })
        });
        assert!(matches!(
            out,
            Err(JobError::Rejected { reason: RejectReason::UnknownFile, .. })
        ));
        assert_eq!(calls, 1, "UnknownFile can never succeed; no retry");

        let mut calls = 0;
        let out: Result<(), _> = p.run(9, |_| {
            calls += 1;
            Err(JobError::Rejected {
                reason: RejectReason::Overloaded,
                class: QosClass::Normal,
            })
        });
        assert!(RetryPolicy::retryable(&out.unwrap_err()));
        assert_eq!(calls, 1 + p.max_retries, "exhausts the retry budget");
    }
}
