//! Deterministic fault injection for the shared virtual NPU.
//!
//! The codec has [`vrd_codec::faults`] for damaging *bitstreams*; this
//! module is its counterpart for damaging the *accelerator*. A
//! [`NpuFaultProfile`] describes three failure domains:
//!
//! * **transient stalls** — an attempt takes [`NpuFaultProfile::stall_ns`]
//!   longer than its modelled service time (DVFS hiccup, DRAM refresh
//!   storm, interconnect backpressure);
//! * **work-item failures** — an attempt burns its full service time and
//!   returns garbage (ECC trip, watchdog reset of one tile); the item must
//!   be retried;
//! * **NPU crashes** — the device disappears for a [`CrashWindow`]: every
//!   weight and activation resident on it is lost, and in-flight sessions
//!   either die or are restored from host-side checkpoints.
//!
//! Like the codec injector, everything is a pure function of the profile:
//! stall and failure draws use a counter-based hash of
//! `(seed, session, item, attempt)` rather than a sequential RNG, so the
//! fault pattern for a given work item is independent of the order in
//! which the scheduler happens to visit it. Two scheduling policies
//! replayed against the same profile see the *same* faults on the same
//! items — which is what makes fault-injected policy comparisons and the
//! chaos bench's byte-identical re-runs meaningful.

/// One full-device outage: the NPU is gone for `[at_ns, at_ns + down_ns)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashWindow {
    /// Instant the device disappears, in scheduler nanoseconds.
    pub at_ns: f64,
    /// How long it stays down, in nanoseconds.
    pub down_ns: f64,
}

impl CrashWindow {
    /// The instant the device is back and accepting work.
    pub fn end_ns(&self) -> f64 {
        self.at_ns + self.down_ns
    }
}

/// A deterministic fault plan for one scheduler replay.
#[derive(Debug, Clone, PartialEq)]
pub struct NpuFaultProfile {
    /// Seed for the stall and work-item-failure draws.
    pub seed: u64,
    /// Probability that any single service attempt fails, in `[0, 1]`.
    pub work_item_fail_rate: f64,
    /// Probability that any single service attempt stalls, in `[0, 1]`.
    pub stall_rate: f64,
    /// Extra latency of a stalled attempt, in nanoseconds: finite and
    /// `>= 0`, or [`crate::schedule`] rejects the plan.
    pub stall_ns: f64,
    /// Full-device outages, sorted by `at_ns` (the scheduler sorts its own
    /// copy defensively).
    pub crashes: Vec<CrashWindow>,
}

/// Salt separating the stall lottery from the failure lottery.
const SALT_STALL: u64 = 0x5741_4c4c_5354_4c01;
/// Salt of the work-item-failure lottery.
const SALT_FAIL: u64 = 0x4641_494c_4954_4d02;

impl NpuFaultProfile {
    /// No faults at all. A scheduler replay under this profile must be
    /// byte-identical to a replay with no fault plan.
    pub fn none() -> Self {
        Self {
            seed: 0,
            work_item_fail_rate: 0.0,
            stall_rate: 0.0,
            stall_ns: 0.0,
            crashes: Vec::new(),
        }
    }

    /// Only work-item failures, at `rate` per attempt.
    pub fn work_item_failures(rate: f64, seed: u64) -> Self {
        Self {
            work_item_fail_rate: rate,
            seed,
            ..Self::none()
        }
    }

    /// Only transient stalls: `rate` per attempt, each costing `stall_ns`.
    pub fn stalls(rate: f64, stall_ns: f64, seed: u64) -> Self {
        Self {
            stall_rate: rate,
            stall_ns,
            seed,
            ..Self::none()
        }
    }

    /// A single full-device outage.
    pub fn single_crash(at_ns: f64, down_ns: f64) -> Self {
        Self {
            crashes: vec![CrashWindow { at_ns, down_ns }],
            ..Self::none()
        }
    }

    /// Combined chaos: work-item failures at `rate`, stalls at half that
    /// rate costing 200 µs each.
    pub fn chaos(rate: f64, seed: u64) -> Self {
        Self {
            work_item_fail_rate: rate,
            stall_rate: rate / 2.0,
            stall_ns: 200_000.0,
            seed,
            ..Self::none()
        }
    }

    /// Does attempt `attempt` of work item `(session, item)` fail?
    pub(crate) fn draw_work_item_failure(&self, session: usize, item: usize, attempt: u32) -> bool {
        self.work_item_fail_rate > 0.0
            && draw(
                self.seed,
                SALT_FAIL,
                session as u64,
                item as u64,
                attempt as u64,
            ) < self.work_item_fail_rate
    }

    /// Does attempt `attempt` of work item `(session, item)` stall?
    pub(crate) fn draw_stall(&self, session: usize, item: usize, attempt: u32) -> bool {
        self.stall_rate > 0.0
            && draw(
                self.seed,
                SALT_STALL,
                session as u64,
                item as u64,
                attempt as u64,
            ) < self.stall_rate
    }
}

/// splitmix64 finalizer — full-avalanche 64-bit mixer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Counter-based uniform draw in `[0, 1)`: a pure hash of the identifying
/// tuple, so every `(session, item, attempt)` — or, for the load
/// generator, every `(candidate, sub-draw)` — has its own independent coin
/// regardless of visiting order.
pub(crate) fn draw(seed: u64, salt: u64, a: u64, b: u64, c: u64) -> f64 {
    let h = mix(seed
        ^ mix(salt
            .wrapping_add(a.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(b.wrapping_mul(0xc2b2_ae3d_27d4_eb4f))
            .wrapping_add(c.wrapping_mul(0x1656_67b1_9e37_79f9))));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic_and_order_free() {
        let p = NpuFaultProfile::chaos(0.3, 42);
        let first: Vec<bool> = (0..64).map(|i| p.draw_work_item_failure(1, i, 0)).collect();
        // Visit in a different order: same answers.
        let mut second = vec![false; 64];
        for i in (0..64).rev() {
            second[i] = p.draw_work_item_failure(1, i, 0);
        }
        assert_eq!(first, second);
        assert!(first.iter().any(|&f| f), "rate 0.3 planted nothing in 64");
        assert!(!first.iter().all(|&f| f), "rate 0.3 hit everything");
    }

    #[test]
    fn rates_are_approximately_honoured() {
        let p = NpuFaultProfile::work_item_failures(0.1, 7);
        let n = 20_000;
        let hits = (0..n)
            .filter(|&i| p.draw_work_item_failure(0, i, 0))
            .count();
        let rate = hits as f64 / n as f64;
        assert!((0.08..0.12).contains(&rate), "empirical rate {rate:.3}");
    }

    #[test]
    fn attempts_draw_independent_coins() {
        let p = NpuFaultProfile::work_item_failures(0.5, 9);
        let by_attempt: Vec<bool> = (0..32).map(|a| p.draw_work_item_failure(2, 5, a)).collect();
        assert!(by_attempt.iter().any(|&f| f));
        assert!(by_attempt.iter().any(|&f| !f));
    }

    #[test]
    fn lotteries_are_salted_apart() {
        // Stall and failure draws over the same tuples must not correlate.
        let p = NpuFaultProfile {
            work_item_fail_rate: 0.5,
            stall_rate: 0.5,
            stall_ns: 1.0,
            seed: 3,
            crashes: Vec::new(),
        };
        let agree = (0..256)
            .filter(|&i| p.draw_work_item_failure(0, i, 0) == p.draw_stall(0, i, 0))
            .count();
        assert!(
            (64..192).contains(&agree),
            "salted lotteries correlate: {agree}/256 agreements"
        );
    }

    #[test]
    fn quiet_profiles_never_fire() {
        let p = NpuFaultProfile::none();
        assert!((0..100).all(|i| !p.draw_work_item_failure(0, i, 0)));
        assert!((0..100).all(|i| !p.draw_stall(0, i, 0)));
        assert_eq!(
            CrashWindow {
                at_ns: 5.0,
                down_ns: 3.0
            }
            .end_ns(),
            8.0
        );
    }
}
