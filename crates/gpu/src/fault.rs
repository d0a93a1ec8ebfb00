//! Deterministic fault injection: seeded fault plans for chaos testing.
//!
//! A [`FaultPlan`] decides — as a *pure function* of its seed and the launch
//! coordinates of the thing being faulted — whether a block attempt aborts,
//! a host↔device copy fails, a chunk's speculation records are corrupted, or
//! a block trips the per-kernel watchdog budget. Because every decision is a
//! hash of `(seed, domain, coordinate, attempt)` and never consults ambient
//! state (no clocks, no RNG, no thread ids), the same plan produces the same
//! faults on every host and in every run — which is what lets the recovery
//! layers above assert bit-identical reports under chaos.
//!
//! The plan only *decides*; it never mutates anything. The recovery policies
//! (retry with capped exponential backoff, graceful degradation, load
//! shedding, circuit breaking) live in `gspecpal` and `gspecpal-serve`,
//! which consult the plan at the few well-defined injection points: grid
//! launches, the verification record store, and the serve pipeline's copy
//! engines.

use crate::error::LaunchError;

/// Where in the pipeline a fault decision is being made. Each domain salts
/// the hash differently, so e.g. block 3 of the speculative-execution grid
/// and block 3 of the verification grid fault independently.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultDomain {
    /// Blocks of the speculative-execution grid.
    Exec,
    /// Blocks of the verification/recovery grid.
    Verify,
    /// Host→device input copies.
    H2d,
    /// Device→host result copies.
    D2h,
    /// Speculative-state corruption of a chunk's verification records.
    Corrupt,
}

impl FaultDomain {
    fn salt(self) -> u64 {
        match self {
            FaultDomain::Exec => 0x45584543,
            FaultDomain::Verify => 0x56455249,
            FaultDomain::H2d => 0x48324400,
            FaultDomain::D2h => 0x44324800,
            FaultDomain::Corrupt => 0x434f5252,
        }
    }
}

/// A seeded, deterministic fault plan.
///
/// All rates are in permille (0 = never, 1000 = always). The zero plan
/// ([`FaultPlan::default`]) injects nothing and is behaviourally identical
/// to running without a plan at all.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed every fault decision is derived from.
    pub seed: u64,
    /// Probability (permille) that a block attempt aborts mid-run.
    pub abort_permille: u32,
    /// Probability (permille) that a host↔device copy attempt fails.
    pub copy_fail_permille: u32,
    /// Probability (permille) that a chunk's speculation records are
    /// corrupted after the speculative-execution phase.
    pub corrupt_permille: u32,
    /// Per-kernel watchdog budget in cycles; a block whose attempt exceeds
    /// it is killed with [`LaunchError::WatchdogExpired`]. 0 disables the
    /// watchdog.
    pub watchdog_cycles: u64,
}

impl FaultPlan {
    /// A plan injecting every transient fault kind (aborts, copy failures,
    /// record corruption) at the same `permille` rate, watchdog disabled.
    pub fn chaos(seed: u64, permille: u32) -> Self {
        FaultPlan {
            seed,
            abort_permille: permille,
            copy_fail_permille: permille,
            corrupt_permille: permille,
            watchdog_cycles: 0,
        }
    }

    /// Whether the plan can inject anything at all.
    pub fn any_faults(&self) -> bool {
        self.abort_permille > 0
            || self.copy_fail_permille > 0
            || self.corrupt_permille > 0
            || self.watchdog_cycles > 0
    }

    /// The raw 64-bit roll for `(domain, coord, attempt)` — a splitmix64
    /// hash chain over the seed. Exposed so callers can derive auxiliary
    /// deterministic quantities (e.g. a corrupted state value) from the same
    /// coordinates.
    pub fn roll(&self, domain: FaultDomain, coord: u64, attempt: u32) -> u64 {
        let mut z = mix(self.seed ^ domain.salt().rotate_left(17));
        z = mix(z ^ coord);
        mix(z ^ u64::from(attempt).rotate_left(41))
    }

    fn hits(&self, permille: u32, domain: FaultDomain, coord: u64, attempt: u32) -> bool {
        permille > 0 && self.roll(domain, coord, attempt) % 1000 < u64::from(permille)
    }

    /// Whether attempt `attempt` of block `block` in `domain` aborts.
    pub fn aborts(&self, domain: FaultDomain, block: usize, attempt: u32) -> bool {
        self.hits(self.abort_permille, domain, fault_coord(block), attempt)
    }

    /// How far through the block (permille of its cycles, 0–999) an abort at
    /// these coordinates strikes — the wasted fraction of the attempt.
    pub fn abort_point_permille(&self, domain: FaultDomain, block: usize, attempt: u32) -> u64 {
        self.roll(domain, fault_coord(block).rotate_left(23), attempt ^ 0x5A5A) % 1000
    }

    /// Whether attempt `attempt` of copy `copy_id` in `domain` fails
    /// (`domain` is [`FaultDomain::H2d`] or [`FaultDomain::D2h`]).
    pub fn copy_fails(&self, domain: FaultDomain, copy_id: u64, attempt: u32) -> bool {
        self.hits(self.copy_fail_permille, domain, copy_id, attempt)
    }

    /// Whether chunk `chunk`'s verification records are corrupted.
    pub fn corrupts(&self, chunk: usize) -> bool {
        self.hits(self.corrupt_permille, FaultDomain::Corrupt, fault_coord(chunk), 0)
    }

    /// Checks a block attempt against the watchdog budget: a block that ran
    /// `cycles` cycles past a nonzero `watchdog_cycles` budget is killed with
    /// a structured [`LaunchError::WatchdogExpired`].
    pub fn watchdog_violation(&self, block: usize, cycles: u64) -> Option<LaunchError> {
        if self.watchdog_cycles > 0 && cycles > self.watchdog_cycles {
            Some(LaunchError::WatchdogExpired { block, cycles, budget: self.watchdog_cycles })
        } else {
            None
        }
    }
}

/// Widens a host-side index (block, batch, chunk) into a fault-plan
/// coordinate. Every fault decision must key on the *exact* index: a lossy
/// narrowing cast here would alias distant coordinates (e.g. batch
/// `2^32 + 5` rolling the same fault as batch `5`) and silently correlate
/// injected faults on huge runs. `usize` is at most 64 bits on every
/// platform Rust supports, so the conversion is infallible today; the
/// `try_from` documents the invariant and turns any future violation into a
/// loud panic instead of silent aliasing.
pub fn fault_coord(index: usize) -> u64 {
    u64::try_from(index).expect("usize fault coordinates must fit in u64")
}

/// Capped exponential backoff before retry `attempt` (0-based):
/// `min(base << attempt, cap)`, saturating on shift overflow.
pub fn backoff_cycles(base: u64, cap: u64, attempt: u32) -> u64 {
    if base == 0 {
        return 0;
    }
    let scaled = if attempt >= 63 { u64::MAX } else { base.saturating_mul(1u64 << attempt) };
    scaled.min(cap)
}

/// splitmix64 finalizer — the avalanche permutation behind every roll.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolls_are_pure_functions_of_coordinates() {
        let plan = FaultPlan::chaos(42, 100);
        for domain in [FaultDomain::Exec, FaultDomain::Verify, FaultDomain::H2d] {
            for block in 0..50 {
                for attempt in 0..4 {
                    assert_eq!(
                        plan.aborts(domain, block, attempt),
                        plan.aborts(domain, block, attempt),
                    );
                    assert_eq!(
                        plan.roll(domain, block as u64, attempt),
                        FaultPlan::chaos(42, 100).roll(domain, block as u64, attempt),
                    );
                }
            }
        }
    }

    #[test]
    fn domains_and_seeds_decorrelate() {
        let a = FaultPlan::chaos(1, 500);
        let b = FaultPlan::chaos(2, 500);
        let mut diff_seed = 0;
        let mut diff_domain = 0;
        for block in 0..200 {
            if a.aborts(FaultDomain::Exec, block, 0) != b.aborts(FaultDomain::Exec, block, 0) {
                diff_seed += 1;
            }
            if a.aborts(FaultDomain::Exec, block, 0) != a.aborts(FaultDomain::Verify, block, 0) {
                diff_domain += 1;
            }
        }
        assert!(diff_seed > 20, "seeds must decorrelate ({diff_seed})");
        assert!(diff_domain > 20, "domains must decorrelate ({diff_domain})");
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let plan = FaultPlan::chaos(7, 100); // 10%
        let hits = (0..10_000).filter(|&b| plan.aborts(FaultDomain::Exec, b, 0)).count();
        assert!((800..1200).contains(&hits), "10% of 10k rolls, got {hits}");
        let zero = FaultPlan::default();
        assert!(!(0..1000).any(|b| zero.aborts(FaultDomain::Exec, b, 0)));
        assert!(!zero.any_faults());
        let always = FaultPlan::chaos(7, 1000);
        assert!((0..1000).all(|b| always.copy_fails(FaultDomain::H2d, b, 3)));
    }

    #[test]
    fn abort_points_stay_in_range() {
        let plan = FaultPlan::chaos(3, 1000);
        for b in 0..500 {
            assert!(plan.abort_point_permille(FaultDomain::Exec, b, 1) < 1000);
        }
    }

    #[test]
    fn watchdog_kills_only_over_budget_blocks() {
        let plan = FaultPlan { watchdog_cycles: 100, ..FaultPlan::default() };
        assert_eq!(plan.watchdog_violation(4, 100), None, "at budget survives");
        let err = plan.watchdog_violation(4, 101).expect("over budget dies");
        assert_eq!(err, LaunchError::WatchdogExpired { block: 4, cycles: 101, budget: 100 });
        let off = FaultPlan::default();
        assert_eq!(off.watchdog_violation(0, u64::MAX), None, "0 disables the watchdog");
    }

    #[test]
    fn wide_coordinates_do_not_alias_small_ones() {
        // A >32-bit coordinate must not roll like its low 32 bits: if any
        // conversion on the fault path truncated, batch 2^32 + 5 would fault
        // exactly like batch 5 and chaos runs on huge traces would inject
        // correlated faults.
        let plan = FaultPlan::chaos(42, 500);
        let small = 5usize;
        let wide = (1usize << 32) + 5;
        assert_eq!(fault_coord(wide), (1u64 << 32) + 5);
        for domain in [FaultDomain::Exec, FaultDomain::Verify, FaultDomain::H2d] {
            for attempt in 0..4 {
                assert_ne!(
                    plan.roll(domain, fault_coord(small), attempt),
                    plan.roll(domain, fault_coord(wide), attempt),
                    "{domain:?} attempt {attempt}: wide coordinate aliased a small one",
                );
            }
        }
        assert_ne!(
            plan.abort_point_permille(FaultDomain::Exec, small, 1),
            plan.abort_point_permille(FaultDomain::Exec, wide, 1),
        );
    }

    #[test]
    fn backoff_doubles_until_the_cap() {
        assert_eq!(backoff_cycles(64, 1024, 0), 64);
        assert_eq!(backoff_cycles(64, 1024, 1), 128);
        assert_eq!(backoff_cycles(64, 1024, 4), 1024);
        assert_eq!(backoff_cycles(64, 1024, 40), 1024, "cap holds");
        assert_eq!(backoff_cycles(64, 1024, 200), 1024, "huge attempts saturate");
        assert_eq!(backoff_cycles(0, 1024, 5), 0, "zero base disables backoff");
    }
}
