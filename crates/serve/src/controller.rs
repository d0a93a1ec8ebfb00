//! Online scheme / spec-k / stitch autotuning — closing the §IV selector
//! loop at runtime.
//!
//! The offline decision tree (Fig 6) picks one launch configuration per
//! FSM from a static training profile. The serve pipeline, however,
//! observes the real thing per batch: Verify/Recovery/Stitch cost splits,
//! predictor hit rates, fault overheads. The [`AdaptiveController`] feeds
//! those observations back into the launch decision: every (FSM, batch)
//! pair re-selects among the scored candidates of
//! [`gspecpal::Selector::score_choices`] — scheme, speculation depth, and
//! seam-stitch policy — starting from the offline pick (arm 0 *is* the
//! Fig 6 answer; the controller extends §IV, it never replaces it).
//!
//! # Decision rule
//!
//! Per machine the controller keeps one `Arm` per candidate: a bounded
//! window of observed integer milli-costs (kernel cycles ×1000 / batch
//! bytes) plus a lifetime observation count. The `d`-th decided batch of a
//! machine is an **explore** turn when `d ≡ period−1 (mod period)`; it
//! runs the least-observed arm that has not been cut off (an arm whose
//! windowed mean exceeds `explore_cutoff_permille`/1000 × the incumbent's
//! is never revisited; an arm never observed at all is pruned on the
//! offline prior instead, when its predicted cost exceeds the same
//! multiple of the offline pick's prediction — the surface guards the
//! explore set, observation retires the rest). Every other turn
//! **exploits**: the arm with the
//! lowest windowed mean among observed arms — or arm 0, the offline pick,
//! while nothing has been observed yet. All ties break on the lowest arm
//! index.
//!
//! # Determinism and replay
//!
//! The controller is a pure fold over the machine's decision/observation
//! history: integer arithmetic only, no clocks, no randomness, and the
//! serve engine drives it from its single sequential forward pass — so
//! decisions are bit-identical for any rayon pool size. Each exported
//! [`DecisionRecord`] carries the full [`BatchObservation`] that was fed
//! back, so the decision log on [`crate::ServeReport`] is *auditable by
//! replay*: reconstruct a controller from the same config and arm lists,
//! feed it the recorded observations, and it must reproduce every decision
//! exactly (the `tests/adaptive.rs` suite does).

use std::collections::VecDeque;

use gspecpal::{SchemeKind, StitchPolicy};
use gspecpal_gpu::{KernelStats, Phase};

/// Tuning knobs of the [`AdaptiveController`]. The defaults explore every
/// 4th batch per machine over an 8-observation cost window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ControllerConfig {
    /// Observations retained per arm (sliding window). Older costs age out
    /// so a machine whose input mix drifts re-learns.
    pub window: usize,
    /// Explore every `period`-th decided batch per machine; other turns
    /// exploit the best observed arm. 0 disables exploration (the
    /// controller then always runs the offline pick until an observation
    /// says otherwise — which never happens, so 0 pins arm 0).
    pub explore_period: u64,
    /// An arm whose windowed mean milli-cost exceeds this many permille of
    /// the incumbent's (best observed) mean is cut off from future
    /// exploration. 3000 = three times the incumbent.
    pub explore_cutoff_permille: u64,
    /// Cap on the exported decision log (the counters keep counting past
    /// it, like the latency sketches past `EXACT_SUMMARY_MAX`).
    pub max_decisions: usize,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            window: 8,
            explore_period: 4,
            explore_cutoff_permille: 3000,
            max_decisions: 4096,
        }
    }
}

/// One candidate launch configuration of a served machine: everything the
/// batch executor needs to deviate from the machine's static pick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaunchChoice {
    /// The execution scheme.
    pub scheme: SchemeKind,
    /// Speculation depth override; 0 inherits the run's
    /// [`gspecpal::SchemeConfig::spec_k`].
    pub spec_k: usize,
    /// Seam-stitch policy for the chunk-parallel path.
    pub stitch: StitchPolicy,
    /// Predicted cost on the offline spec-k surface, in milli-transitions
    /// per byte — the prior before any observation lands.
    pub predicted_millicost: u64,
}

/// What one executed batch fed back into the controller: the per-phase
/// cost split and predictor hit rate of the batch's kernels, plus the
/// bytes they covered. Pure integers off the deterministic timeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchObservation {
    /// Input bytes the batch covered.
    pub bytes: u64,
    /// Total kernel cycles (all phases; fault overhead included — faults
    /// reach the controller *only* through this and the phase split).
    pub compute_cycles: u64,
    /// Cycles in the verification phase.
    pub verify_cycles: u64,
    /// Cycles in the recovery phase.
    pub recovery_cycles: u64,
    /// Cycles in the seam-stitch phase.
    pub stitch_cycles: u64,
    /// Speculation checks performed during verification.
    pub verification_checks: u64,
    /// Checks that found a matching record (the predictor hit rate is
    /// `matches / checks`).
    pub verification_matches: u64,
    /// Whether the batch ran chunk-parallel (the launch choice only
    /// steers the chunk-parallel path; a stream-parallel fallback is
    /// observed at its real cost all the same).
    pub chunk_parallel: bool,
}

impl BatchObservation {
    /// Folds one batch's merged kernel stats into an observation.
    pub fn from_stats(
        stats: &KernelStats,
        checks: u64,
        matches: u64,
        bytes: u64,
        chunk_parallel: bool,
    ) -> Self {
        BatchObservation {
            bytes,
            compute_cycles: stats.cycles,
            verify_cycles: stats.profile.get(Phase::Verify).cycles,
            recovery_cycles: stats.profile.get(Phase::Recovery).cycles,
            stitch_cycles: stats.profile.get(Phase::Stitch).cycles,
            verification_checks: checks,
            verification_matches: matches,
            chunk_parallel,
        }
    }

    /// The observation's scalar cost: kernel cycles per byte, in permille
    /// (the same unit as the offline surface's prediction).
    pub fn millicost(&self) -> u64 {
        self.compute_cycles.saturating_mul(1000) / self.bytes.max(1)
    }
}

/// One controller decision, exported on [`crate::ServeReport::decisions`].
/// Carries the observation that was fed back, so the log replays: a fresh
/// controller given the same config, arms, and these observations must
/// reproduce the `arm`/`explore` sequence bit for bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecisionRecord {
    /// Dispatch index of the batch (including failed ones, matching
    /// [`crate::BatchRecord`] ordering).
    pub batch: usize,
    /// Machine the batch ran on.
    pub machine: usize,
    /// Index of the chosen arm in the machine's arm list.
    pub arm: usize,
    /// The launch configuration that ran.
    pub choice: LaunchChoice,
    /// Whether this was an explore turn (vs exploiting the best mean).
    pub explore: bool,
    /// What the batch reported back.
    pub observation: BatchObservation,
}

/// A decision the engine is about to act on; [`AdaptiveController::observe`]
/// completes it once the batch's stats are in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Chosen arm index.
    pub arm: usize,
    /// Its launch configuration.
    pub choice: LaunchChoice,
    /// Whether this was an explore turn.
    pub explore: bool,
}

/// One candidate's statistics window.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Arm {
    pub(crate) window: VecDeque<u64>,
    /// Lifetime observation count.
    pub(crate) observations: u64,
}

impl Arm {
    /// Windowed mean milli-cost; `None` before the first observation.
    fn mean(&self) -> Option<u64> {
        if self.window.is_empty() {
            None
        } else {
            Some(self.window.iter().sum::<u64>() / self.window.len() as u64)
        }
    }
}

/// Per-machine controller state: the arm windows plus the decided-batch
/// counter that paces exploration. The arms' launch choices are the
/// machine's, passed in; this is only what the controller learned.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct MachineState {
    pub(crate) arms: Vec<Arm>,
    pub(crate) decided: u64,
}

impl MachineState {
    /// A machine with `n_arms` candidates, none observed.
    pub(crate) fn new(n_arms: usize) -> Self {
        MachineState { arms: vec![Arm::default(); n_arms], decided: 0 }
    }

    /// Best (lowest) windowed mean among observed arms, with its arm index.
    fn incumbent(&self) -> Option<(usize, u64)> {
        self.arms
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.mean().map(|m| (m, i)))
            .min()
            .map(|(m, i)| (i, m))
    }

    /// Whether arm `i` is cut off from exploration. An observed arm is cut
    /// off when its windowed mean is beyond the cutoff multiple of the
    /// incumbent's. An arm never observed is judged on the offline prior
    /// instead: predicted cost beyond the cutoff multiple of the offline
    /// pick's prediction is not worth a live probe (predictions are only
    /// compared with predictions — the surface's absolute scale never
    /// meets an observed cost).
    fn cut_off(&self, choices: &[LaunchChoice], i: usize, cutoff_permille: u64) -> bool {
        match self.arms[i].mean() {
            Some(m) => match self.incumbent() {
                Some((_, best)) => m.saturating_mul(1000) > best.saturating_mul(cutoff_permille),
                None => false,
            },
            None => {
                let prior = choices[i].predicted_millicost;
                let base = choices[0].predicted_millicost;
                prior.saturating_mul(1000) > base.saturating_mul(cutoff_permille)
            }
        }
    }

    /// Decides the machine's next launch among its arm `choices`. A pure
    /// function of the config, the choices, and the observations fed back
    /// so far — no clocks, no randomness.
    pub(crate) fn decide(&mut self, cfg: &ControllerConfig, choices: &[LaunchChoice]) -> Decision {
        let turn = self.decided;
        self.decided += 1;
        let explore_turn = cfg.explore_period > 0
            && self.arms.len() > 1
            && turn % cfg.explore_period == cfg.explore_period - 1;
        if explore_turn {
            // Least-observed live arm, lowest index on ties.
            let pick = self
                .arms
                .iter()
                .enumerate()
                .filter(|&(i, _)| !self.cut_off(choices, i, cfg.explore_cutoff_permille))
                .min_by_key(|&(i, a)| (a.observations, i))
                .map(|(i, _)| i)
                .unwrap_or(0);
            return Decision { arm: pick, choice: choices[pick], explore: true };
        }
        // Exploit: lowest observed windowed mean; the offline pick (arm 0)
        // until anything has been observed.
        let pick = self.incumbent().map_or(0, |(i, _)| i);
        Decision { arm: pick, choice: choices[pick], explore: false }
    }

    /// Feeds one batch's observation back into the decided arm's window.
    pub(crate) fn observe(&mut self, cfg: &ControllerConfig, arm: usize, obs: &BatchObservation) {
        let a = &mut self.arms[arm];
        a.window.push_back(obs.millicost());
        if a.window.len() > cfg.window.max(1) {
            a.window.pop_front();
        }
        a.observations += 1;
    }
}

/// The online feedback controller: one `MachineState` per served
/// machine, advanced machine-locally by the engine's forward pass.
#[derive(Clone, Debug)]
pub struct AdaptiveController {
    cfg: ControllerConfig,
    arms: Vec<Vec<LaunchChoice>>,
    machines: Vec<MachineState>,
}

impl AdaptiveController {
    /// Builds a controller over per-machine arm lists (one list per served
    /// machine, in machine order — see `ServeMachine::arms`). Arm 0 of each
    /// list must be the machine's offline pick.
    pub fn new(cfg: ControllerConfig, arms_per_machine: Vec<Vec<LaunchChoice>>) -> Self {
        let machines = arms_per_machine.iter().map(|arms| MachineState::new(arms.len())).collect();
        AdaptiveController { cfg, arms: arms_per_machine, machines }
    }

    /// The decision-log cap from the config.
    pub fn max_decisions(&self) -> usize {
        self.cfg.max_decisions
    }

    /// Decides the launch configuration for `machine`'s next batch. A pure
    /// function of the config, the arm lists, and the observations fed back
    /// so far — no clocks, no randomness.
    pub fn decide(&mut self, machine: usize) -> Decision {
        self.machines[machine].decide(&self.cfg, &self.arms[machine])
    }

    /// Feeds one batch's observation back into the decided arm's window.
    pub fn observe(&mut self, machine: usize, arm: usize, obs: &BatchObservation) {
        self.machines[machine].observe(&self.cfg, arm, obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arms() -> Vec<LaunchChoice> {
        let mk = |scheme, spec_k, cost| LaunchChoice {
            scheme,
            spec_k,
            stitch: StitchPolicy::Tree,
            predicted_millicost: cost,
        };
        vec![mk(SchemeKind::Sre, 4, 1100), mk(SchemeKind::Pm, 1, 1500), mk(SchemeKind::Rr, 4, 1700)]
    }

    fn obs(cost: u64) -> BatchObservation {
        BatchObservation { bytes: 1000, compute_cycles: cost, ..BatchObservation::default() }
    }

    #[test]
    fn starts_from_the_offline_pick() {
        let mut c = AdaptiveController::new(ControllerConfig::default(), vec![arms()]);
        // Turns 0..2 exploit with no observations: the offline pick.
        for _ in 0..3 {
            let d = c.decide(0);
            assert_eq!(d.arm, 0);
            assert!(!d.explore);
            c.observe(0, d.arm, &obs(1200 * 1000));
        }
        // Turn 3 (period 4) explores the least-observed arm: arm 1.
        let d = c.decide(0);
        assert!(d.explore);
        assert_eq!(d.arm, 1);
    }

    #[test]
    fn commits_to_the_observed_winner() {
        let mut c = AdaptiveController::new(ControllerConfig::default(), vec![arms()]);
        let d = c.decide(0);
        c.observe(0, d.arm, &obs(2000 * 1000)); // offline pick measures poor
        let d = c.decide(0);
        assert_eq!(d.arm, 0, "still the only observed arm");
        c.observe(0, d.arm, &obs(2000 * 1000));
        // Hand arm 2 a much better measurement; exploitation must move.
        c.observe(0, 2, &obs(500 * 1000));
        let d = c.decide(0);
        assert_eq!(d.arm, 2);
        assert!(!d.explore);
    }

    #[test]
    fn cutoff_retires_hopeless_arms_from_exploration() {
        let cfg = ControllerConfig { explore_cutoff_permille: 2000, ..Default::default() };
        let mut c = AdaptiveController::new(cfg, vec![arms()]);
        c.observe(0, 0, &obs(1000 * 1000));
        c.observe(0, 1, &obs(5000 * 1000)); // 5x the incumbent: cut off
                                            // Explore turn (turn 3): must skip arm 1 for the unobserved arm 2.
        for _ in 0..3 {
            let d = c.decide(0);
            c.observe(0, d.arm, &obs(1000 * 1000));
        }
        let d = c.decide(0);
        assert!(d.explore);
        assert_eq!(d.arm, 2, "cut-off arm is never re-explored");
    }

    #[test]
    fn prior_prunes_unobserved_expensive_arms_from_exploration() {
        let mut list = arms();
        list[1].predicted_millicost = 50_000; // far beyond 3000‰ of arm 0's 1100
        let mut c = AdaptiveController::new(ControllerConfig::default(), vec![list]);
        for _ in 0..3 {
            let d = c.decide(0);
            assert_eq!(d.arm, 0);
            c.observe(0, d.arm, &obs(1000 * 1000));
        }
        // Explore turn: arm 1 is pruned on its prior alone, never probed.
        let d = c.decide(0);
        assert!(d.explore);
        assert_eq!(d.arm, 2);
    }

    #[test]
    fn windows_age_out_old_costs() {
        let cfg = ControllerConfig { window: 2, ..Default::default() };
        let mut c = AdaptiveController::new(cfg, vec![arms()]);
        c.observe(0, 0, &obs(9000 * 1000));
        c.observe(0, 0, &obs(1000 * 1000));
        c.observe(0, 0, &obs(1000 * 1000));
        // The 9000 observation aged out of the 2-deep window.
        assert_eq!(c.machines[0].arms[0].mean(), Some(1_000_000));
    }

    #[test]
    fn replaying_observations_reproduces_decisions() {
        let mut live = AdaptiveController::new(ControllerConfig::default(), vec![arms()]);
        let mut log: Vec<(Decision, BatchObservation)> = Vec::new();
        let costs = [1500u64, 1400, 1600, 900, 1450, 800, 1300, 950, 1000, 850];
        for (i, &cost) in costs.iter().enumerate() {
            let d = live.decide(0);
            let o = obs(cost * 1000 + i as u64);
            live.observe(0, d.arm, &o);
            log.push((d, o));
        }
        // A fresh controller fed the same observations makes the same calls.
        let mut replay = AdaptiveController::new(ControllerConfig::default(), vec![arms()]);
        for (d, o) in &log {
            assert_eq!(replay.decide(0), *d);
            replay.observe(0, d.arm, o);
        }
    }

    #[test]
    fn observation_millicost_is_cycles_per_byte_permille() {
        let o = BatchObservation { bytes: 2048, compute_cycles: 4096, ..Default::default() };
        assert_eq!(o.millicost(), 2000);
        let empty = BatchObservation::default();
        assert_eq!(empty.millicost(), 0, "zero-byte batches cost nothing");
    }
}
