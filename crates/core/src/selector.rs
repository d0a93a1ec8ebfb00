//! Parallel scheme selection (§IV-D, Figure 6).
//!
//! GSpecPal picks among PM/SRE/RR/NF with a coarse decision tree over two
//! factors: the *quality of speculation* (spec-1 / spec-k accuracy measured
//! on a small training slice, and whether that accuracy is input-sensitive)
//! and the *FSM convergence property* (unique states remaining after 10
//! transitions from all states). The paper reports 80.6% selection accuracy
//! with ≤3% mean loss against the oracle; the harness regenerates both
//! numbers on the synthetic suite.

use gspecpal_fsm::profile::{convergence_profile, ConvergenceProfile};
use gspecpal_fsm::Dfa;

use crate::predict::LookbackWalker;
use crate::run::SchemeKind;

/// Offline profile of one (FSM, training slice) pair — the inputs to the
/// decision tree, and the per-FSM columns of Table II.
#[derive(Clone, Debug)]
pub struct SelectorProfile {
    /// Fraction of training boundaries where the top-1 lookback state was
    /// the true start state (Table II `accuracy(spec-1)`).
    pub spec1_accuracy: f64,
    /// Fraction where the truth ranked in the top k = 4
    /// (Table II `accuracy(spec-4)`).
    pub spec4_accuracy: f64,
    /// Highest rank (1-based) at which the truth appeared across the
    /// training boundaries — how deep a recovery has to dig.
    pub worst_truth_rank: usize,
    /// Spread of per-portion spec-1 accuracy: `max - min` across the
    /// training portions. Large spread = highly input-sensitive speculation.
    pub accuracy_spread: f64,
    /// Convergence profile (10-step unique-state count, Table II
    /// `#uniqStates(10 trans.)`).
    pub convergence: ConvergenceProfile,
    /// Number of machine states (context for the convergence threshold).
    pub n_states: u32,
    /// Wall-clock seconds the profiling itself took (Table II last column).
    pub profiling_seconds: f64,
}

/// Decision thresholds (the coarse-grained tree of Fig 6).
#[derive(Clone, Copy, Debug)]
pub struct Selector {
    /// Spec accuracy considered "high" (tree root, orange nodes).
    pub high_accuracy: f64,
    /// Accuracy spread above which the *tree* prefers NF over RR. Kept
    /// permissive: leaning towards NF on a noisy spread is nearly free
    /// (RR and NF are close), while missing real sensitivity is costly.
    pub sensitivity_spread: f64,
    /// Stricter spread above which an FSM is *reported* as having highly
    /// input-sensitive speculation (the Table II column).
    pub report_spread: f64,
    /// Number of boundaries sampled from the training slice.
    pub boundaries: usize,
    /// Portions the training slice is split into for the sensitivity check.
    pub portions: usize,
    /// Lookback window length (must match the runtime predictor).
    pub lookback: usize,
    /// Transition steps for convergence profiling (the paper uses 10).
    pub convergence_steps: usize,
    /// Live-path width (10-step unique-state count) below which SFA's
    /// |Q|-fold execution has collapsed enough to out-run speculative
    /// recovery on non-convergent machines: SFA's per-byte cost is the
    /// *effective* mapping width, and beyond a couple dozen simultaneous
    /// paths the redundancy eats the speedup budget.
    pub sfa_max_width: f64,
    /// State count above which the width-many simultaneous table rows no
    /// longer fit the shared-memory hot set — every SFA path then pays
    /// global-memory transitions and the mapping walk loses to aggressive
    /// speculative recovery even at moderate width.
    pub sfa_max_states: u32,
    /// State count below which SFA is pointless: a tiny machine bounds the
    /// truth rank by |Q|, so speculative recovery is shallow and cheap while
    /// the mapping walk still pays the full width factor.
    pub sfa_min_states: u32,
}

impl Default for Selector {
    fn default() -> Self {
        Selector {
            high_accuracy: 0.9,
            sensitivity_spread: 0.35,
            report_spread: 0.55,
            boundaries: 256,
            portions: 16,
            lookback: 2,
            convergence_steps: 10,
            sfa_max_width: 24.0,
            sfa_max_states: 1024,
            sfa_min_states: 16,
        }
    }
}

impl Selector {
    /// Collects the offline profile of `dfa` over `training` (the paper uses
    /// a randomly selected 1 MB slice, 0.5% of each input group).
    pub fn profile(&self, dfa: &Dfa, training: &[u8]) -> SelectorProfile {
        let t0 = std::time::Instant::now();
        let boundaries = self.boundaries.max(self.portions).min(training.len().max(1));

        // One sequential pass gives the ground-truth state at every position.
        let trace = dfa.run_trace(dfa.start(), training);

        let mut per_portion_hits = vec![0u32; self.portions];
        let mut per_portion_total = vec![0u32; self.portions];
        let mut spec1_hits = 0u32;
        let mut spec4_hits = 0u32;
        let mut worst_rank = 1usize;
        let mut total = 0u32;
        let mut walker = LookbackWalker::new(dfa);
        for b in 0..boundaries {
            // Boundary positions spread evenly, skipping position 0.
            let pos = (b + 1) * training.len() / (boundaries + 1);
            if pos < self.lookback || pos == 0 || pos > training.len() {
                continue;
            }
            let truth = trace[pos - 1];
            let queue = walker.queue(&training[pos - self.lookback..pos]);
            let rank = queue.rank_of(truth).expect("containment property") + 1;
            total += 1;
            worst_rank = worst_rank.max(rank);
            let portion = (pos * self.portions / training.len().max(1)).min(self.portions - 1);
            per_portion_total[portion] += 1;
            if rank == 1 {
                spec1_hits += 1;
                per_portion_hits[portion] += 1;
            }
            if rank <= 4 {
                spec4_hits += 1;
            }
        }

        let spec1_accuracy =
            if total == 0 { 0.0 } else { f64::from(spec1_hits) / f64::from(total) };
        let spec4_accuracy =
            if total == 0 { 0.0 } else { f64::from(spec4_hits) / f64::from(total) };
        let portion_accs: Vec<f64> = per_portion_hits
            .iter()
            .zip(&per_portion_total)
            .filter(|&(_, &t)| t > 0)
            .map(|(&h, &t)| f64::from(h) / f64::from(t))
            .collect();
        let accuracy_spread = match (
            portion_accs.iter().cloned().fold(f64::INFINITY, f64::min),
            portion_accs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        ) {
            (lo, hi) if lo.is_finite() && hi.is_finite() => hi - lo,
            _ => 0.0,
        };

        // An odd sample count that does not divide the portion count, so the
        // sampled windows cannot alias with a regime-switching input's
        // segment structure (which would make a half-convergent machine look
        // fully convergent or fully non-convergent).
        let convergence = convergence_profile(dfa, training, self.convergence_steps, 11);

        SelectorProfile {
            spec1_accuracy,
            spec4_accuracy,
            worst_truth_rank: worst_rank,
            accuracy_spread,
            convergence,
            n_states: dfa.n_states(),
            profiling_seconds: t0.elapsed().as_secs_f64(),
        }
    }

    /// The Figure 6 decision tree.
    ///
    /// Orange nodes (speculation quality) first, gray nodes (convergence)
    /// second:
    ///
    /// * spec-1 already high → no redundancy needed; recovery is rare. Bind
    ///   threads to chunks if end-forwarding works (SRE), otherwise keep the
    ///   aggressive coverage of RR for the rare deep miss.
    /// * strong convergence → forwarded end states are accurate and spec-k's
    ///   α_k redundancy is pure overhead: SRE.
    /// * non-convergent but spec-4 high → PM's enumerative speculation
    ///   covers the truth while every recovery-based scheme pays expensive
    ///   must-be-done rounds: PM.
    /// * everything poor → aggressive recovery is mandatory; input-sensitive
    ///   speculation favours NF's frontier-flooding, otherwise RR's even
    ///   spread — unless the machine sits in SFA's window (moderate
    ///   effective width, table small enough to stay shared-memory
    ///   resident), where computing the full mapping beats speculating
    ///   wrongly and recovering forever.
    pub fn select(&self, p: &SelectorProfile) -> SchemeKind {
        self.select_explained(p).0
    }

    /// Like [`Selector::select`], also returning the branch of the decision
    /// tree that fired (for logs and the framework report).
    pub fn select_explained(&self, p: &SelectorProfile) -> (SchemeKind, String) {
        let converges = p.convergence.converges_strongly(p.n_states);
        if p.spec1_accuracy >= self.high_accuracy {
            if converges {
                (
                    SchemeKind::Sre,
                    format!(
                        "spec-1 accuracy {:.0}% is high and the FSM converges \
                         ({:.1} unique states after {} steps): end-state \
                         forwarding handles the rare miss",
                        p.spec1_accuracy * 100.0,
                        p.convergence.mean_unique_states,
                        p.convergence.steps
                    ),
                )
            } else {
                (
                    SchemeKind::Rr,
                    format!(
                        "spec-1 accuracy {:.0}% is high but the FSM does not \
                         converge: keep aggressive coverage for the rare deep miss",
                        p.spec1_accuracy * 100.0
                    ),
                )
            }
        } else if converges {
            (
                SchemeKind::Sre,
                format!(
                    "strong convergence ({:.1} unique states after {} steps): \
                     forwarded end states are the ground truth, spec-k \
                     redundancy would be pure overhead",
                    p.convergence.mean_unique_states, p.convergence.steps
                ),
            )
        } else if p.spec4_accuracy >= self.high_accuracy {
            (
                SchemeKind::Pm,
                format!(
                    "spec-4 accuracy {:.0}% covers the truth: enumerative \
                     speculation wins, recovery would be waste",
                    p.spec4_accuracy * 100.0
                ),
            )
        } else if p.accuracy_spread >= self.sensitivity_spread {
            (
                SchemeKind::Nf,
                format!(
                    "speculation is input-sensitive (accuracy spread {:.0}%): \
                     flood the chunks right after the frontier",
                    p.accuracy_spread * 100.0
                ),
            )
        } else if p.n_states >= self.sfa_min_states
            && p.n_states <= self.sfa_max_states
            && p.convergence.mean_unique_states <= self.sfa_max_width
        {
            (
                SchemeKind::Sfa,
                format!(
                    "speculation uniformly poor (spec-4 {:.0}%) but the live \
                     path set stays narrow ({:.1} unique states after {} \
                     steps) and the {}-state table stays resident: compute \
                     the full mapping instead of speculating",
                    p.spec4_accuracy * 100.0,
                    p.convergence.mean_unique_states,
                    p.convergence.steps,
                    p.n_states
                ),
            )
        } else {
            (
                SchemeKind::Rr,
                format!(
                    "speculation uniformly poor (spec-4 {:.0}%, worst truth \
                     rank {}): spread recovery round-robin over all rear chunks",
                    p.spec4_accuracy * 100.0,
                    p.worst_truth_rank
                ),
            )
        }
    }

    /// Whether a profile counts as "highly input-sensitive" (Table II
    /// column; stricter than the tree's NF-vs-RR preference).
    pub fn is_input_sensitive(&self, p: &SelectorProfile) -> bool {
        p.accuracy_spread >= self.report_spread
    }

    /// Predicted speculation accuracy at depth `k` — the spec-k cost
    /// surface's accuracy leg. Interpolates between the two measured points
    /// (spec-1, spec-4) and extrapolates towards certainty at
    /// `worst_truth_rank`, where the containment property guarantees a hit.
    /// Monotone in `k` by construction.
    pub fn speck_accuracy(&self, p: &SelectorProfile, spec_k: usize) -> f64 {
        let k = spec_k.max(1) as f64;
        let acc = if k <= 1.0 {
            p.spec1_accuracy
        } else if k <= 4.0 {
            p.spec1_accuracy + (p.spec4_accuracy - p.spec1_accuracy).max(0.0) * (k - 1.0) / 3.0
        } else {
            let worst = (p.worst_truth_rank.max(5)) as f64;
            p.spec4_accuracy
                + (1.0 - p.spec4_accuracy).max(0.0) * ((k - 4.0) / (worst - 4.0)).min(1.0)
        };
        acc.clamp(0.0, 1.0)
    }

    /// The spec-k cost surface: predicted execution + verification/recovery
    /// work of running `scheme` at speculation depth `spec_k`, in
    /// milli-transitions per input byte (1000 = one sequential transition
    /// per byte, the floor every chunked scheme pays).
    ///
    /// This is a coarse integer surface, not a simulation: redundant
    /// execution is charged linearly (spec-k paths for PM, the live mapping
    /// width for SFA) and expected recovery is the miss probability at
    /// depth `spec_k` times a per-scheme re-execution factor (sequential
    /// recovery is the most expensive, aggressive round-robin/nearest-first
    /// spread the cheapest, convergent end-state forwarding nearly free).
    /// Deterministic: pure integer rounding of the profile's measured
    /// ratios.
    pub fn speck_cost_surface(
        &self,
        p: &SelectorProfile,
        scheme: SchemeKind,
        spec_k: usize,
    ) -> u64 {
        const BASE: f64 = 1000.0;
        let miss1 = 1.0 - self.speck_accuracy(p, 1);
        let miss_k = 1.0 - self.speck_accuracy(p, spec_k);
        let converges = p.convergence.converges_strongly(p.n_states);
        let cost = match scheme {
            SchemeKind::Sequential => BASE,
            // Sequential recovery re-walks every missed chunk, one at a time.
            SchemeKind::Naive => BASE + miss1 * 4.0 * BASE,
            // spec-k redundant paths: each extra lane adds a small linear
            // verification cost, while recovery is only paid for the
            // residual misses the enumeration did not cover — so deeper
            // speculation pays exactly until the accuracy curve flattens.
            SchemeKind::Pm => {
                BASE * (1.0 + 0.08 * (spec_k.max(1) - 1) as f64) + miss_k * 2.0 * BASE
            }
            // End-state forwarding: when chunks converge the rear threads
            // skip almost their whole range, so even the base scan shrinks;
            // when they do not, recovery crawls (repeated speculation).
            SchemeKind::Sre => {
                if converges {
                    0.3 * BASE + miss1 * 0.1 * BASE
                } else {
                    BASE + miss1 * 3.0 * BASE
                }
            }
            // Aggressive recovery amortizes the re-execution over all rear
            // threads; NF's frontier flooding pulls slightly ahead exactly
            // when speculation quality is input-sensitive.
            SchemeKind::Rr => BASE + miss1 * 0.9 * BASE,
            SchemeKind::Nf => {
                let factor = if p.accuracy_spread >= self.sensitivity_spread { 0.75 } else { 1.0 };
                BASE + miss1 * factor * BASE
            }
            // The mapping walk pays the live width every byte, a per-chunk
            // burn-in while the walk narrows from the full state set down
            // to that width, plus a steep residency penalty outside the
            // shared-memory window.
            SchemeKind::Sfa => {
                let width = p.convergence.mean_unique_states.max(1.0);
                let burn_in = 0.1 * p.convergence.steps.min(32) as f64;
                let resident =
                    p.n_states >= self.sfa_min_states && p.n_states <= self.sfa_max_states;
                BASE * (width + burn_in) + if resident { 0.0 } else { 64.0 * BASE }
            }
        };
        cost.round() as u64
    }

    /// Scores every candidate `(scheme, spec-k)` launch configuration over
    /// the cost surface and returns them cheapest-first — except that the
    /// Figure 6 decision tree's pick (at its best spec-k) is always ranked
    /// first, so consumers that trust the ranking start exactly where §IV
    /// would have started and the surface only *extends* the offline
    /// selector. Ties and order are deterministic: candidates are generated
    /// in a fixed order and sorted by a stable key.
    pub fn score_choices(&self, p: &SelectorProfile) -> Vec<ScoredChoice> {
        let (tree_pick, _) = self.select_explained(p);
        let mut choices: Vec<ScoredChoice> = Vec::new();
        for spec_k in SPEC_K_GRID {
            choices.push(ScoredChoice {
                scheme: SchemeKind::Pm,
                spec_k,
                predicted_millicost: self.speck_cost_surface(p, SchemeKind::Pm, spec_k),
            });
        }
        for scheme in [SchemeKind::Sre, SchemeKind::Rr, SchemeKind::Nf, SchemeKind::Sfa] {
            choices.push(ScoredChoice {
                scheme,
                spec_k: 4,
                predicted_millicost: self.speck_cost_surface(p, scheme, 4),
            });
        }
        choices.sort_by_key(|c| (c.predicted_millicost, c.spec_k));
        // Hoist the decision tree's scheme (its cheapest spec-k variant) to
        // the front: rank 0 is §IV's answer by construction.
        let lead = choices
            .iter()
            .position(|c| c.scheme == tree_pick)
            .expect("every selectable scheme is a candidate");
        let lead = choices.remove(lead);
        choices.insert(0, lead);
        choices
    }
}

/// Speculation depths the spec-k cost surface sweeps for PM (the paper's
/// Fig 3 grid, minus the redundant k = 6 point).
pub const SPEC_K_GRID: [usize; 4] = [1, 2, 4, 8];

/// One candidate launch configuration with its predicted cost on the
/// [`Selector::speck_cost_surface`] — the reusable scored-decision API the
/// online controller (and any other consumer) ranks and explores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScoredChoice {
    /// The execution scheme.
    pub scheme: SchemeKind,
    /// Speculation depth (meaningful for PM; the paper's default elsewhere).
    pub spec_k: usize,
    /// Predicted cost in milli-transitions per input byte (1000 = the
    /// sequential floor).
    pub predicted_millicost: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gspecpal_fsm::combinators::{keyword_dfa, product, slow_chain_dfa, ProductAccept};
    use gspecpal_fsm::examples::{div7, mod_counter, ones_counter};

    fn binary_input(len: usize) -> Vec<u8> {
        // Deterministic pseudo-random binary stream.
        let mut x = 0x12345678u32;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                if x & 0x10000 != 0 {
                    b'1'
                } else {
                    b'0'
                }
            })
            .collect()
    }

    #[test]
    fn convergent_keyword_machine_selects_sre_or_better() {
        let d = keyword_dfa(&[b"attack", b"overflow"]).unwrap();
        let training = b"mostly benign traffic with an attack or overflow rarely ".repeat(40);
        let sel = Selector::default();
        let p = sel.profile(&d, &training);
        // Keyword machines converge within a couple of bytes: spec-1 is
        // mostly right (boundaries inside a keyword have a few candidates)
        // and convergence strong.
        assert!(p.spec1_accuracy > 0.5, "spec1 = {}", p.spec1_accuracy);
        assert!(p.convergence.converges_strongly(d.n_states()));
        assert_eq!(sel.select(&p), SchemeKind::Sre);
    }

    #[test]
    fn small_counter_selects_pm() {
        // Truth uniformly in a 4-deep queue: spec-1 poor, spec-4 perfect.
        let d = ones_counter(4, &[0]);
        let training = binary_input(4096);
        let sel = Selector::default();
        let p = sel.profile(&d, &training);
        assert!(p.spec4_accuracy >= 0.9, "spec4 = {}", p.spec4_accuracy);
        assert!(p.spec1_accuracy < 0.9);
        assert_eq!(sel.select(&p), SchemeKind::Pm);
    }

    #[test]
    fn div7_selects_aggressive_recovery() {
        let d = div7();
        let training = binary_input(4096);
        let sel = Selector::default();
        let p = sel.profile(&d, &training);
        // 7 equally-likely residues: spec-4 covers only 4/7.
        assert!(p.spec4_accuracy < 0.9, "spec4 = {}", p.spec4_accuracy);
        assert!(!p.convergence.converges_strongly(d.n_states()));
        let s = sel.select(&p);
        assert!(s == SchemeKind::Rr || s == SchemeKind::Nf, "selected {s}");
    }

    #[test]
    fn slow_chain_selects_sre() {
        // 2-byte lookback can't resolve the chain, but 10 junk bytes retreat
        // it (by 2 rungs each) to the root, so end-forwarding works.
        let d = slow_chain_dfa(b"abcdefghijkl", 2).unwrap();
        let training = b"zzzzzqqqqqppppprrrrrsssss".repeat(60);
        let sel = Selector::default();
        let p = sel.profile(&d, &training);
        assert!(p.convergence.converges_strongly(d.n_states()));
        assert_eq!(sel.select(&p), SchemeKind::Sre);
    }

    #[test]
    fn sliding_window_selects_sre() {
        // The Tier-B primitive: total convergence after 3 symbols, but a
        // 2-byte lookback leaves |alphabet|+1 uniform candidates.
        let d = gspecpal_fsm::combinators::sliding_window_dfa(b"aeiostnr", 3, b"aaa").unwrap();
        let training = b"the sonorous notes rise and retreat in unison ".repeat(30);
        let sel = Selector::default();
        let p = sel.profile(&d, &training);
        assert!(p.spec4_accuracy < 0.9, "spec4 = {}", p.spec4_accuracy);
        assert!(p.convergence.converges_strongly(d.n_states()));
        assert_eq!(sel.select(&p), SchemeKind::Sre);
    }

    #[test]
    fn counter_product_is_not_convergent() {
        let kw = keyword_dfa(&[b"ab"]).unwrap();
        let ctr = mod_counter(11, &[0]);
        let d = product(&kw, &ctr, ProductAccept::First).unwrap();
        let training = binary_input(4096);
        let sel = Selector::default();
        let p = sel.profile(&d, &training);
        assert!(!p.convergence.converges_strongly(d.n_states()));
    }

    #[test]
    fn high_spec1_branches_on_convergence() {
        // Synthetic profiles drive the two spec-1-high leaves directly.
        let sel = Selector::default();
        let conv = gspecpal_fsm::profile::ConvergenceProfile {
            steps: 10,
            mean_unique_states: 1.0,
            min_unique_states: 1,
            max_unique_states: 1,
        };
        let nonconv = gspecpal_fsm::profile::ConvergenceProfile {
            steps: 10,
            mean_unique_states: 9.0,
            min_unique_states: 9,
            max_unique_states: 9,
        };
        let base = SelectorProfile {
            spec1_accuracy: 0.95,
            spec4_accuracy: 0.99,
            worst_truth_rank: 2,
            accuracy_spread: 0.1,
            convergence: conv,
            n_states: 100,
            profiling_seconds: 0.0,
        };
        assert_eq!(sel.select(&base), SchemeKind::Sre);
        let hard = SelectorProfile { convergence: nonconv, ..base.clone() };
        assert_eq!(sel.select(&hard), SchemeKind::Rr);
        // Explanations name the branch.
        let (_, why) = sel.select_explained(&hard);
        assert!(why.contains("does not converge"), "{why}");
    }

    #[test]
    fn sensitivity_branch_prefers_nf() {
        let sel = Selector::default();
        // Wide live set (40 paths), so the SFA leaf stays out of the way and
        // the flat-spread variant falls through to RR.
        let nonconv = gspecpal_fsm::profile::ConvergenceProfile {
            steps: 10,
            mean_unique_states: 40.0,
            min_unique_states: 40,
            max_unique_states: 40,
        };
        let p = SelectorProfile {
            spec1_accuracy: 0.1,
            spec4_accuracy: 0.4,
            worst_truth_rank: 14,
            accuracy_spread: 0.8,
            convergence: nonconv,
            n_states: 500,
            profiling_seconds: 0.0,
        };
        assert_eq!(sel.select(&p), SchemeKind::Nf);
        let flat = SelectorProfile { accuracy_spread: 0.05, ..p };
        assert_eq!(sel.select(&flat), SchemeKind::Rr);
    }

    #[test]
    fn sfa_leaf_fires_on_narrow_resident_machines_only() {
        let sel = Selector::default();
        let narrow = gspecpal_fsm::profile::ConvergenceProfile {
            steps: 10,
            mean_unique_states: 17.0,
            min_unique_states: 16,
            max_unique_states: 18,
        };
        let p = SelectorProfile {
            spec1_accuracy: 0.05,
            spec4_accuracy: 0.23,
            worst_truth_rank: 33,
            accuracy_spread: 0.15,
            convergence: narrow,
            n_states: 450,
            profiling_seconds: 0.0,
        };
        assert_eq!(sel.select(&p), SchemeKind::Sfa);
        let (_, why) = sel.select_explained(&p);
        assert!(why.contains("full mapping"), "{why}");
        // Table spills the shared-memory hot set: recovery wins back.
        assert_eq!(sel.select(&SelectorProfile { n_states: 5000, ..p.clone() }), SchemeKind::Rr);
        // Tiny machine: truth rank is bounded by |Q|, recovery is shallow.
        assert_eq!(sel.select(&SelectorProfile { n_states: 7, ..p.clone() }), SchemeKind::Rr);
        // Wide live set: the |Q|-fold work stands and SFA loses.
        let wide = gspecpal_fsm::profile::ConvergenceProfile {
            steps: 10,
            mean_unique_states: 60.0,
            min_unique_states: 60,
            max_unique_states: 60,
        };
        assert_eq!(sel.select(&SelectorProfile { convergence: wide, ..p }), SchemeKind::Rr);
    }

    #[test]
    fn score_choices_leads_with_tree_pick() {
        let sel = Selector::default();
        let d = keyword_dfa(&[b"attack", b"overflow"]).unwrap();
        let training = b"mostly benign traffic with an attack or overflow rarely ".repeat(40);
        let p = sel.profile(&d, &training);
        let choices = sel.score_choices(&p);
        assert_eq!(choices[0].scheme, sel.select(&p));
        // The tail is sorted cheapest-first and covers PM's whole spec-k grid.
        for w in choices[1..].windows(2) {
            assert!(w[0].predicted_millicost <= w[1].predicted_millicost);
        }
        for k in SPEC_K_GRID {
            assert!(choices.iter().any(|c| c.scheme == SchemeKind::Pm && c.spec_k == k));
        }
        // Pure function of the profile: identical on re-evaluation.
        assert_eq!(choices, sel.score_choices(&p));
    }

    #[test]
    fn speck_surface_tracks_accuracy() {
        let sel = Selector::default();
        let conv = gspecpal_fsm::profile::ConvergenceProfile {
            steps: 10,
            mean_unique_states: 9.0,
            min_unique_states: 9,
            max_unique_states: 9,
        };
        let p = SelectorProfile {
            spec1_accuracy: 0.2,
            spec4_accuracy: 0.95,
            worst_truth_rank: 8,
            accuracy_spread: 0.1,
            convergence: conv,
            n_states: 100,
            profiling_seconds: 0.0,
        };
        // Accuracy is monotone in k and reaches certainty at the worst rank.
        assert!(sel.speck_accuracy(&p, 1) <= sel.speck_accuracy(&p, 2));
        assert!(sel.speck_accuracy(&p, 2) <= sel.speck_accuracy(&p, 4));
        assert!(sel.speck_accuracy(&p, 4) <= sel.speck_accuracy(&p, 8));
        assert!((sel.speck_accuracy(&p, 8) - 1.0).abs() < 1e-9);
        // PM's verification leg grows linearly with k, so past the coverage
        // knee deeper speculation only adds redundancy; before the knee it
        // pays, because avoided recovery dwarfs the extra lane.
        let c1 = sel.speck_cost_surface(&p, SchemeKind::Pm, 1);
        let c4 = sel.speck_cost_surface(&p, SchemeKind::Pm, 4);
        let c8 = sel.speck_cost_surface(&p, SchemeKind::Pm, 8);
        assert!(c4 < c1, "{c4} vs {c1}");
        assert!(c8 > c4, "{c8} vs {c4}");
        // Non-convergent SRE pays crawling recovery; RR amortizes it.
        let sre = sel.speck_cost_surface(&p, SchemeKind::Sre, 4);
        let rr = sel.speck_cost_surface(&p, SchemeKind::Rr, 4);
        assert!(sre > rr, "{sre} vs {rr}");
    }

    #[test]
    fn profile_reports_worst_rank() {
        let d = div7();
        let training = binary_input(2048);
        let p = Selector::default().profile(&d, &training);
        assert!(p.worst_truth_rank >= 1);
        assert!(p.worst_truth_rank <= 7);
        assert!(p.profiling_seconds >= 0.0);
    }
}
