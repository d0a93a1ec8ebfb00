//! The GSpecPal framework (§IV): profile → transform → select → execute.
//!
//! [`GSpecPal::process`] is the public entry point a downstream user calls:
//! give it a DFA and an input stream and it (1) profiles state frequencies
//! and speculation behaviour on a small training slice, (2) applies the
//! frequency-based DFA transformation and sizes the shared-memory-resident
//! hot rows for the device, (3) runs the Fig 6 decision tree to pick a
//! parallel scheme, (4) launches the simulated kernels, and (5) maps the
//! verified result back to the caller's original state numbering.

use gspecpal_fsm::{Dfa, FrequencyProfile, StateId, TransformedDfa};
use gspecpal_gpu::DeviceSpec;

use crate::config::SchemeConfig;
use crate::run::{RunOutcome, SchemeKind};
use crate::schemes::{run_scheme, Job};
use crate::selector::{Selector, SelectorProfile};
use crate::table::{DeviceTable, TableLayout};

/// Fraction of the input used as the offline training slice (the paper uses
/// 0.5%).
const TRAINING_FRACTION: f64 = 0.005;
/// Lower bound on the training slice length, so tiny inputs still get a
/// usable profile.
const MIN_TRAINING: usize = 512;

/// The latency-sensitive FSM-processing framework.
///
/// ```
/// use gspecpal::{GSpecPal, SchemeConfig};
/// use gspecpal_gpu::DeviceSpec;
/// use gspecpal_fsm::examples::div7;
///
/// let dfa = div7();
/// let input: Vec<u8> = b"10110101".repeat(256);
/// let fw = GSpecPal::new(DeviceSpec::test_unit())
///     .with_config(SchemeConfig { n_chunks: 16, ..SchemeConfig::default() });
/// let report = fw.process(&dfa, &input);
/// assert_eq!(report.end_state(), dfa.run(&input));
/// ```
#[derive(Clone, Debug)]
pub struct GSpecPal {
    device: DeviceSpec,
    config: SchemeConfig,
    layout: TableLayout,
}

impl GSpecPal {
    /// A framework instance for `device` with the paper's defaults.
    pub fn new(device: DeviceSpec) -> Self {
        GSpecPal { device, config: SchemeConfig::default(), layout: TableLayout::Transformed }
    }

    /// Overrides the scheme configuration.
    pub fn with_config(mut self, config: SchemeConfig) -> Self {
        self.config = config;
        self
    }

    /// Switches the hot-table layout (the ablation knob: `Hashed` is PM's
    /// hash-table approach, `Transformed` the paper's §IV-B optimization).
    pub fn with_layout(mut self, layout: TableLayout) -> Self {
        self.layout = layout;
        self
    }

    /// The device this framework simulates.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The active configuration.
    pub fn config(&self) -> &SchemeConfig {
        &self.config
    }

    /// The training slice of `input` used for offline profiling.
    pub fn training_slice<'i>(&self, input: &'i [u8]) -> &'i [u8] {
        let len =
            ((input.len() as f64 * TRAINING_FRACTION) as usize).max(MIN_TRAINING).min(input.len());
        &input[..len]
    }

    /// Processes `input` with `dfa`, letting the selector pick the scheme.
    ///
    /// The selector profiles *sampled boundaries across the whole stream*
    /// (the paper samples a random 0.5% slice of each input group; with a
    /// single stream, spread-out sampling is the equivalent that still sees
    /// regime changes), while the frequency profile for table residency uses
    /// the compact training prefix.
    pub fn process(&self, dfa: &Dfa, input: &[u8]) -> FrameworkReport {
        let selector = Selector;
        let profile = selector.profile(dfa, input);
        let (scheme, reason) = selector.select_explained(&profile);
        let outcome = self.run_with(dfa, input, scheme);
        FrameworkReport { selected: scheme, reason, profile, outcome }
    }

    /// Runs a specific scheme through the full pipeline (transformation,
    /// table residency, kernels) and maps the outcome back to `dfa`'s
    /// original state ids.
    pub fn run_with(&self, dfa: &Dfa, input: &[u8], scheme: SchemeKind) -> RunOutcome {
        let training = self.training_slice(input);
        let freq = FrequencyProfile::collect(dfa, training);
        let config = self.effective_config(input.len());

        let outcome = match self.layout {
            TableLayout::Transformed => {
                let transformed = TransformedDfa::from_profile(dfa, &freq);
                let hot = DeviceTable::hot_rows_for_device(
                    transformed.dfa(),
                    TableLayout::Transformed,
                    &self.device,
                );
                let table = DeviceTable::transformed(transformed.dfa(), hot);
                let job = Job::new(&self.device, &table, input, config).expect("validated config");
                let mut out = run_scheme(scheme, &job);
                // Map states back to the caller's numbering.
                out.end_state = transformed.to_original(out.end_state);
                for s in &mut out.chunk_ends {
                    *s = transformed.to_original(*s);
                }
                out
            }
            TableLayout::Hashed => {
                let hot = DeviceTable::hot_rows_for_device(dfa, TableLayout::Hashed, &self.device);
                let table = DeviceTable::hashed(dfa, &freq, hot);
                let job = Job::new(&self.device, &table, input, config).expect("validated config");
                run_scheme(scheme, &job)
            }
        };
        outcome
    }

    /// Clamps the chunk count for short inputs so the configuration stays
    /// valid.
    fn effective_config(&self, input_len: usize) -> SchemeConfig {
        let mut c = self.config;
        c.n_chunks = c.n_chunks.min(input_len.max(1));
        c.n_chunks = c.n_chunks.min(self.device.max_threads_per_block as usize);
        c
    }
}

/// What [`GSpecPal::process`] returns: the selected scheme, the offline
/// profile that drove the selection, and the verified run outcome.
#[derive(Clone, Debug)]
pub struct FrameworkReport {
    /// Scheme the decision tree picked.
    pub selected: SchemeKind,
    /// The decision-tree branch that fired, in words.
    pub reason: String,
    /// The offline profile (Table II columns).
    pub profile: SelectorProfile,
    /// The run, with states in the caller's original numbering.
    pub outcome: RunOutcome,
}

impl FrameworkReport {
    /// Final state in the original machine.
    pub fn end_state(&self) -> StateId {
        self.outcome.end_state
    }

    /// Accept decision.
    pub fn accepted(&self) -> bool {
        self.outcome.accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gspecpal_fsm::combinators::keyword_dfa;
    use gspecpal_fsm::examples::div7;

    fn small_device() -> DeviceSpec {
        DeviceSpec::test_unit()
    }

    #[test]
    fn framework_end_to_end_on_div7() {
        let d = div7();
        let input: Vec<u8> = b"110101011001011101".repeat(64);
        let fw = GSpecPal::new(small_device())
            .with_config(SchemeConfig { n_chunks: 16, ..SchemeConfig::default() });
        let report = fw.process(&d, &input);
        assert_eq!(report.end_state(), d.run(&input));
        assert_eq!(report.accepted(), d.accepts(&input));
        // div7: non-convergent, spec-4 < 90% → aggressive recovery.
        assert!(
            report.selected == SchemeKind::Rr || report.selected == SchemeKind::Nf,
            "selected {}",
            report.selected
        );
    }

    #[test]
    fn framework_maps_states_back_through_transformation() {
        let d = keyword_dfa(&[b"needle"]).unwrap();
        let input = b"hay hay needle hay ".repeat(50);
        let fw = GSpecPal::new(small_device())
            .with_config(SchemeConfig { n_chunks: 8, ..SchemeConfig::default() });
        for scheme in SchemeKind::gspecpal_schemes() {
            let out = fw.run_with(&d, &input, scheme);
            assert_eq!(out.end_state, d.run(&input), "{scheme}");
            assert_eq!(out.accepted, d.accepts(&input), "{scheme}");
        }
    }

    #[test]
    fn hashed_layout_is_slower_than_transformed() {
        let d = keyword_dfa(&[b"alpha", b"beta", b"gamma"]).unwrap();
        let input = b"plain filler text alpha beta ".repeat(80);
        let config = SchemeConfig { n_chunks: 8, ..SchemeConfig::default() };
        // Force everything cold-capable: tiny shared memory budget comes from
        // the test device; both layouts share it.
        let fw_t = GSpecPal::new(small_device()).with_config(config);
        let fw_h =
            GSpecPal::new(small_device()).with_config(config).with_layout(TableLayout::Hashed);
        let t = fw_t.run_with(&d, &input, SchemeKind::Sre);
        let h = fw_h.run_with(&d, &input, SchemeKind::Sre);
        assert_eq!(t.end_state, h.end_state);
        assert!(
            h.total_cycles() > t.total_cycles(),
            "hashed {} must exceed transformed {}",
            h.total_cycles(),
            t.total_cycles()
        );
    }

    #[test]
    fn short_inputs_clamp_chunk_count() {
        let d = div7();
        let input = b"1011";
        let fw = GSpecPal::new(small_device());
        let report = fw.process(&d, input);
        assert_eq!(report.end_state(), d.run(input));
    }
}
