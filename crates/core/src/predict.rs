//! All-state lookback-2 state prediction (§IV-A).
//!
//! For every chunk boundary, the predictor executes FSM transitions starting
//! from *all* states over the last `lookback` (= 2) bytes preceding the
//! chunk, producing a set of possible start states ranked by frequency of
//! appearance. The FSM convergence property guarantees the true start state
//! is always contained in the produced set: the real execution path passes
//! through *some* state `lookback` bytes before the boundary, and running
//! every state forward necessarily includes it. (This containment is
//! property-tested in the crate's test suite.)
//!
//! The paper treats prediction cost as a constant `C` (§III-C) because the
//! per-boundary all-state walk is warp-cooperative and only two symbols
//! long; the device kernel here charges exactly that cooperative cost.
//!
//! The host does not repeat that |Q|-wide walk per boundary. A symbol's
//! transition column `δ(·, c)` is a state→state map (the mapping view of
//! simultaneous finite automata), so a window's end-state histogram is the
//! image histogram of its composed columns. [`LookbackWalker`] caches the
//! image of each byte class's column the first time a window starts with
//! that class and pushes the remaining bytes through the sparse histogram,
//! so a boundary costs O(|image|) host work. The simulated cost is
//! unaffected: it is a function of |Q|, `lookback` and the queue sizes only.

use std::cmp::Reverse;
use std::ops::Range;

use gspecpal_fsm::{Dfa, StateId};
use gspecpal_gpu::{
    launch_grid, DeviceSpec, KernelStats, Phase, RoundKernel, RoundOutcome, ThreadCtx,
};

use crate::specq::SpecQueue;

/// Lookback bytes of the all-state predictor, for every scheme, the
/// selector's profile and the cpu engine (the paper's all-state
/// lookback-2).
pub const LOOKBACK: usize = 2;

/// The output of the prediction phase: one ranked queue per chunk, plus the
/// simulated cost of producing them.
#[derive(Clone, Debug)]
pub struct Prediction {
    /// `queues[i]` is `QS_i`. `queues[0]` holds the machine's certain start
    /// state.
    pub queues: Vec<SpecQueue>,
    /// Cost of the prediction kernel (the constant `C` of Equation 1).
    pub stats: KernelStats,
}

/// Runs the all-state lookback predictor for every chunk.
pub fn predict(
    dfa: &Dfa,
    input: &[u8],
    chunks: &[Range<usize>],
    lookback: usize,
    spec: &DeviceSpec,
) -> Prediction {
    assert!(!chunks.is_empty(), "need at least one chunk");
    let queues = boundary_queues(dfa, input, chunks, lookback);

    // Device cost: each thread runs the all-state walk for its boundary
    // cooperatively across its warp (ceil(|Q| / warp) states per lane, each
    // `lookback` transitions of one shared-memory lookup + one ALU op), then
    // ranks the end-state set.
    let n_states = u64::from(dfa.n_states());
    let mut kernel = PredictCost {
        n_threads: chunks.len(),
        states_per_lane: n_states.div_ceil(u64::from(spec.warp_size)),
        lookback: lookback as u64,
        queue_sizes: queues.iter().map(|q| q.initial_len() as u64).collect(),
    };
    let stats = launch_grid(spec, chunks.len(), &mut kernel)
        .unwrap_or_else(|e| panic!("launch_grid: {e}"))
        .fold();
    Prediction { queues, stats }
}

/// The ranked queue of every chunk: chunk 0 holds the machine's certain
/// start state, every later chunk the lookback queue of the (up to)
/// `lookback` bytes before its boundary.
pub(crate) fn boundary_queues(
    dfa: &Dfa,
    input: &[u8],
    chunks: &[Range<usize>],
    lookback: usize,
) -> Vec<SpecQueue> {
    let mut walker = LookbackWalker::new(dfa);
    chunks
        .iter()
        .enumerate()
        .map(|(i, c)| match i {
            0 => SpecQueue::certain(dfa.start()),
            _ => walker.queue(&input[c.start.saturating_sub(lookback)..c.start]),
        })
        .collect()
}

/// Builds the ranked queue for one boundary window (a one-shot
/// [`LookbackWalker`]; reuse a walker when ranking many windows).
pub fn lookback_queue(dfa: &Dfa, window: &[u8]) -> SpecQueue {
    LookbackWalker::new(dfa).queue(window)
}

/// The all-state lookback walk, reusable across the windows of one machine.
///
/// Each window's queue holds every end state of running all states over
/// the window, ranked by descending frequency with ties broken by state id.
pub struct LookbackWalker<'d> {
    dfa: &'d Dfa,
    /// `images[c]`: the `(state, preimage count)` histogram of the column
    /// `δ(·, c)` over all states, filled the first time a window starts
    /// with class `c`.
    images: Vec<Option<Histogram>>,
    tally: Tally,
}

impl<'d> LookbackWalker<'d> {
    /// A walker over `dfa` with an empty column-image cache.
    pub fn new(dfa: &'d Dfa) -> Self {
        LookbackWalker {
            dfa,
            images: vec![None; usize::from(dfa.alphabet_len())],
            tally: Tally { counts: vec![0; dfa.n_states() as usize], touched: Vec::new() },
        }
    }

    /// The ranked queue of end states over `window`.
    pub fn queue(&mut self, window: &[u8]) -> SpecQueue {
        let dfa = self.dfa;
        let Some((&first, rest)) = window.split_first() else {
            // An empty window maps every state to itself.
            return SpecQueue::from_ranked((0..dfa.n_states()).map(|s| (s, 1)).collect());
        };
        let tally = &mut self.tally;
        let class = dfa.classes().class(first);
        let image = self.images[usize::from(class)].get_or_insert_with(|| {
            tally.sum((0..dfa.n_states()).map(|s| (dfa.next_by_class(s, class), 1)))
        });
        let mut hist: Option<Histogram> = None;
        for &b in rest {
            let class = dfa.classes().class(b);
            let from = hist.as_deref().unwrap_or(image);
            hist = Some(tally.sum(from.iter().map(|&(s, k)| (dfa.next_by_class(s, class), k))));
        }
        let mut ranked = hist.map_or_else(|| image.to_vec(), Vec::from);
        ranked.sort_unstable_by_key(|&(s, f)| (Reverse(f), s));
        SpecQueue::from_ranked(ranked)
    }
}

/// A sparse `(state, count)` histogram of end states.
type Histogram = Box<[(StateId, u32)]>;

/// Dense per-state counters plus the list of states they touched, so a
/// histogram is summed without hashing and reset in O(touched).
struct Tally {
    /// Zero for every state between calls to [`Tally::sum`].
    counts: Vec<u32>,
    touched: Vec<StateId>,
}

impl Tally {
    /// Sums `(state, count)` pairs by state, leaving the counters zeroed.
    fn sum(&mut self, pairs: impl Iterator<Item = (StateId, u32)>) -> Histogram {
        for (s, k) in pairs {
            let slot = &mut self.counts[s as usize];
            if *slot == 0 {
                self.touched.push(s);
            }
            *slot += k;
        }
        let counts = &mut self.counts;
        self.touched.drain(..).map(|s| (s, std::mem::take(&mut counts[s as usize]))).collect()
    }
}

/// The prediction cost model: read-only per thread, and global thread ids
/// address `queue_sizes` directly.
struct PredictCost {
    n_threads: usize,
    states_per_lane: u64,
    lookback: u64,
    queue_sizes: Vec<u64>,
}

impl RoundKernel for PredictCost {
    fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        if tid == 0 || tid >= self.n_threads {
            return RoundOutcome::IDLE; // Chunk 0 needs no prediction.
        }
        let steps = self.states_per_lane * self.lookback;
        ctx.shared(steps);
        ctx.alu(steps);
        // Frequency ranking of the end-state set.
        ctx.alu(self.queue_sizes.get(tid).copied().unwrap_or(0) * 2);
        RoundOutcome::ACTIVE
    }

    fn after_sync(&mut self, _round: u64) -> bool {
        false
    }

    fn phase(&self) -> Phase {
        Phase::Predict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition;
    use gspecpal_fsm::examples::{div7, fig4_dfa};

    #[test]
    fn true_start_state_is_always_contained() {
        let d = fig4_dfa();
        let input = b"code /* a comment */ more // and /*another*/ tail";
        let chunks = partition(input.len(), 8);
        let pred = predict(&d, input, &chunks, 2, &DeviceSpec::test_unit());
        for (i, chunk) in chunks.iter().enumerate() {
            let truth = d.run(&input[..chunk.start]);
            assert!(
                pred.queues[i].candidates().any(|s| s == truth),
                "chunk {i}: truth {truth} missing from queue"
            );
        }
    }

    #[test]
    fn div7_queue_contains_all_residues() {
        // div7 is a permutation automaton: lookback can rule nothing out, so
        // every queue holds all 7 states with equal frequency.
        let d = div7();
        let input = b"10110101101011010110101101011010";
        let chunks = partition(input.len(), 4);
        let pred = predict(&d, input, &chunks, 2, &DeviceSpec::test_unit());
        for q in &pred.queues[1..] {
            assert_eq!(q.initial_len(), 7);
        }
    }

    #[test]
    fn convergent_machine_gets_short_queues() {
        // A keyword machine over junk input converges to very few states.
        let d = gspecpal_fsm::combinators::keyword_dfa(&[b"attack", b"worm"]).unwrap();
        let q = lookback_queue(&d, b"zz");
        assert!(q.initial_len() <= 3, "queue had {} entries", q.initial_len());
    }

    #[test]
    fn ranking_is_by_frequency() {
        let d = gspecpal_fsm::combinators::keyword_dfa(&[b"ab"]).unwrap();
        let q = lookback_queue(&d, b"zz");
        // All states collapse to the root after two junk bytes.
        assert_eq!(q.initial_len(), 1);
        assert_eq!(q.front(), Some(d.run_from(d.start(), b"zz")));
    }

    #[test]
    fn chunk0_is_certain() {
        let d = div7();
        let input = b"1010101010101010";
        let chunks = partition(input.len(), 4);
        let pred = predict(&d, input, &chunks, 2, &DeviceSpec::test_unit());
        assert_eq!(pred.queues[0].initial_len(), 1);
        assert_eq!(pred.queues[0].front(), Some(d.start()));
    }

    #[test]
    fn prediction_kernel_has_cost() {
        let d = div7();
        let input = b"10101010101010101010101010101010";
        let chunks = partition(input.len(), 8);
        let pred = predict(&d, input, &chunks, 2, &DeviceSpec::test_unit());
        assert!(pred.stats.cycles > 0);
        assert!(pred.stats.shared_accesses > 0);
    }

    #[test]
    fn boundaries_inside_the_lookback_window_still_contain_truth() {
        // A chunk starting at position 1 has a 1-byte window; containment
        // must hold regardless.
        let d = div7();
        let input = b"101101";
        let chunks = vec![0..1, 1..3, 3..6];
        let pred = predict(&d, input, &chunks, 2, &DeviceSpec::test_unit());
        for (i, c) in chunks.iter().enumerate() {
            let truth = d.run(&input[..c.start]);
            assert!(pred.queues[i].candidates().any(|s| s == truth), "chunk {i}");
        }
    }

    #[test]
    fn empty_window_yields_identity_queue() {
        // A zero-length window maps every state to itself: |Q| candidates.
        let d = div7();
        let q = lookback_queue(&d, b"");
        assert_eq!(q.initial_len(), 7);
    }
}
