//! Non-deterministic finite automata with epsilon transitions.
//!
//! NFAs are the intermediate representation the regex compiler produces
//! (Thompson construction) before determinization, and they also exhibit the
//! *state-level parallelism* of Algorithm 1 lines 9-10: simulation keeps a
//! set of active states and advances all of them on each symbol.

use crate::dfa::StateId;

/// A byte-range transition `lo..=hi -> target`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ByteRange {
    /// Lowest byte matched (inclusive).
    pub lo: u8,
    /// Highest byte matched (inclusive).
    pub hi: u8,
    /// Successor state.
    pub target: StateId,
}

/// One NFA state: byte-range transitions plus epsilon edges.
#[derive(Clone, Debug, Default)]
pub struct NfaState {
    /// Byte-range transitions out of this state.
    pub ranges: Vec<ByteRange>,
    /// Epsilon (input-free) transitions out of this state.
    pub epsilons: Vec<StateId>,
    /// Whether this state accepts.
    pub accepting: bool,
}

/// A non-deterministic finite automaton over bytes.
#[derive(Clone, Debug)]
pub struct Nfa {
    states: Vec<NfaState>,
    start: StateId,
}

impl Nfa {
    /// Number of states.
    pub fn n_states(&self) -> u32 {
        self.states.len() as u32
    }

    /// The initial state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Immutable access to a state.
    pub fn state(&self, s: StateId) -> &NfaState {
        &self.states[s as usize]
    }

    /// Iterates over all states.
    pub fn states(&self) -> impl Iterator<Item = (StateId, &NfaState)> {
        self.states.iter().enumerate().map(|(i, s)| (i as StateId, s))
    }

    /// Epsilon-closure of a set of states, returned sorted and deduplicated.
    pub fn epsilon_closure(&self, set: &[StateId]) -> Vec<StateId> {
        let mut seen = vec![false; self.states.len()];
        let mut stack: Vec<StateId> = Vec::with_capacity(set.len());
        for &s in set {
            if !seen[s as usize] {
                seen[s as usize] = true;
                stack.push(s);
            }
        }
        let mut out = Vec::new();
        while let Some(s) = stack.pop() {
            out.push(s);
            for &e in &self.states[s as usize].epsilons {
                if !seen[e as usize] {
                    seen[e as usize] = true;
                    stack.push(e);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Advances a (closed) state set on one byte, returning the epsilon
    /// closure of the successors. Lines 9-12 of Algorithm 1.
    pub fn step(&self, set: &[StateId], b: u8) -> Vec<StateId> {
        let mut next: Vec<StateId> = Vec::new();
        for &s in set {
            for r in &self.states[s as usize].ranges {
                if r.lo <= b && b <= r.hi {
                    next.push(r.target);
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        self.epsilon_closure(&next)
    }

    /// Simulates the NFA on `input` from the start state; returns the final
    /// active set (may be empty if the machine dies).
    pub fn simulate(&self, input: &[u8]) -> Vec<StateId> {
        let mut set = self.epsilon_closure(&[self.start]);
        for &b in input {
            if set.is_empty() {
                break;
            }
            set = self.step(&set, b);
        }
        set
    }

    /// True iff some state in the final active set accepts.
    pub fn accepts(&self, input: &[u8]) -> bool {
        self.simulate(input).iter().any(|&s| self.states[s as usize].accepting)
    }

    /// Whether any state in `set` accepts.
    pub fn any_accepting(&self, set: &[StateId]) -> bool {
        set.iter().any(|&s| self.states[s as usize].accepting)
    }
}

/// Mutable builder for [`Nfa`].
#[derive(Clone, Debug, Default)]
pub struct NfaBuilder {
    states: Vec<NfaState>,
}

impl NfaBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a state; returns its id.
    pub fn add_state(&mut self, accepting: bool) -> StateId {
        let id = self.states.len() as StateId;
        self.states.push(NfaState { ranges: Vec::new(), epsilons: Vec::new(), accepting });
        id
    }

    /// Number of states so far.
    pub fn n_states(&self) -> u32 {
        self.states.len() as u32
    }

    /// Adds a byte-range transition.
    pub fn add_range(&mut self, from: StateId, lo: u8, hi: u8, to: StateId) {
        assert!(lo <= hi, "empty byte range");
        self.states[from as usize].ranges.push(ByteRange { lo, hi, target: to });
    }

    /// Adds an epsilon transition.
    pub fn add_epsilon(&mut self, from: StateId, to: StateId) {
        self.states[from as usize].epsilons.push(to);
    }

    /// Marks a state accepting.
    pub fn set_accepting(&mut self, s: StateId, accepting: bool) {
        self.states[s as usize].accepting = accepting;
    }

    /// Finalizes with the given start state.
    pub fn build(self, start: StateId) -> Nfa {
        assert!(
            (start as usize) < self.states.len(),
            "start state {start} out of range ({} states)",
            self.states.len()
        );
        Nfa { states: self.states, start }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// NFA for `.*ab` (unanchored "ends with ab").
    fn ends_with_ab() -> Nfa {
        let mut b = NfaBuilder::new();
        let s0 = b.add_state(false);
        let s1 = b.add_state(false);
        let s2 = b.add_state(true);
        b.add_range(s0, 0, 255, s0);
        b.add_range(s0, b'a', b'a', s1);
        b.add_range(s1, b'b', b'b', s2);
        b.build(s0)
    }

    #[test]
    fn simulate_tracks_multiple_states() {
        let n = ends_with_ab();
        assert!(n.accepts(b"xxab"));
        assert!(n.accepts(b"ab"));
        assert!(!n.accepts(b"ba"));
        assert!(!n.accepts(b"a"));
        assert!(n.accepts(b"aab"));
    }

    #[test]
    fn epsilon_closure_follows_chains() {
        let mut b = NfaBuilder::new();
        let s0 = b.add_state(false);
        let s1 = b.add_state(false);
        let s2 = b.add_state(true);
        b.add_epsilon(s0, s1);
        b.add_epsilon(s1, s2);
        let n = b.build(s0);
        assert_eq!(n.epsilon_closure(&[s0]), vec![s0, s1, s2]);
        // Empty input already accepts through the chain.
        assert!(n.accepts(b""));
    }

    #[test]
    fn epsilon_closure_handles_cycles() {
        let mut b = NfaBuilder::new();
        let s0 = b.add_state(false);
        let s1 = b.add_state(true);
        b.add_epsilon(s0, s1);
        b.add_epsilon(s1, s0);
        let n = b.build(s0);
        assert_eq!(n.epsilon_closure(&[s0]), vec![s0, s1]);
    }

    #[test]
    fn dead_set_stays_dead() {
        let mut b = NfaBuilder::new();
        let s0 = b.add_state(false);
        let s1 = b.add_state(true);
        b.add_range(s0, b'a', b'a', s1);
        let n = b.build(s0);
        assert!(n.simulate(b"ba").is_empty());
        assert!(!n.accepts(b"ba"));
    }

    #[test]
    fn range_transition_bounds_inclusive() {
        let mut b = NfaBuilder::new();
        let s0 = b.add_state(false);
        let s1 = b.add_state(true);
        b.add_range(s0, b'a', b'c', s1);
        let n = b.build(s0);
        assert!(n.accepts(b"a"));
        assert!(n.accepts(b"b"));
        assert!(n.accepts(b"c"));
        assert!(!n.accepts(b"d"));
    }
}
