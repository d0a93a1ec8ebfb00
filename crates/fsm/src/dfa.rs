//! Dense-table deterministic finite automata.
//!
//! The layout mirrors Figure 1(b) of the paper: a `states × alphabet` table
//! where `table[s * stride + class]` is the successor of state `s` on a byte
//! of the given class. All transitions are total (there is no implicit dead
//! state — machines that need one allocate it explicitly), which matches the
//! paper's assumption that every step is exactly one table lookup.

use crate::classes::ByteClasses;
use crate::FsmError;

/// Identifier of a DFA state. Dense, `0..n_states`.
pub type StateId = u32;

/// A deterministic finite automaton over bytes.
#[derive(Clone, PartialEq, Eq)]
pub struct Dfa {
    start: StateId,
    classes: ByteClasses,
    stride: usize,
    n_states: u32,
    table: Box<[StateId]>,
    accepting: Box<[bool]>,
}

impl std::fmt::Debug for Dfa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dfa")
            .field("n_states", &self.n_states)
            .field("alphabet", &self.classes.len())
            .field("start", &self.start)
            .field("n_accepting", &self.accepting.iter().filter(|&&a| a).count())
            .finish()
    }
}

impl Dfa {
    /// Number of states.
    #[inline(always)]
    pub fn n_states(&self) -> u32 {
        self.n_states
    }

    /// Effective alphabet size (number of byte classes).
    #[inline(always)]
    pub fn alphabet_len(&self) -> u16 {
        self.classes.len()
    }

    /// Table stride (equals the alphabet size).
    #[inline(always)]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The initial state `q0`.
    #[inline(always)]
    pub fn start(&self) -> StateId {
        self.start
    }

    /// The byte-class map used by this machine.
    #[inline(always)]
    pub fn classes(&self) -> &ByteClasses {
        &self.classes
    }

    /// The raw transition table (`n_states * stride` entries).
    #[inline(always)]
    pub fn table(&self) -> &[StateId] {
        &self.table
    }

    /// Whether `s` is an accepting state.
    #[inline(always)]
    pub fn is_accepting(&self, s: StateId) -> bool {
        self.accepting[s as usize]
    }

    /// Successor of `s` on input byte `b`: one table lookup, exactly the
    /// `state = Table[state][symbol]` operation of §IV-B.
    #[inline(always)]
    pub fn next(&self, s: StateId, b: u8) -> StateId {
        let class = self.classes.class(b) as usize;
        self.table[s as usize * self.stride + class]
    }

    /// Successor of `s` on an already-classified symbol.
    #[inline(always)]
    pub fn next_by_class(&self, s: StateId, class: u16) -> StateId {
        self.table[s as usize * self.stride + class as usize]
    }

    /// Runs the DFA from its start state over `input`, returning the end
    /// state. This is the sequential `FSM_Processing` of Algorithm 1.
    pub fn run(&self, input: &[u8]) -> StateId {
        self.run_from(self.start, input)
    }

    /// Runs from an arbitrary state — the primitive every speculative scheme
    /// is built on (`FSM_Processing(fsm, Π(i), state)` in Algorithms 2-5).
    pub fn run_from(&self, mut s: StateId, input: &[u8]) -> StateId {
        for &b in input {
            s = self.next(s, b);
        }
        s
    }

    /// Runs from `s` and records the state after every symbol.
    pub fn run_trace(&self, s: StateId, input: &[u8]) -> Vec<StateId> {
        let mut cur = s;
        let mut trace = Vec::with_capacity(input.len());
        for &b in input {
            cur = self.next(cur, b);
            trace.push(cur);
        }
        trace
    }

    /// Accept/reject decision for a full input (the paper's output function
    /// `φ` invoked once at the end, §II-A).
    pub fn accepts(&self, input: &[u8]) -> bool {
        self.is_accepting(self.run(input))
    }

    /// Counts positions at which the machine is in an accepting state while
    /// scanning `input` from the start state. This is the "number of matches"
    /// notion used by the pattern-matching examples (unanchored search DFAs
    /// report a match every time they enter an accepting state).
    pub fn count_matches(&self, input: &[u8]) -> u64 {
        let mut s = self.start;
        let mut n = 0u64;
        for &b in input {
            s = self.next(s, b);
            n += u64::from(self.accepting[s as usize]);
        }
        n
    }

    /// Streams over `input` from the start state, yielding
    /// `(position, state_after, is_accepting)` for every byte — the
    /// ergonomic way to enumerate match end-positions of a search DFA.
    ///
    /// ```
    /// use gspecpal_fsm::combinators::keyword_dfa;
    ///
    /// let d = keyword_dfa(&[b"ab"]).unwrap();
    /// let ends: Vec<usize> = d
    ///     .scan_iter(b"abxab")
    ///     .filter(|&(_, _, hit)| hit)
    ///     .map(|(pos, _, _)| pos)
    ///     .collect();
    /// assert_eq!(ends, vec![1, 4]);
    /// ```
    pub fn scan_iter<'a>(&'a self, input: &'a [u8]) -> ScanIter<'a> {
        ScanIter { dfa: self, input, pos: 0, state: self.start }
    }

    /// A shortest accepted input, if any (BFS over reachable states; ties
    /// broken by smallest byte-class representative).
    pub fn shortest_accepted(&self) -> Option<Vec<u8>> {
        let reps = self.classes.representatives();
        let mut parent: Vec<Option<(StateId, u8)>> = vec![None; self.n_states as usize];
        let mut seen = vec![false; self.n_states as usize];
        let mut queue = std::collections::VecDeque::new();
        seen[self.start as usize] = true;
        queue.push_back(self.start);
        let mut hit = if self.is_accepting(self.start) { Some(self.start) } else { None };
        'bfs: while let Some(s) = queue.pop_front() {
            if hit.is_some() {
                break;
            }
            for (c, &rep) in reps.iter().enumerate() {
                let t = self.next_by_class(s, c as u16);
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    parent[t as usize] = Some((s, rep));
                    if self.is_accepting(t) {
                        hit = Some(t);
                        break 'bfs;
                    }
                    queue.push_back(t);
                }
            }
        }
        let mut cur = hit?;
        let mut path = Vec::new();
        while let Some((p, b)) = parent[cur as usize] {
            path.push(b);
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    /// Relabels states by `perm` where `perm[old] = new`. `perm` must be a
    /// permutation of `0..n_states`. Used by the frequency-based
    /// transformation (§IV-B) and by minimization.
    pub fn permute(&self, perm: &[StateId]) -> Result<Dfa, FsmError> {
        if perm.len() != self.n_states as usize {
            return Err(FsmError::InvalidState {
                state: perm.len() as StateId,
                n_states: self.n_states,
            });
        }
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            if p as usize >= perm.len() || seen[p as usize] {
                return Err(FsmError::InvalidState { state: p, n_states: self.n_states });
            }
            seen[p as usize] = true;
        }
        let mut table = vec![0 as StateId; self.table.len()].into_boxed_slice();
        let mut accepting = vec![false; self.n_states as usize].into_boxed_slice();
        for old in 0..self.n_states as usize {
            let new = perm[old] as usize;
            accepting[new] = self.accepting[old];
            for c in 0..self.stride {
                table[new * self.stride + c] = perm[self.table[old * self.stride + c] as usize];
            }
        }
        Ok(Dfa {
            start: perm[self.start as usize],
            classes: self.classes.clone(),
            stride: self.stride,
            n_states: self.n_states,
            table,
            accepting,
        })
    }
}

/// Iterator over a DFA's states while scanning an input; see
/// [`Dfa::scan_iter`].
pub struct ScanIter<'a> {
    dfa: &'a Dfa,
    input: &'a [u8],
    pos: usize,
    state: StateId,
}

impl Iterator for ScanIter<'_> {
    type Item = (usize, StateId, bool);

    fn next(&mut self) -> Option<Self::Item> {
        let &b = self.input.get(self.pos)?;
        self.state = self.dfa.next(self.state, b);
        let item = (self.pos, self.state, self.dfa.is_accepting(self.state));
        self.pos += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.input.len() - self.pos;
        (rest, Some(rest))
    }
}

impl ExactSizeIterator for ScanIter<'_> {}

/// Incremental builder for [`Dfa`].
///
/// ```
/// use gspecpal_fsm::{DfaBuilder, ByteClasses};
///
/// // Two states toggling on any byte; state 1 accepts (odd-length inputs).
/// let mut b = DfaBuilder::new(ByteClasses::refine(|_, _| false));
/// let s0 = b.add_state(false);
/// let s1 = b.add_state(true);
/// b.set_transition(s0, 0, s1).unwrap();
/// b.set_transition(s1, 0, s0).unwrap();
/// let dfa = b.build(s0).unwrap();
/// assert!(dfa.accepts(b"x"));
/// assert!(!dfa.accepts(b"xy"));
/// ```
#[derive(Clone, Debug)]
pub struct DfaBuilder {
    classes: ByteClasses,
    rows: Vec<Vec<Option<StateId>>>,
    accepting: Vec<bool>,
}

impl DfaBuilder {
    /// Creates a builder over the given byte classes.
    pub fn new(classes: ByteClasses) -> Self {
        DfaBuilder { classes, rows: Vec::new(), accepting: Vec::new() }
    }

    /// Adds a state, returning its id.
    pub fn add_state(&mut self, accepting: bool) -> StateId {
        let id = self.rows.len() as StateId;
        self.rows.push(vec![None; self.classes.len() as usize]);
        self.accepting.push(accepting);
        id
    }

    /// Number of states added so far.
    pub fn n_states(&self) -> u32 {
        self.rows.len() as u32
    }

    /// Marks a state accepting (or not).
    pub fn set_accepting(&mut self, s: StateId, accepting: bool) -> Result<(), FsmError> {
        let slot = self
            .accepting
            .get_mut(s as usize)
            .ok_or(FsmError::InvalidState { state: s, n_states: self.rows.len() as u32 })?;
        *slot = accepting;
        Ok(())
    }

    /// Sets `δ(from, class) = to`.
    pub fn set_transition(
        &mut self,
        from: StateId,
        class: u16,
        to: StateId,
    ) -> Result<(), FsmError> {
        let n = self.rows.len() as u32;
        if from as usize >= self.rows.len() {
            return Err(FsmError::InvalidState { state: from, n_states: n });
        }
        if to as usize >= self.rows.len() {
            return Err(FsmError::InvalidState { state: to, n_states: n });
        }
        if class >= self.classes.len() {
            return Err(FsmError::InvalidClass { class, n_classes: self.classes.len() });
        }
        self.rows[from as usize][class as usize] = Some(to);
        Ok(())
    }

    /// Sets every still-undefined transition out of `from` to `to`.
    pub fn set_default_transition(&mut self, from: StateId, to: StateId) -> Result<(), FsmError> {
        let n = self.rows.len() as u32;
        if from as usize >= self.rows.len() {
            return Err(FsmError::InvalidState { state: from, n_states: n });
        }
        if to as usize >= self.rows.len() {
            return Err(FsmError::InvalidState { state: to, n_states: n });
        }
        for slot in &mut self.rows[from as usize] {
            if slot.is_none() {
                *slot = Some(to);
            }
        }
        Ok(())
    }

    /// Finalizes the machine. Every transition must be defined.
    pub fn build(self, start: StateId) -> Result<Dfa, FsmError> {
        let n_states = self.rows.len() as u32;
        if n_states == 0 {
            return Err(FsmError::Empty);
        }
        if start >= n_states {
            return Err(FsmError::InvalidState { state: start, n_states });
        }
        let stride = self.classes.len() as usize;
        let mut table = Vec::with_capacity(self.rows.len() * stride);
        for (s, row) in self.rows.iter().enumerate() {
            for (c, slot) in row.iter().enumerate() {
                match slot {
                    Some(t) => table.push(*t),
                    // An undefined transition: report which state is partial.
                    None => {
                        let _ = c;
                        return Err(FsmError::InvalidState { state: s as StateId, n_states });
                    }
                }
            }
        }
        Ok(Dfa {
            start,
            classes: self.classes,
            stride,
            n_states,
            table: table.into_boxed_slice(),
            accepting: self.accepting.into_boxed_slice(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::div7;

    #[test]
    fn builder_rejects_missing_transitions() {
        let mut b = DfaBuilder::new(ByteClasses::identity());
        let s0 = b.add_state(false);
        b.set_transition(s0, u16::from(b'a'), s0).unwrap();
        assert!(b.build(s0).is_err());
    }

    #[test]
    fn builder_rejects_bad_ids() {
        let mut b = DfaBuilder::new(ByteClasses::identity());
        let s0 = b.add_state(false);
        assert!(b.set_transition(s0, 0, 99).is_err());
        assert!(b.set_transition(99, 0, s0).is_err());
        assert!(b.set_accepting(99, true).is_err());
    }

    #[test]
    fn builder_rejects_bad_start() {
        let mut b = DfaBuilder::new(ByteClasses::identity());
        let s0 = b.add_state(false);
        b.set_default_transition(s0, s0).unwrap();
        assert!(b.build(7).is_err());
    }

    #[test]
    fn empty_machine_is_rejected() {
        let b = DfaBuilder::new(ByteClasses::identity());
        assert!(matches!(b.build(0), Err(FsmError::Empty)));
    }

    #[test]
    fn run_trace_matches_run() {
        let d = div7();
        let input = b"1011010111001";
        let trace = d.run_trace(d.start(), input);
        assert_eq!(trace.len(), input.len());
        assert_eq!(*trace.last().unwrap(), d.run(input));
    }

    #[test]
    fn run_from_composes_over_splits() {
        let d = div7();
        let input = b"110101001101011";
        for split in 0..=input.len() {
            let (a, b) = input.split_at(split);
            let mid = d.run_from(d.start(), a);
            assert_eq!(d.run_from(mid, b), d.run(input));
        }
    }

    #[test]
    fn permute_preserves_language() {
        let d = div7();
        let n = d.n_states();
        // Reverse permutation.
        let perm: Vec<StateId> = (0..n).map(|s| n - 1 - s).collect();
        let p = d.permute(&perm).unwrap();
        for input in [&b"110"[..], b"111", b"0", b"1001", b"1110101"] {
            assert_eq!(d.accepts(input), p.accepts(input), "input {input:?}");
            assert_eq!(perm[d.run(input) as usize], p.run(input));
        }
    }

    #[test]
    fn permute_rejects_non_permutations() {
        let d = div7();
        let bad = vec![0 as StateId; d.n_states() as usize];
        assert!(d.permute(&bad).is_err());
        let short = vec![0 as StateId; 2];
        assert!(d.permute(&short).is_err());
    }

    #[test]
    fn scan_iter_agrees_with_run_trace() {
        let d = div7();
        let input = b"1011010111001";
        let trace = d.run_trace(d.start(), input);
        let scanned: Vec<StateId> = d.scan_iter(input).map(|(_, s, _)| s).collect();
        assert_eq!(scanned, trace);
        assert_eq!(d.scan_iter(input).len(), input.len());
        assert_eq!(d.scan_iter(b"").next(), None);
    }

    #[test]
    fn scan_iter_hits_equal_count_matches() {
        let d = div7();
        let input = b"110101011010010101110";
        let by_iter = d.scan_iter(input).filter(|&(_, _, hit)| hit).count() as u64;
        assert_eq!(by_iter, d.count_matches(input));
    }

    #[test]
    fn shortest_accepted_finds_minimal_witnesses() {
        let d = div7();
        // The empty string: 0 bits consumed, start state accepts.
        assert_eq!(d.shortest_accepted(), Some(vec![]));
        // A machine accepting only after seeing 'a' then 'b'.
        let d2 = {
            let classes = ByteClasses::refine(|x, y| {
                (x == b'a') != (y == b'a') || (x == b'b') != (y == b'b')
            });
            let (a, b_) = (classes.class(b'a'), classes.class(b'b'));
            let mut b = DfaBuilder::new(classes);
            let s0 = b.add_state(false);
            let s1 = b.add_state(false);
            let s2 = b.add_state(true);
            b.set_transition(s0, a, s1).unwrap();
            b.set_transition(s1, b_, s2).unwrap();
            b.set_default_transition(s0, s0).unwrap();
            b.set_default_transition(s1, s0).unwrap();
            b.set_default_transition(s2, s2).unwrap();
            b.build(s0).unwrap()
        };
        let w = d2.shortest_accepted().unwrap();
        assert_eq!(w.len(), 2);
        assert!(d2.accepts(&w));
    }

    #[test]
    fn empty_language_detected() {
        let mut b = DfaBuilder::new(ByteClasses::refine(|_, _| false));
        let s0 = b.add_state(false);
        b.set_transition(s0, 0, s0).unwrap();
        let d = b.build(s0).unwrap();
        assert_eq!(d.shortest_accepted(), None);
    }

    #[test]
    fn count_matches_counts_accepting_visits() {
        // Machine accepting whenever the last byte was 'a'.
        let mut b = DfaBuilder::new(ByteClasses::refine(|x, y| (x == b'a') != (y == b'a')));
        let other = b.add_state(false);
        let hit = b.add_state(true);
        let ca = b.classes.class(b'a');
        let cz = 1 - ca;
        b.set_transition(other, ca, hit).unwrap();
        b.set_transition(other, cz, other).unwrap();
        b.set_transition(hit, ca, hit).unwrap();
        b.set_transition(hit, cz, other).unwrap();
        let d = b.build(other).unwrap();
        assert_eq!(d.count_matches(b"abcabca"), 3);
        assert_eq!(d.count_matches(b"zzz"), 0);
    }
}
