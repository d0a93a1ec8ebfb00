//! NFA → DFA determinization (subset construction).
//!
//! Every NFA can be converted to an equivalent DFA (§II-A cites Hopcroft &
//! Ullman); the paper's evaluation compiles its regex rule sets to DFAs this
//! way (via RE2). We first compute byte equivalence classes from the NFA's
//! transition ranges so the resulting table stride is minimal, then run the
//! standard worklist subset construction over epsilon closures.

use std::collections::HashMap;

use crate::classes::ByteClasses;
use crate::dfa::{Dfa, DfaBuilder, StateId};
use crate::nfa::Nfa;
use crate::FsmError;

/// Upper bound on produced DFA states, to keep pathological regexes from
/// exploding during workload generation.
pub const DEFAULT_STATE_LIMIT: usize = 1 << 20;

/// Computes byte classes for an NFA: two bytes are equivalent iff every
/// transition range contains both or neither.
pub fn nfa_byte_classes(nfa: &Nfa) -> ByteClasses {
    // Mark range boundaries: a class boundary occurs at `lo` and after `hi`.
    let mut boundary = [false; 257];
    boundary[0] = true;
    for (_, st) in nfa.states() {
        for r in &st.ranges {
            boundary[r.lo as usize] = true;
            boundary[r.hi as usize + 1] = true;
        }
    }
    let mut map = [0u8; 256];
    let mut class: i32 = -1;
    for b in 0..256usize {
        if boundary[b] {
            class += 1;
        }
        map[b] = class as u8;
    }
    ByteClasses::from_map(map)
}

/// Determinizes `nfa` into a [`Dfa`] with at most `state_limit` states.
///
/// Subset states with an empty NFA set collapse into an explicit dead state
/// so the resulting transition function stays total (the paper's DFAs always
/// have a defined successor — one table lookup per input symbol).
pub fn determinize_with_limit(nfa: &Nfa, state_limit: usize) -> Result<Dfa, FsmError> {
    let classes = nfa_byte_classes(nfa);
    let reps = classes.representatives();
    let n_classes = classes.len();

    let mut builder = DfaBuilder::new(classes.clone());
    let mut index: HashMap<Vec<StateId>, StateId> = HashMap::new();
    let mut worklist: Vec<(StateId, Vec<StateId>)> = Vec::new();

    let start_set = nfa.epsilon_closure(&[nfa.start()]);
    let start = builder.add_state(nfa.any_accepting(&start_set));
    index.insert(start_set.clone(), start);
    worklist.push((start, start_set));

    // Lazily-allocated dead state for the empty subset.
    let mut dead: Option<StateId> = None;

    while let Some((did, set)) = worklist.pop() {
        for c in 0..n_classes {
            let b = reps[c as usize];
            let next = nfa.step(&set, b);
            let target = if next.is_empty() {
                *dead.get_or_insert_with(|| builder.add_state(false))
            } else if let Some(&t) = index.get(&next) {
                t
            } else {
                if builder.n_states() as usize >= state_limit {
                    return Err(FsmError::TooManyStates { limit: state_limit });
                }
                let t = builder.add_state(nfa.any_accepting(&next));
                index.insert(next.clone(), t);
                worklist.push((t, next.clone()));
                t
            };
            builder.set_transition(did, c, target)?;
        }
    }

    // Complete the dead state's row if it was allocated.
    if let Some(d) = dead {
        builder.set_default_transition(d, d)?;
    }
    builder.build(start)
}

/// Determinizes with the default state budget.
pub fn determinize(nfa: &Nfa) -> Result<Dfa, FsmError> {
    determinize_with_limit(nfa, DEFAULT_STATE_LIMIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::NfaBuilder;

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
    fn determinized_machine_agrees_with_nfa() {
        let n = ends_with_ab();
        let d = determinize(&n).unwrap();
        for input in [&b""[..], b"ab", b"xxab", b"aab", b"ba", b"a", b"abab", b"abba", b"zzzzzab"] {
            assert_eq!(n.accepts(input), d.accepts(input), "input {input:?}");
        }
    }

    #[test]
    fn byte_classes_collapse_unused_bytes() {
        let n = ends_with_ab();
        let d = determinize(&n).unwrap();
        // Ranges: full 0..=255, 'a', 'b' => classes {<a}, {a}, {b}, {>b} = 4.
        assert!(d.alphabet_len() <= 4, "alphabet was {}", d.alphabet_len());
    }

    #[test]
    fn dead_state_is_total() {
        // NFA for exactly "a": dies on anything else.
        let mut b = NfaBuilder::new();
        let s0 = b.add_state(false);
        let s1 = b.add_state(true);
        b.add_range(s0, b'a', b'a', s1);
        let n = b.build(s0);
        let d = determinize(&n).unwrap();
        assert!(d.accepts(b"a"));
        assert!(!d.accepts(b"ab"));
        assert!(!d.accepts(b"b"));
        // The DFA is total: running a long garbage string never panics.
        let junk = vec![b'q'; 1000];
        let _ = d.run(&junk);
    }

    #[test]
    fn epsilon_only_nfa() {
        let mut b = NfaBuilder::new();
        let s0 = b.add_state(false);
        let s1 = b.add_state(true);
        b.add_epsilon(s0, s1);
        let n = b.build(s0);
        let d = determinize(&n).unwrap();
        assert!(d.accepts(b""));
        assert!(!d.accepts(b"a"));
    }

    #[test]
    fn state_limit_enforced() {
        // NFA whose DFA needs 2^8 states: "8th symbol from the end is 'a'".
        let mut b = NfaBuilder::new();
        let s0 = b.add_state(false);
        b.add_range(s0, 0, 255, s0);
        let mut prev = b.add_state(false);
        b.add_range(s0, b'a', b'a', prev);
        for _ in 0..7 {
            let nx = b.add_state(false);
            b.add_range(prev, 0, 255, nx);
            prev = nx;
        }
        b.set_accepting(prev, true);
        let n = b.build(s0);
        assert!(matches!(
            determinize_with_limit(&n, 16),
            Err(FsmError::TooManyStates { limit: 16 })
        ));
        // And with a generous limit it succeeds and agrees with the NFA.
        let d = determinize(&n).unwrap();
        assert!(d.accepts(b"a0000000"));
        assert!(!d.accepts(b"b0000000"));
    }
}
