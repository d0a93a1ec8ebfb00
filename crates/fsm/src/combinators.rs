//! FSM combinators used to construct workload machines.
//!
//! The synthetic benchmark tiers (see `gspecpal-workloads`) are built from
//! three ingredients: keyword-set matchers (Aho-Corasick automata — the shape
//! of Snort/ClamAV signature DFAs), modular counters (div7-like permutation
//! components that defeat state convergence), and products of the two.

use std::collections::{HashMap, VecDeque};

use crate::classes::ByteClasses;
use crate::dfa::{Dfa, DfaBuilder, StateId};
use crate::FsmError;

/// How a product machine decides acceptance from its two components.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProductAccept {
    /// Accepts when both components accept (intersection).
    Both,
    /// Accepts when either component accepts (union).
    Either,
    /// Accepts when the first accepts, ignoring the second. Useful when the
    /// second component only exists to carry non-convergent mode state.
    First,
    /// Accepts when exactly one component accepts (symmetric difference).
    Xor,
}

impl ProductAccept {
    fn apply(self, a: bool, b: bool) -> bool {
        match self {
            ProductAccept::Both => a && b,
            ProductAccept::Either => a || b,
            ProductAccept::First => a,
            ProductAccept::Xor => a != b,
        }
    }
}

/// Builds the product automaton of `a` and `b`, restricted to states
/// reachable from the pair of start states.
///
/// The product inherits non-convergence from either factor: if `b` is a
/// permutation automaton (e.g. a mod-m counter), no two product states with
/// different `b`-components ever merge — the structural trick the paper's
/// hard benchmarks rely on (cf. div7 in Figure 1).
pub fn product(a: &Dfa, b: &Dfa, accept: ProductAccept) -> Result<Dfa, FsmError> {
    let ca = a.classes().clone();
    let cb = b.classes().clone();
    let classes =
        ByteClasses::refine(|x, y| ca.class(x) != ca.class(y) || cb.class(x) != cb.class(y));
    let reps = classes.representatives();

    let mut builder = DfaBuilder::new(classes.clone());
    let mut index: HashMap<(StateId, StateId), StateId> = HashMap::new();
    let mut queue: VecDeque<(StateId, StateId)> = VecDeque::new();

    let start_pair = (a.start(), b.start());
    let start =
        builder.add_state(accept.apply(a.is_accepting(a.start()), b.is_accepting(b.start())));
    index.insert(start_pair, start);
    queue.push_back(start_pair);

    while let Some((sa, sb)) = queue.pop_front() {
        let from = index[&(sa, sb)];
        for (c, &rep) in reps.iter().enumerate() {
            let ta = a.next(sa, rep);
            let tb = b.next(sb, rep);
            let to = match index.get(&(ta, tb)) {
                Some(&t) => t,
                None => {
                    let t = builder.add_state(accept.apply(a.is_accepting(ta), b.is_accepting(tb)));
                    index.insert((ta, tb), t);
                    queue.push_back((ta, tb));
                    t
                }
            };
            builder.set_transition(from, c as u16, to)?;
        }
    }
    builder.build(start)
}

/// Union of two machines (accepts when either accepts).
pub fn union(a: &Dfa, b: &Dfa) -> Result<Dfa, FsmError> {
    product(a, b, ProductAccept::Either)
}

/// Intersection of two machines.
pub fn intersection(a: &Dfa, b: &Dfa) -> Result<Dfa, FsmError> {
    product(a, b, ProductAccept::Both)
}

/// Complement: accepting states flipped.
pub fn complement(dfa: &Dfa) -> Dfa {
    let mut builder = DfaBuilder::new(dfa.classes().clone());
    for s in 0..dfa.n_states() {
        builder.add_state(!dfa.is_accepting(s));
    }
    for s in 0..dfa.n_states() {
        for c in 0..dfa.alphabet_len() {
            builder.set_transition(s, c, dfa.next_by_class(s, c)).expect("same shape");
        }
    }
    builder.build(dfa.start()).expect("same shape")
}

/// Builds an Aho-Corasick keyword matcher as a dense DFA: the machine is in
/// an accepting state whenever the bytes consumed so far end with one of
/// `keywords`. This is the canonical shape of signature-matching DFAs
/// (Snort/ClamAV rules compiled by RE2 produce exactly this structure for
/// literal patterns).
///
/// Keyword DFAs converge quickly on inputs where matches are sparse: almost
/// every state falls back towards the root within a few bytes, which is what
/// makes predecessor-end-state speculation (SRE) and lookback prediction
/// accurate on them.
///
/// ```
/// use gspecpal_fsm::combinators::keyword_dfa;
///
/// let d = keyword_dfa(&[b"he", b"she"]).unwrap();
/// assert!(d.accepts(b"she"));          // ends with "she" (and "he")
/// assert_eq!(d.count_matches(b"she he"), 2); // one accepting visit per end position
/// ```
pub fn keyword_dfa(keywords: &[&[u8]]) -> Result<Dfa, FsmError> {
    assert!(!keywords.is_empty(), "need at least one keyword");
    assert!(keywords.iter().all(|k| !k.is_empty()), "keywords must be non-empty");

    // Byte classes: each byte appearing in some keyword is its own class;
    // everything else shares one.
    let mut used = [false; 256];
    for k in keywords {
        for &b in *k {
            used[b as usize] = true;
        }
    }
    let classes = ByteClasses::refine(|x, y| {
        let ux = used[x as usize];
        let uy = used[y as usize];
        ux != uy || (ux && x != y)
    });

    // Trie construction.
    let mut children: Vec<HashMap<u16, usize>> = vec![HashMap::new()];
    let mut output: Vec<bool> = vec![false];
    for k in keywords {
        let mut node = 0usize;
        for &b in *k {
            let c = classes.class(b);
            node = match children[node].get(&c) {
                Some(&n) => n,
                None => {
                    children.push(HashMap::new());
                    output.push(false);
                    let n = children.len() - 1;
                    children[node].insert(c, n);
                    n
                }
            };
        }
        output[node] = true;
    }

    // BFS failure links + dense goto table + output propagation.
    let n_nodes = children.len();
    let n_classes = classes.len() as usize;
    let mut fail = vec![0usize; n_nodes];
    let mut goto = vec![0usize; n_nodes * n_classes];
    let mut queue = VecDeque::new();
    #[allow(clippy::needless_range_loop)]
    for c in 0..n_classes {
        match children[0].get(&(c as u16)) {
            Some(&child) => {
                fail[child] = 0;
                goto[c] = child;
                queue.push_back(child);
            }
            None => goto[c] = 0,
        }
    }
    while let Some(node) = queue.pop_front() {
        output[node] = output[node] || output[fail[node]];
        #[allow(clippy::needless_range_loop)]
        for c in 0..n_classes {
            match children[node].get(&(c as u16)) {
                Some(&child) => {
                    fail[child] = goto[fail[node] * n_classes + c];
                    goto[node * n_classes + c] = child;
                    queue.push_back(child);
                }
                None => {
                    goto[node * n_classes + c] = goto[fail[node] * n_classes + c];
                }
            }
        }
    }

    let mut builder = DfaBuilder::new(classes);
    for &accepting in output.iter().take(n_nodes) {
        builder.add_state(accepting);
    }
    for node in 0..n_nodes {
        for c in 0..n_classes {
            builder.set_transition(
                node as StateId,
                c as u16,
                goto[node * n_classes + c] as StateId,
            )?;
        }
    }
    builder.build(0)
}

/// A sliding-window (de Bruijn) machine: the state is exactly the last `k`
/// symbols consumed, over a reduced alphabet of `alphabet.len() + 1` letters
/// (each byte of `alphabet` is its own letter; every other byte is the
/// shared *foreign* letter). The machine accepts whenever the window equals
/// `accept_word` (given in raw bytes, all from `alphabet`).
///
/// Window machines have the precise speculation profile of the paper's
/// SRE-friendly benchmarks: they converge *completely* after `k` symbols
/// (forwarded predecessor end states are always the ground truth), yet a
/// 2-byte lookback leaves `alphabet.len() + 1` equally-likely candidates —
/// enumerative speculation with small k misses most of them.
pub fn sliding_window_dfa(alphabet: &[u8], k: usize, accept_word: &[u8]) -> Result<Dfa, FsmError> {
    assert!(!alphabet.is_empty(), "alphabet must be non-empty");
    assert!(k >= 1, "window must be non-empty");
    assert_eq!(accept_word.len(), k, "accept word must fill the window");
    let w = alphabet.len() + 1; // +1 for the foreign letter
    let n_states = w.checked_pow(k as u32).expect("window state space overflow");
    assert!(n_states <= 1 << 20, "window state space too large");

    let classes = ByteClasses::refine(|a, b| {
        let pa = alphabet.iter().position(|&x| x == a);
        let pb = alphabet.iter().position(|&x| x == b);
        pa != pb
    });
    let letter_of_class: Vec<usize> = classes
        .representatives()
        .iter()
        .map(|&rep| alphabet.iter().position(|&x| x == rep).unwrap_or(alphabet.len()))
        .collect();

    let accept_id: usize = accept_word.iter().fold(0, |acc, &b| {
        let l =
            alphabet.iter().position(|&x| x == b).expect("accept word uses only alphabet bytes");
        acc * w + l
    });
    // Start state: the all-foreign window.
    let foreign = alphabet.len();
    let start_id: usize = (0..k).fold(0, |acc, _| acc * w + foreign);

    let mut builder = DfaBuilder::new(classes.clone());
    for id in 0..n_states {
        builder.add_state(id == accept_id);
    }
    let modulus = n_states / w; // drop the oldest symbol
    for id in 0..n_states {
        for (c, &l) in letter_of_class.iter().enumerate() {
            let next = (id % modulus) * w + l;
            builder.set_transition(id as StateId, c as u16, next as StateId)?;
        }
    }
    builder.build(start_id as StateId)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{div7, mod_counter};
    use crate::profile::unique_states_after;

    #[test]
    fn union_of_counters() {
        let d3 = mod_counter(3, &[0]);
        let d5 = mod_counter(5, &[0]);
        let u = union(&d3, &d5).unwrap();
        for n in 0..200u64 {
            let s = format!("{n:b}");
            assert_eq!(u.accepts(s.as_bytes()), n % 3 == 0 || n % 5 == 0, "n = {n}");
        }
    }

    #[test]
    fn intersection_of_counters() {
        let d3 = mod_counter(3, &[0]);
        let d5 = mod_counter(5, &[0]);
        let i = intersection(&d3, &d5).unwrap();
        for n in 0..200u64 {
            let s = format!("{n:b}");
            assert_eq!(i.accepts(s.as_bytes()), n % 15 == 0, "n = {n}");
        }
    }

    #[test]
    fn complement_flips_acceptance() {
        let d = div7();
        let c = complement(&d);
        for n in 0..100u64 {
            let s = format!("{n:b}");
            assert_eq!(d.accepts(s.as_bytes()), !c.accepts(s.as_bytes()));
        }
    }

    #[test]
    fn xor_product() {
        let d3 = mod_counter(3, &[0]);
        let d5 = mod_counter(5, &[0]);
        let x = product(&d3, &d5, ProductAccept::Xor).unwrap();
        for n in 0..200u64 {
            let s = format!("{n:b}");
            assert_eq!(x.accepts(s.as_bytes()), (n % 3 == 0) != (n % 5 == 0), "n = {n}");
        }
    }

    #[test]
    fn keyword_dfa_matches_substrings() {
        let d = keyword_dfa(&[b"he", b"she", b"his", b"hers"]).unwrap();
        // Accepting = input *ends with* a keyword.
        assert!(d.accepts(b"she"));
        assert!(d.accepts(b"xxhe"));
        assert!(!d.accepts(b"hex"));
        assert!(d.accepts(b"ushers")); // ends with "hers" (and "s"? no: "hers")
        assert!(!d.accepts(b"ushe r"));
    }

    #[test]
    fn keyword_dfa_counts_overlapping_matches() {
        let d = keyword_dfa(&[b"aa"]).unwrap();
        assert_eq!(d.count_matches(b"aaaa"), 3);
    }

    #[test]
    fn keyword_dfa_suffix_outputs_propagate() {
        // "she" contains suffix "he": reaching the 'she' end node must accept
        // even though 'he' is a different keyword.
        let d = keyword_dfa(&[b"he"]).unwrap();
        assert!(d.accepts(b"she"));
    }

    #[test]
    fn keyword_dfa_converges_fast() {
        let d = keyword_dfa(&[b"attack", b"overflow", b"exploit"]).unwrap();
        // On a window of unrelated bytes all states collapse to the root.
        assert_eq!(unique_states_after(&d, b"zzzzzzzzzz"), 1);
    }

    #[test]
    fn product_with_counter_never_converges() {
        let kw = keyword_dfa(&[b"ab"]).unwrap();
        let ctr = mod_counter(5, &[0]);
        let p = product(&kw, &ctr, ProductAccept::First).unwrap();
        // The counter component keeps at least 5 states distinct forever.
        assert!(unique_states_after(&p, b"zzzzzzzzzz") >= 5);
    }

    #[test]
    fn sliding_window_matches_window_semantics() {
        let d = sliding_window_dfa(b"abc", 3, b"abc").unwrap();
        assert_eq!(d.n_states(), 64);
        assert!(d.accepts(b"abc"));
        assert!(d.accepts(b"xxabc"));
        assert!(!d.accepts(b"ab"));
        assert!(!d.accepts(b"abcx"));
        assert!(d.accepts(b"abcabc"));
    }

    #[test]
    fn sliding_window_converges_after_exactly_k() {
        let d = sliding_window_dfa(b"abcd", 3, b"aaa").unwrap();
        // After any 3 symbols, every start state lands in the same place.
        assert_eq!(unique_states_after(&d, b"bcd"), 1);
        assert_eq!(unique_states_after(&d, b"zzz"), 1, "foreign symbols count too");
        // After only 2 symbols, one window slot is still free: |alphabet|+1
        // candidates remain.
        assert_eq!(unique_states_after(&d, b"bc"), 5);
    }

    #[test]
    fn sliding_window_start_is_all_foreign() {
        let d = sliding_window_dfa(b"ab", 2, b"ab").unwrap();
        // Consuming two foreign bytes returns to the start state.
        assert_eq!(d.run(b"zz"), d.start());
        assert_ne!(d.run(b"az"), d.start());
    }

    #[test]
    fn product_first_ignores_second_component() {
        let kw = keyword_dfa(&[b"hit"]).unwrap();
        let ctr = mod_counter(3, &[1]);
        let p = product(&kw, &ctr, ProductAccept::First).unwrap();
        for input in [&b"hit"[..], b"xxhit", b"hi t", b"hhit"] {
            assert_eq!(p.accepts(input), kw.accepts(input), "input {input:?}");
        }
    }
}
