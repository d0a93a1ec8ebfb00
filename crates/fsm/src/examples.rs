//! Small canned machines used throughout the paper and this reproduction.

use crate::classes::ByteClasses;
use crate::dfa::{Dfa, DfaBuilder, StateId};

/// The paper's running example (Figure 1): *div7*, which accepts a binary
/// number (most-significant bit first, bytes `'0'`/`'1'`) iff it is divisible
/// by seven. State `s_i` means "the bits consumed so far are ≡ i (mod 7)";
/// `s0` is both the initial and the single accepting state.
///
/// div7 is also the canonical *non-convergent* FSM: no two distinct residues
/// ever merge, so lookback-based prediction can never rule states out. The
/// workload tiers that defeat convergence-based speculation are built from
/// the same structure (see `gspecpal-workloads`).
pub fn div7() -> Dfa {
    mod_counter(7, &[0])
}

/// A binary mod-`m` residue machine over bytes `'0'`/`'1'`, accepting iff the
/// residue is in `accepting`. `div7()` is `mod_counter(7, &[0])`.
pub fn mod_counter(m: u32, accepting: &[u32]) -> Dfa {
    assert!(m >= 1, "modulus must be positive");
    let classes = ByteClasses::refine(|a, b| {
        let da = matches!(a, b'0' | b'1');
        let db = matches!(b, b'0' | b'1');
        da != db || (da && a != b)
    });
    let c0 = classes.class(b'0');
    let c1 = classes.class(b'1');
    let cother: Vec<u16> = (0..classes.len()).filter(|&c| c != c0 && c != c1).collect();
    let mut b = DfaBuilder::new(classes);
    for r in 0..m {
        b.add_state(accepting.contains(&r));
    }
    for r in 0..m {
        let s = r as StateId;
        b.set_transition(s, c0, ((r * 2) % m) as StateId).unwrap();
        b.set_transition(s, c1, ((r * 2 + 1) % m) as StateId).unwrap();
        // Non-binary bytes leave the residue unchanged; keeps the machine
        // total without changing the language over binary inputs.
        for &c in &cother {
            b.set_transition(s, c, s).unwrap();
        }
    }
    b.build(0).unwrap()
}

/// A ones-counting machine over bytes `'0'`/`'1'`: state = (number of `'1'`
/// bits consumed) mod `m`, accepting iff the count is in `accepting`.
///
/// Unlike [`mod_counter`] (whose doubling step collapses for even moduli —
/// `2r mod 4` only depends on the last two bits), incrementing is a
/// permutation for *every* `m`, so a ones-counter never converges: the
/// canonical building block for FSMs that defeat convergence-based
/// speculation while keeping the lookback candidate set at exactly `m`
/// states.
pub fn ones_counter(m: u32, accepting: &[u32]) -> Dfa {
    assert!(m >= 1, "modulus must be positive");
    let classes = ByteClasses::refine(|a, b| (a == b'1') != (b == b'1'));
    let c1 = classes.class(b'1');
    let c_other: Vec<u16> = (0..classes.len()).filter(|&c| c != c1).collect();
    let mut b = DfaBuilder::new(classes);
    for r in 0..m {
        b.add_state(accepting.contains(&r));
    }
    for r in 0..m {
        let s = r as StateId;
        b.set_transition(s, c1, ((r + 1) % m) as StateId).unwrap();
        for &c in &c_other {
            b.set_transition(s, c, s).unwrap();
        }
    }
    b.build(0).unwrap()
}

/// The 4-state DFA of the paper's Figure 4 (transformation example), over the
/// three-symbol alphabet `{'/', '*', 'X'}` where `'X'` stands for "any other
/// byte". This is the classic C-comment recognizer shape:
///
/// | state | `/`  | `*`  | `X`  |
/// |-------|------|------|------|
/// | `S0`  | `S1` | `S0` | `S0` |
/// | `S1`  | `S1` | `S2` | `S0` |
/// | `S2`  | `S2` | `S3` | `S2` |
/// | `S3`  | `S0` | `S3` | `S2` |
///
/// State `S2` ("inside a comment") is marked accepting so the machine has a
/// non-trivial output function.
pub fn fig4_dfa() -> Dfa {
    let classes = ByteClasses::refine(|a, b| {
        let ka = match a {
            b'/' => 0,
            b'*' => 1,
            _ => 2,
        };
        let kb = match b {
            b'/' => 0,
            b'*' => 1,
            _ => 2,
        };
        ka != kb
    });
    let slash = classes.class(b'/');
    let star = classes.class(b'*');
    let other = classes.class(b'x');
    let mut b = DfaBuilder::new(classes);
    let s0 = b.add_state(false);
    let s1 = b.add_state(false);
    let s2 = b.add_state(true);
    let s3 = b.add_state(false);
    for (s, t_slash, t_star, t_other) in
        [(s0, s1, s0, s0), (s1, s1, s2, s0), (s2, s2, s3, s2), (s3, s0, s3, s2)]
    {
        b.set_transition(s, slash, t_slash).unwrap();
        b.set_transition(s, star, t_star).unwrap();
        b.set_transition(s, other, t_other).unwrap();
    }
    b.build(s0).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_binary(n: u64) -> Vec<u8> {
        if n == 0 {
            return b"0".to_vec();
        }
        format!("{n:b}").into_bytes()
    }

    #[test]
    fn div7_accepts_multiples_of_seven() {
        let d = div7();
        for n in 0..500u64 {
            assert_eq!(d.accepts(&to_binary(n)), n % 7 == 0, "n = {n}");
        }
    }

    #[test]
    fn div7_matches_fig1_walkthrough() {
        // Figure 1(c): starting at s0 the machine walks through residues.
        let d = div7();
        let trace = d.run_trace(d.start(), b"1101");
        // 1 -> 1, 11 -> 3, 110 -> 6, 1101 -> 13 % 7 = 6.
        assert_eq!(trace, vec![1, 3, 6, 6]);
    }

    #[test]
    fn div7_has_seven_states_and_one_accepting() {
        let d = div7();
        assert_eq!(d.n_states(), 7);
        assert!((0..7).all(|s| d.is_accepting(s) == (s == 0)));
        assert_eq!(d.start(), 0);
    }

    #[test]
    fn mod_counter_general() {
        let d = mod_counter(5, &[0, 2]);
        for n in 0..200u64 {
            let r = n % 5;
            assert_eq!(d.accepts(&to_binary(n)), r == 0 || r == 2, "n = {n}");
        }
    }

    #[test]
    fn mod_counter_ignores_non_binary_bytes() {
        let d = div7();
        assert_eq!(d.run(b"11x0y1"), d.run(b"1101"));
    }

    #[test]
    fn ones_counter_counts_ones() {
        let d = ones_counter(5, &[0]);
        for n in 0..200u64 {
            let s = to_binary(n);
            let ones = s.iter().filter(|&&b| b == b'1').count() as u32;
            assert_eq!(d.accepts(&s), ones.is_multiple_of(5), "n = {n}");
        }
    }

    #[test]
    fn ones_counter_is_a_permutation_for_even_moduli() {
        // The property mod_counter lacks: 10 transitions from all states of a
        // mod-4 ones-counter still leave 4 distinct states.
        let d = ones_counter(4, &[0]);
        let mut ends: Vec<_> = (0..4).map(|s| d.run_from(s, b"1101011010")).collect();
        ends.sort_unstable();
        ends.dedup();
        assert_eq!(ends.len(), 4);
    }

    #[test]
    fn mod_counter_even_modulus_converges() {
        // Documents why ones_counter exists: doubling mod 4 forgets the
        // start state after two steps.
        let d = mod_counter(4, &[0]);
        let mut ends: Vec<_> = (0..4).map(|s| d.run_from(s, b"10")).collect();
        ends.sort_unstable();
        ends.dedup();
        assert_eq!(ends.len(), 1);
    }

    #[test]
    fn fig4_table_matches_paper() {
        let d = fig4_dfa();
        assert_eq!(d.n_states(), 4);
        let step = |s, b| d.next(s, b);
        // Row S0.
        assert_eq!(step(0, b'/'), 1);
        assert_eq!(step(0, b'*'), 0);
        assert_eq!(step(0, b'q'), 0);
        // Row S1.
        assert_eq!(step(1, b'/'), 1);
        assert_eq!(step(1, b'*'), 2);
        assert_eq!(step(1, b'q'), 0);
        // Row S2.
        assert_eq!(step(2, b'/'), 2);
        assert_eq!(step(2, b'*'), 3);
        assert_eq!(step(2, b'q'), 2);
        // Row S3.
        assert_eq!(step(3, b'/'), 0);
        assert_eq!(step(3, b'*'), 3);
        assert_eq!(step(3, b'q'), 2);
    }

    #[test]
    fn fig4_recognizes_comment_interior() {
        let d = fig4_dfa();
        // After "/*" we are inside a comment (state 2, accepting).
        assert_eq!(d.run(b"/*"), 2);
        assert!(d.accepts(b"/* hello"));
        // "*/" closes it.
        assert_eq!(d.run(b"/* hi */"), 0);
    }
}
