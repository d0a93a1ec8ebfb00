//! Pins the multicore engines' exact behaviour on a fixed table of machines,
//! thread counts and inputs: the verified output (`end_state`, `accepted`,
//! `chunk_ends`) and, per engine, how many recovery jobs ran. Recovery
//! counts are a function of the partition, the lookback queues and each
//! engine's round policy alone, never of thread scheduling, so any change to
//! which jobs run in which round shows here.

use gspecpal::cpu::{run_speculative, run_speculative_rr, run_speculative_sre};
use gspecpal_fsm::combinators::keyword_dfa;
use gspecpal_fsm::examples::div7;
use gspecpal_fsm::random::{random_dfa, random_input};
use gspecpal_fsm::{Dfa, StateId};

#[derive(Clone, Copy, Debug)]
enum Machine {
    Div7,
    Keywords,
    Random3,
    Random11,
}

impl Machine {
    fn dfa(self) -> Dfa {
        match self {
            Machine::Div7 => div7(),
            Machine::Keywords => keyword_dfa(&[b"virus", b"worm"]).expect("valid keywords"),
            Machine::Random3 => random_dfa(3, 12, 5),
            Machine::Random11 => random_dfa(11, 12, 5),
        }
    }

    fn input(self) -> Vec<u8> {
        match self {
            Machine::Div7 => b"110101011001011".repeat(120),
            Machine::Keywords => b"data virus data worm data ".repeat(40),
            Machine::Random3 => random_input(3, 1500),
            Machine::Random11 => random_input(11, 1500),
        }
    }
}

/// One pinned run: the machine's input cut to `len` bytes, on `threads`
/// workers. `recoveries` is `[naive, sre, rr]`.
struct Case {
    machine: Machine,
    len: usize,
    threads: usize,
    end_state: StateId,
    accepted: bool,
    chunk_ends: &'static [StateId],
    recoveries: [usize; 3],
}

const fn case(
    machine: Machine,
    len: usize,
    threads: usize,
    end_state: StateId,
    accepted: bool,
    chunk_ends: &'static [StateId],
    recoveries: [usize; 3],
) -> Case {
    Case { machine, len, threads, end_state, accepted, chunk_ends, recoveries }
}

use Machine::*;

#[rustfmt::skip]
const CASES: &[Case] = &[
    case(Div7, 1800, 1, 4, false, &[4], [0, 0, 0]),
    case(Div7, 1800, 2, 4, false, &[2, 4], [1, 1, 1]),
    case(Div7, 1800, 7, 4, false, &[4, 3, 3, 6, 2, 6, 4], [6, 16, 22]),
    case(Div7, 1800, 12, 4, false, &[5, 3, 1, 6, 4, 2, 0, 5, 3, 1, 6, 4], [10, 51, 46]),
    case(Div7, 1800, 16, 4, false, &[3, 2, 4, 0, 2, 4, 6, 3, 1, 5, 5, 1, 3, 1, 3, 4], [14, 55, 64]),
    case(Div7, 0, 64, 0, true, &[0], [0, 0, 0]),
    case(Div7, 3, 64, 6, false, &[1, 3, 6], [2, 3, 4]),
    case(Keywords, 1040, 1, 0, false, &[0], [0, 0, 0]),
    case(Keywords, 1040, 2, 0, false, &[0, 0], [0, 0, 0]),
    case(Keywords, 1040, 7, 0, false, &[8, 0, 0, 0, 0, 3, 0], [2, 2, 2]),
    case(Keywords, 1040, 12, 0, false, &[4, 7, 0, 5, 8, 0, 0, 9, 0, 5, 7, 0], [5, 5, 5]),
    case(Keywords, 1040, 16, 0, false, &[0; 16], [0, 0, 0]),
    case(Keywords, 0, 64, 0, false, &[0], [0, 0, 0]),
    case(Keywords, 3, 64, 0, false, &[0, 0, 0], [0, 0, 0]),
    case(Random3, 1500, 1, 5, true, &[5], [0, 0, 0]),
    case(Random3, 1500, 2, 5, true, &[6, 5], [1, 1, 1]),
    case(Random3, 1500, 7, 5, true, &[5, 10, 2, 4, 5, 1, 5], [3, 3, 14]),
    case(Random3, 1500, 12, 5, true, &[8, 10, 10, 4, 1, 6, 4, 7, 7, 6, 6, 5], [8, 8, 36]),
    case(Random3, 1500, 16, 5, true, &[5, 10, 1, 10, 8, 10, 5, 6, 1, 3, 1, 8, 3, 9, 2, 5], [7, 7, 56]),
    case(Random3, 0, 64, 5, true, &[5], [0, 0, 0]),
    case(Random3, 3, 64, 1, false, &[1, 7, 1], [2, 3, 3]),
    case(Random11, 1500, 1, 10, false, &[10], [0, 0, 0]),
    case(Random11, 1500, 2, 10, false, &[8, 10], [1, 1, 1]),
    case(Random11, 1500, 7, 10, false, &[3, 11, 6, 4, 2, 3, 10], [5, 5, 14]),
    case(Random11, 1500, 12, 10, false, &[2, 11, 9, 9, 5, 8, 0, 2, 11, 10, 10, 10], [9, 9, 42]),
    case(Random11, 1500, 16, 10, false, &[2, 9, 5, 5, 4, 9, 11, 11, 10, 11, 7, 11, 8, 6, 11, 10], [6, 6, 48]),
    case(Random11, 0, 64, 10, false, &[10], [0, 0, 0]),
    case(Random11, 3, 64, 6, false, &[7, 9, 6], [2, 2, 3]),
];

#[test]
fn engines_match_pinned_results() {
    type Engine = fn(&Dfa, &[u8], usize) -> gspecpal::cpu::CpuRunResult;
    let engines: [(&str, Engine); 3] =
        [("naive", run_speculative), ("sre", run_speculative_sre), ("rr", run_speculative_rr)];
    for c in CASES {
        let dfa = c.machine.dfa();
        let full = c.machine.input();
        let input = &full[..c.len];
        for ((name, engine), &recoveries) in engines.iter().zip(&c.recoveries) {
            let r = engine(&dfa, input, c.threads);
            let at = format!("{name} on {:?}, {} bytes, {} threads", c.machine, c.len, c.threads);
            assert_eq!(r.end_state, c.end_state, "end_state: {at}");
            assert_eq!(r.accepted, c.accepted, "accepted: {at}");
            assert_eq!(r.chunk_ends, c.chunk_ends, "chunk_ends: {at}");
            assert_eq!(r.recoveries, recoveries, "recoveries: {at}");
        }
    }
}
