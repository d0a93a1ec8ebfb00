//! Multicore speculative FSM parallelization on real threads.
//!
//! SRE was originally designed for multicores (\[21\], §III-A); this module
//! provides that lineage substrate: one round driver on `std::thread::scope`
//! that runs the same three phases — lookback prediction, parallel
//! speculative execution, verification & recovery — on actual CPU cores,
//! and serves as an independent cross-check of the simulated schemes (its
//! verified output must be identical). Each worker returns its job's
//! `(start, end)` record through its join handle, so no result is shared
//! and nothing is locked. The three engines differ only in the `Policy`
//! that picks each recovery round.

use std::ops::Range;
use std::time::{Duration, Instant};

use gspecpal_fsm::{Dfa, StateId};

use crate::partition::partition;
use crate::predict::{boundary_queues, LOOKBACK};

/// Result of a multicore speculative run.
#[derive(Clone, Debug)]
pub struct CpuRunResult {
    /// Verified end state of the whole input.
    pub end_state: StateId,
    /// Accept decision.
    pub accepted: bool,
    /// Verified end state per chunk.
    pub chunk_ends: Vec<StateId>,
    /// Number of recovery jobs: chunk re-executions after the speculative
    /// round, whether or not their start turned out to be right.
    pub recoveries: usize,
    /// Wall time of the execution rounds and the verification between
    /// them (everything after prediction).
    pub parallel_time: Duration,
}

/// Runs `dfa` over `input` with `n_threads` speculative workers (spec-1 +
/// sequential verification/recovery — Algorithm 2 on a multicore): every
/// mispredicted chunk is re-executed on the calling thread, one at a time.
pub fn run_speculative(dfa: &Dfa, input: &[u8], n_threads: usize) -> CpuRunResult {
    run_rounds(dfa, input, n_threads, Policy::Sequential)
}

/// Runs `dfa` over `input` with SRE-style recovery on real threads
/// (Algorithm 3's multicore origin \[21\]): after the speculative pass, every
/// thread whose chunk is still unverified re-executes it from the end state
/// forwarded by its predecessor, in parallel rounds, until the verified
/// frontier covers the whole input. On convergent machines one round fixes
/// nearly everything; on permutation machines it degenerates to the
/// sequential walk — the same dynamics as the simulated kernels.
pub fn run_speculative_sre(dfa: &Dfa, input: &[u8], n_threads: usize) -> CpuRunResult {
    run_rounds(dfa, input, n_threads, Policy::Forward)
}

/// Runs `dfa` over `input` with RR-style aggressive recovery on real
/// threads: like [`run_speculative_sre`], but when the frontier stalls, the
/// already-verified workers are reassigned round-robin over rear chunks and
/// execute the next states of those chunks' speculation queues (Algorithm 4
/// on a multicore). On machines that defeat end-state forwarding this is
/// what keeps the thread pool busy.
pub fn run_speculative_rr(dfa: &Dfa, input: &[u8], n_threads: usize) -> CpuRunResult {
    run_rounds(dfa, input, n_threads, Policy::RoundRobin)
}

/// How a stalled frontier picks the next round's speculative recoveries.
#[derive(Clone, Copy, Debug)]
enum Policy {
    /// Algorithm 2: only the must-be-done recovery at the frontier.
    Sequential,
    /// SRE: every rear chunk re-runs from its predecessor's last end.
    Forward,
    /// RR: the other workers seed rear chunks round-robin from their queues.
    RoundRobin,
}

/// A `(chunk, start state)` execution job.
type Job = (usize, StateId);
/// A chunk's `(start, end)` execution record.
type Record = (StateId, StateId);

/// The one round driver behind every engine: a speculative round of every
/// chunk from its top-ranked start, then, while the verified frontier
/// stalls short of the input's end, the recovery rounds `policy` asks for.
fn run_rounds(dfa: &Dfa, input: &[u8], n_threads: usize, policy: Policy) -> CpuRunResult {
    assert!(n_threads > 0, "need at least one thread");
    let n = n_threads.min(input.len().max(1));
    let chunks = partition(input.len(), n);
    let mut queues = boundary_queues(dfa, input, &chunks, LOOKBACK);

    let t0 = Instant::now();
    let mut jobs: Vec<Job> =
        queues.iter_mut().map(|q| q.dequeue_host().expect("non-empty queue")).enumerate().collect();
    let mut records: Vec<Vec<Record>> = vec![Vec::new(); n];
    let mut chunk_ends = Vec::with_capacity(n);
    let mut verified_end = dfa.start();
    let mut recoveries = 0;
    loop {
        for (&(cid, _), record) in jobs.iter().zip(run_round(dfa, input, &chunks, &jobs)) {
            records[cid].push(record);
        }
        // Walk the verified frontier as far as the records allow.
        while let Some(&(_, end)) =
            records.get(chunk_ends.len()).and_then(|r| r.iter().find(|r| r.0 == verified_end))
        {
            verified_end = end;
            chunk_ends.push(end);
        }
        let f = chunk_ends.len();
        if f == n {
            break;
        }
        // The must-be-done recovery at the frontier first, then the policy's
        // speculative jobs on rear chunks that no record covers yet.
        let fresh = |cid: usize, st| (!records[cid].iter().any(|r| r.0 == st)).then_some((cid, st));
        jobs = vec![(f, verified_end)];
        match policy {
            Policy::Sequential => {}
            Policy::Forward => {
                jobs.extend((f + 1..n).filter_map(|cid| fresh(cid, records[cid - 1].last()?.1)))
            }
            Policy::RoundRobin => jobs.extend(
                (f + 1..n)
                    .cycle()
                    .take(n - 1)
                    .filter_map(|cid| fresh(cid, queues[cid].dequeue_host()?)),
            ),
        }
        recoveries += jobs.len();
    }

    CpuRunResult {
        end_state: verified_end,
        accepted: dfa.is_accepting(verified_end),
        chunk_ends,
        recoveries,
        parallel_time: t0.elapsed(),
    }
}

/// Runs one round: job 0 on the calling thread, every other job on its own
/// scoped worker. Returns each job's record in job order.
fn run_round(dfa: &Dfa, input: &[u8], chunks: &[Range<usize>], jobs: &[Job]) -> Vec<Record> {
    let run = |&(cid, st): &Job| (st, dfa.run_from(st, &input[chunks[cid].clone()]));
    std::thread::scope(|s| {
        let workers: Vec<_> = jobs[1..].iter().map(|job| s.spawn(move || run(job))).collect();
        let first = run(&jobs[0]);
        let rest = workers.into_iter().map(|w| w.join().expect("no worker panicked"));
        std::iter::once(first).chain(rest).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gspecpal_fsm::combinators::keyword_dfa;
    use gspecpal_fsm::examples::div7;

    #[test]
    fn cpu_engine_is_exact_on_div7() {
        let d = div7();
        let input: Vec<u8> = b"110101011001".repeat(100);
        let r = run_speculative(&d, &input, 8);
        assert_eq!(r.end_state, d.run(&input));
        assert_eq!(r.accepted, d.accepts(&input));
        // div7 defeats spec-1 prediction most of the time.
        assert!(r.recoveries > 0);
    }

    #[test]
    fn cpu_engine_is_exact_on_keywords() {
        let d = keyword_dfa(&[b"abc", b"xyz"]).unwrap();
        let input = b"lots of abc junk and xyz here ".repeat(64);
        let r = run_speculative(&d, &input, 16);
        assert_eq!(r.end_state, d.run(&input));
        // Convergent machine: spec-1 prediction is nearly perfect.
        assert!(r.recoveries <= 2, "recoveries = {}", r.recoveries);
    }

    #[test]
    fn chunk_ends_match_sequential_prefixes() {
        let d = div7();
        let input: Vec<u8> = b"10110101".repeat(32);
        let n = 8;
        let r = run_speculative(&d, &input, n);
        let chunks = partition(input.len(), n);
        let mut s = d.start();
        for (i, c) in chunks.into_iter().enumerate() {
            s = d.run_from(s, &input[c]);
            assert_eq!(r.chunk_ends[i], s, "chunk {i}");
        }
    }

    #[test]
    fn sre_engine_is_exact_on_both_machine_kinds() {
        let d = div7();
        let input: Vec<u8> = b"110101011001".repeat(80);
        let r = run_speculative_sre(&d, &input, 8);
        assert_eq!(r.end_state, d.run(&input));

        let kw = keyword_dfa(&[b"virus", b"worm"]).unwrap();
        let input2 = b"data virus data worm data ".repeat(40);
        let r2 = run_speculative_sre(&kw, &input2, 8);
        assert_eq!(r2.end_state, kw.run(&input2));
        assert_eq!(r2.accepted, kw.accepts(&input2));
    }

    #[test]
    fn sre_engine_recovers_in_few_rounds_on_convergent_machines() {
        // Convergent machine: the one speculative wave fixes almost all
        // chunks, so SRE needs far fewer recoveries than the number of
        // mispredicted chunks the naive engine re-executes.
        let d = div7(); // non-convergent: SRE ~ sequential walk
        let kw = keyword_dfa(&[b"needle"]).unwrap(); // convergent
        let bits: Vec<u8> = b"10110100".repeat(100);
        let text = b"haystack haystack needle hay ".repeat(28);

        let sre_conv = run_speculative_sre(&kw, &text, 16);
        let naive_conv = run_speculative(&kw, &text, 16);
        assert_eq!(sre_conv.end_state, naive_conv.end_state);

        let sre_div = run_speculative_sre(&d, &bits, 16);
        assert_eq!(sre_div.end_state, d.run(&bits));
        // div7 defeats end forwarding: recovery count is on the order of
        // the chunk count (≥ half), while the convergent machine needs at
        // most a couple of rounds' worth.
        assert!(sre_div.recoveries >= 8, "div7 recoveries = {}", sre_div.recoveries);
    }

    #[test]
    fn sre_engine_chunk_ends_are_true_prefixes() {
        let d = div7();
        let input: Vec<u8> = b"1011010".repeat(64);
        let n = 8;
        let r = run_speculative_sre(&d, &input, n);
        let chunks = partition(input.len(), n);
        let mut s = d.start();
        for (i, c) in chunks.into_iter().enumerate() {
            s = d.run_from(s, &input[c]);
            assert_eq!(r.chunk_ends[i], s, "chunk {i}");
        }
    }

    #[test]
    fn rr_engine_is_exact_and_covers_deep_queues() {
        let d = div7();
        let input: Vec<u8> = b"110101011001011".repeat(120);
        let r = run_speculative_rr(&d, &input, 12);
        assert_eq!(r.end_state, d.run(&input));
        assert_eq!(r.accepted, d.accepts(&input));
        // The seeding drains queue entries that SRE never touches.
        let sre = run_speculative_sre(&d, &input, 12);
        assert_eq!(sre.end_state, r.end_state);
    }

    #[test]
    fn rr_engine_chunk_ends_are_true_prefixes() {
        let d = keyword_dfa(&[b"worm", b"virus"]).unwrap();
        let input = b"scan worm scan virus scan ".repeat(30);
        let n = 6;
        let r = run_speculative_rr(&d, &input, n);
        let chunks = partition(input.len(), n);
        let mut s = d.start();
        for (i, c) in chunks.into_iter().enumerate() {
            s = d.run_from(s, &input[c]);
            assert_eq!(r.chunk_ends[i], s, "chunk {i}");
        }
    }

    #[test]
    fn single_thread_degenerates_to_sequential() {
        let d = div7();
        let input = b"11010";
        let r = run_speculative(&d, input, 1);
        assert_eq!(r.end_state, d.run(input));
        assert_eq!(r.recoveries, 0);
    }

    #[test]
    fn more_threads_than_bytes_is_clamped() {
        let d = div7();
        let input = b"101";
        let r = run_speculative(&d, input, 64);
        assert_eq!(r.end_state, d.run(input));
    }
}
