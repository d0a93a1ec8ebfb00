//! Multicore speculative FSM parallelization on real threads.
//!
//! SRE was originally designed for multicores (\[21\], §III-A); this module
//! provides that lineage substrate: a host-parallel speculative engine using
//! crossbeam scoped threads. It runs the same three phases — lookback
//! prediction, parallel speculative execution, verification & recovery — on
//! actual CPU cores, and serves as an independent cross-check of the
//! simulated schemes (its verified output must be identical).

use std::ops::Range;

use crossbeam::thread;
use gspecpal_fsm::{Dfa, StateId};
use parking_lot::Mutex;

use crate::config::SchemeConfig;
use crate::partition::partition;
use crate::predict::boundary_queues;
use crate::specq::SpecQueue;

/// Result of a multicore speculative run.
#[derive(Clone, Debug)]
pub struct CpuRunResult {
    /// Verified end state of the whole input.
    pub end_state: StateId,
    /// Accept decision.
    pub accepted: bool,
    /// Verified end state per chunk.
    pub chunk_ends: Vec<StateId>,
    /// Number of chunks whose speculation was wrong and required
    /// re-execution.
    pub recoveries: usize,
    /// Wall time of the parallel phase.
    pub parallel_time: std::time::Duration,
}

/// Lookback speculation queues for every chunk, at the framework's default
/// lookback.
fn chunk_queues(dfa: &Dfa, input: &[u8], chunks: &[Range<usize>]) -> Vec<SpecQueue> {
    boundary_queues(dfa, input, chunks, SchemeConfig::default().lookback)
}

/// Each chunk's top-ranked predicted start state.
fn top_predictions(dfa: &Dfa, input: &[u8], chunks: &[Range<usize>]) -> Vec<StateId> {
    chunk_queues(dfa, input, chunks).iter().map(|q| q.front().expect("non-empty queue")).collect()
}

/// Runs `dfa` over `input` with `n_threads` speculative workers (spec-1 +
/// sequential verification/recovery — Algorithm 2 on a multicore).
pub fn run_speculative(dfa: &Dfa, input: &[u8], n_threads: usize) -> CpuRunResult {
    assert!(n_threads > 0, "need at least one thread");
    let n = n_threads.min(input.len().max(1));
    let chunks = partition(input.len(), n);

    // Phase 1: prediction (host-side, trivially parallelizable; done inline).
    let starts = top_predictions(dfa, input, &chunks);

    // Phase 2: parallel speculative execution on real threads.
    let results: Mutex<Vec<Option<(StateId, StateId)>>> = Mutex::new(vec![None; n]);
    let t0 = std::time::Instant::now();
    thread::scope(|s| {
        for (i, chunk) in chunks.iter().enumerate() {
            let starts = &starts;
            let results = &results;
            let chunk = chunk.clone();
            s.spawn(move |_| {
                let st = starts[i];
                let end = dfa.run_from(st, &input[chunk]);
                results.lock()[i] = Some((st, end));
            });
        }
    })
    .expect("no worker panicked");
    let parallel_time = t0.elapsed();
    let records: Vec<(StateId, StateId)> =
        results.into_inner().into_iter().map(|r| r.expect("every chunk ran")).collect();

    // Phase 3: sequential verification and recovery (Algorithm 2 lines 8-14).
    let mut chunk_ends = Vec::with_capacity(n);
    let mut recoveries = 0usize;
    let mut end_p = records[0].1;
    chunk_ends.push(end_p);
    for i in 1..n {
        let (spec_start, spec_end) = records[i];
        end_p = if spec_start == end_p {
            spec_end
        } else {
            recoveries += 1;
            dfa.run_from(end_p, &input[chunks[i].clone()])
        };
        chunk_ends.push(end_p);
    }

    CpuRunResult {
        end_state: end_p,
        accepted: dfa.is_accepting(end_p),
        chunk_ends,
        recoveries,
        parallel_time,
    }
}

/// Runs `dfa` over `input` with SRE-style recovery on real threads
/// (Algorithm 3's multicore origin \[21\]): after the speculative pass, every
/// thread whose chunk is still unverified re-executes it from the end state
/// forwarded by its predecessor, in parallel rounds, until the verified
/// frontier covers the whole input. On convergent machines one round fixes
/// nearly everything; on permutation machines it degenerates to the
/// sequential walk — the same dynamics as the simulated kernels.
pub fn run_speculative_sre(dfa: &Dfa, input: &[u8], n_threads: usize) -> CpuRunResult {
    assert!(n_threads > 0, "need at least one thread");
    let n = n_threads.min(input.len().max(1));
    let chunks = partition(input.len(), n);

    let starts = top_predictions(dfa, input, &chunks);

    let t0 = std::time::Instant::now();
    // Records per chunk: (start, end) pairs from execution and recoveries.
    let records: Vec<Mutex<Vec<(StateId, StateId)>>> =
        (0..n).map(|_| Mutex::new(Vec::new())).collect();
    let run_round = |jobs: &[(usize, StateId)]| {
        thread::scope(|s| {
            for &(cid, st) in jobs {
                let records = &records;
                let chunk = chunks[cid].clone();
                s.spawn(move |_| {
                    let end = dfa.run_from(st, &input[chunk]);
                    records[cid].lock().push((st, end));
                });
            }
        })
        .expect("no worker panicked");
    };

    // Round 0: speculative execution of every chunk.
    let initial: Vec<(usize, StateId)> = starts.iter().copied().enumerate().collect();
    run_round(&initial);

    // Verification with parallel speculative recovery rounds.
    let mut verified_end = records[0].lock()[0].1;
    let mut chunk_ends = vec![verified_end];
    let mut recoveries = 0usize;
    let mut f = 1usize;
    while f < n {
        // Walk as far as existing records allow.
        while f < n {
            let hit = records[f].lock().iter().find(|r| r.0 == verified_end).map(|r| r.1);
            match hit {
                Some(end) => {
                    verified_end = end;
                    chunk_ends.push(end);
                    f += 1;
                }
                None => break,
            }
        }
        if f >= n {
            break;
        }
        // Must-be-done recovery at the frontier plus one speculative
        // recovery per rear chunk from its predecessor's current end.
        let mut jobs = vec![(f, verified_end)];
        for cid in (f + 1)..n {
            let pred_end = records[cid - 1].lock().last().map(|r| r.1);
            if let Some(e) = pred_end {
                if !records[cid].lock().iter().any(|r| r.0 == e) {
                    jobs.push((cid, e));
                }
            }
        }
        recoveries += jobs.len();
        run_round(&jobs);
    }

    CpuRunResult {
        end_state: verified_end,
        accepted: dfa.is_accepting(verified_end),
        chunk_ends,
        recoveries,
        parallel_time: t0.elapsed(),
    }
}

/// Runs `dfa` over `input` with RR-style aggressive recovery on real
/// threads: like [`run_speculative_sre`], but when the frontier stalls, the
/// already-verified workers are reassigned round-robin over rear chunks and
/// execute the next states of those chunks' speculation queues (Algorithm 4
/// on a multicore). On machines that defeat end-state forwarding this is
/// what keeps the thread pool busy.
pub fn run_speculative_rr(dfa: &Dfa, input: &[u8], n_threads: usize) -> CpuRunResult {
    assert!(n_threads > 0, "need at least one thread");
    let n = n_threads.min(input.len().max(1));
    let chunks = partition(input.len(), n);

    // Ranked speculation queues (QS_i), dequeued as recoveries are seeded.
    let mut queues = chunk_queues(dfa, input, &chunks);
    let starts: Vec<StateId> =
        queues.iter_mut().map(|q| q.dequeue_host().expect("non-empty queue")).collect();

    let t0 = std::time::Instant::now();
    let records: Vec<Mutex<Vec<(StateId, StateId)>>> =
        (0..n).map(|_| Mutex::new(Vec::new())).collect();
    let run_round = |jobs: &[(usize, StateId)]| {
        thread::scope(|s| {
            for &(cid, st) in jobs {
                let records = &records;
                let chunk = chunks[cid].clone();
                s.spawn(move |_| {
                    let end = dfa.run_from(st, &input[chunk]);
                    records[cid].lock().push((st, end));
                });
            }
        })
        .expect("no worker panicked");
    };

    // Speculative execution of every chunk.
    let initial: Vec<(usize, StateId)> = starts.iter().copied().enumerate().collect();
    run_round(&initial);

    let mut verified_end = records[0].lock()[0].1;
    let mut chunk_ends = vec![verified_end];
    let mut recoveries = 0usize;
    let mut f = 1usize;
    while f < n {
        while f < n {
            let hit = records[f].lock().iter().find(|r| r.0 == verified_end).map(|r| r.1);
            match hit {
                Some(end) => {
                    verified_end = end;
                    chunk_ends.push(end);
                    f += 1;
                }
                None => break,
            }
        }
        if f >= n {
            break;
        }
        // Must-be-done recovery at the frontier; every other worker seeds a
        // rear chunk round-robin from its queue.
        let mut jobs = vec![(f, verified_end)];
        let avail: Vec<usize> = ((f + 1)..n).collect();
        if !avail.is_empty() {
            for w in 0..n.saturating_sub(1) {
                let cid = avail[w % avail.len()];
                if let Some(st) = queues[cid].dequeue_host() {
                    if !records[cid].lock().iter().any(|r| r.0 == st) {
                        jobs.push((cid, st));
                    }
                }
            }
        }
        recoveries += jobs.len();
        run_round(&jobs);
    }

    CpuRunResult {
        end_state: verified_end,
        accepted: dfa.is_accepting(verified_end),
        chunk_ends,
        recoveries,
        parallel_time: t0.elapsed(),
    }
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
