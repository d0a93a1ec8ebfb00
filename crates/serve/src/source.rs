//! Streaming arrival sources: traces consumed one arrival at a time.
//!
//! [`crate::serve`] takes a fully materialized [`Trace`](crate::Trace) — fine for tests
//! and benches, fatal for the million-stream regime the ROADMAP targets,
//! where holding every arrival (and its payload) in memory defeats the
//! point. A [`TraceSource`] is the streaming alternative: the pipeline
//! *pulls* arrivals in admission order and drops each stream's bytes as
//! soon as its batch has been charged, so resident memory is bounded by
//! the admission queue, not the trace length (see
//! [`crate::serve_source`]).
//!
//! Two sources cover the practical cases:
//!
//! * [`IterSource`] — adapts any `Iterator<Item = StreamArrival>` (a log
//!   parser, a socket decoder, a generator). [`Trace::source`](crate::Trace::source) is one over
//!   the trace's arrivals; this is how `serve` itself runs, so the two
//!   entry points share one engine and produce byte-identical reports.
//! * [`SyntheticSource`] — the streaming twin of [`Trace::synthetic`](crate::Trace::synthetic):
//!   the same seeded LCG, the same sequence, without materializing it.
//!   `Trace::synthetic` is implemented by collecting this source, so the
//!   two can never drift apart.

use crate::trace::{Lcg, StreamArrival};

/// A pull-based stream of arrivals in admission (non-decreasing
/// `arrival_cycle`) order.
///
/// The contract matches what [`Trace`](crate::Trace) guarantees after sorting: the
/// pipeline validates monotonicity as it pulls and rejects a regression
/// with [`crate::ServeError::NonMonotonicTrace`], because an out-of-order
/// arrival from a live source is evidence of a broken feed, not something
/// to buffer and repair.
pub trait TraceSource {
    /// The next arrival, or `None` when the trace is exhausted. Must be
    /// monotone: once `None`, always `None`.
    fn next_arrival(&mut self) -> Option<StreamArrival>;
}

/// Adapts any iterator of arrivals into a [`TraceSource`].
pub struct IterSource<I>(pub I);

impl<I: Iterator<Item = StreamArrival>> TraceSource for IterSource<I> {
    fn next_arrival(&mut self) -> Option<StreamArrival> {
        self.0.next()
    }
}

/// Streaming deterministic synthetic workload: yields exactly the
/// arrivals of `Trace::synthetic(seed, n_streams, …)`, one at a time.
///
/// This is what lets the host-throughput benchmark push a million streams
/// through the pipeline without ever materializing the trace: each pull
/// costs one stream's bytes, which the engine frees after dispatch.
pub struct SyntheticSource {
    rng: Lcg,
    clock: u64,
    remaining: usize,
    n_machines: usize,
    mean_gap: u64,
    len_range: std::ops::Range<usize>,
    alphabet: Vec<u8>,
}

impl SyntheticSource {
    /// See [`Trace::synthetic`](crate::Trace::synthetic) for the parameters and panics; the two
    /// produce the same sequence by construction.
    pub fn new(
        seed: u64,
        n_streams: usize,
        n_machines: usize,
        mean_gap: u64,
        len_range: std::ops::Range<usize>,
        alphabet: &[u8],
    ) -> Self {
        assert!(n_machines > 0, "need at least one machine");
        assert!(!alphabet.is_empty(), "need a nonempty alphabet");
        assert!(!len_range.is_empty(), "need a nonempty length range");
        SyntheticSource {
            rng: Lcg::new(seed),
            clock: 0,
            remaining: n_streams,
            n_machines,
            mean_gap,
            len_range,
            alphabet: alphabet.to_vec(),
        }
    }
}

impl Iterator for SyntheticSource {
    type Item = StreamArrival;

    fn next(&mut self) -> Option<StreamArrival> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.clock += self.rng.below(2 * self.mean_gap + 1);
        let machine = self.rng.below(self.n_machines as u64) as usize;
        let len = self.len_range.start
            + self.rng.below((self.len_range.end - self.len_range.start) as u64) as usize;
        let bytes = (0..len)
            .map(|_| self.alphabet[self.rng.below(self.alphabet.len() as u64) as usize])
            .collect();
        Some(StreamArrival { arrival_cycle: self.clock, machine, bytes })
    }
}

impl TraceSource for SyntheticSource {
    fn next_arrival(&mut self) -> Option<StreamArrival> {
        self.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    #[test]
    fn synthetic_source_matches_trace_synthetic_exactly() {
        let streamed: Vec<StreamArrival> =
            SyntheticSource::new(42, 50, 3, 100, 8..64, b"01").collect();
        let materialized = Trace::synthetic(42, 50, 3, 100, 8..64, b"01");
        assert_eq!(streamed, materialized.arrivals());
    }

    #[test]
    fn trace_cursor_replays_in_order() {
        let trace = Trace::synthetic(7, 10, 2, 50, 4..8, b"ab");
        let mut cursor = trace.source();
        let mut n = 0;
        while let Some(a) = cursor.next_arrival() {
            assert_eq!(&a, &trace.arrivals()[n]);
            n += 1;
        }
        assert_eq!(n, trace.len());
        assert!(cursor.next_arrival().is_none(), "stays exhausted");
    }

    #[test]
    fn iter_source_adapts_any_iterator() {
        let mut src = IterSource((0..3u64).map(|i| StreamArrival {
            arrival_cycle: i,
            machine: 0,
            bytes: vec![b'x'],
        }));
        assert_eq!(src.next_arrival().unwrap().arrival_cycle, 0);
        assert_eq!(src.next_arrival().unwrap().arrival_cycle, 1);
        assert_eq!(src.next_arrival().unwrap().arrival_cycle, 2);
        assert!(src.next_arrival().is_none());
    }
}
