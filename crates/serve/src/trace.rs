//! Arrival traces: the workload a serving pipeline replays.
//!
//! A trace is a time-ordered list of [`StreamArrival`]s — each an input
//! stream arriving at some cycle for some machine. Traces are plain data:
//! they can be handwritten in tests, parsed from logs, or synthesized
//! deterministically with [`Trace::synthetic`] (a seeded LCG, so the same
//! seed always produces the same trace — no ambient randomness anywhere in
//! the serve layer).

/// One input stream arriving at the serving frontier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamArrival {
    /// Cycle (on the device clock) the stream becomes available to admit.
    pub arrival_cycle: u64,
    /// Which machine (index into the pipeline's machine set) must scan it.
    pub machine: usize,
    /// The stream's input bytes.
    pub bytes: Vec<u8>,
}

/// The largest admissible arrival cycle for [`Trace::try_from_arrivals`]:
/// a quarter of the clock space, leaving ample headroom for deadline,
/// latency and backoff arithmetic on top of any admissible arrival.
pub const MAX_ARRIVAL_CYCLE: u64 = u64::MAX / 4;

/// A time-ordered arrival trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    arrivals: Vec<StreamArrival>,
}

impl Trace {
    /// Builds a trace from arrivals, stably sorting them by arrival cycle
    /// (ties keep their given order, so equal-cycle bursts stay
    /// deterministic).
    pub fn from_arrivals(mut arrivals: Vec<StreamArrival>) -> Self {
        arrivals.sort_by_key(|a| a.arrival_cycle);
        Trace { arrivals }
    }

    /// Builds a trace from arrivals that must already be a valid history:
    /// arrival cycles non-decreasing, every cycle at most
    /// [`MAX_ARRIVAL_CYCLE`], and no zero-length stream. Unlike
    /// [`Trace::from_arrivals`] this never reorders — an out-of-order
    /// timestamp in a captured log is evidence of a broken capture, not
    /// something to silently repair.
    pub fn try_from_arrivals(
        arrivals: Vec<StreamArrival>,
    ) -> Result<Self, crate::error::ServeError> {
        use crate::error::ServeError;
        let mut prev = 0u64;
        for (i, a) in arrivals.iter().enumerate() {
            if a.arrival_cycle > MAX_ARRIVAL_CYCLE {
                return Err(ServeError::ArrivalOverflow {
                    stream: i,
                    cycle: a.arrival_cycle,
                    max: MAX_ARRIVAL_CYCLE,
                });
            }
            if a.arrival_cycle < prev {
                return Err(ServeError::NonMonotonicTrace {
                    stream: i,
                    cycle: a.arrival_cycle,
                    prev,
                });
            }
            if a.bytes.is_empty() {
                return Err(ServeError::EmptyStream { stream: i });
            }
            prev = a.arrival_cycle;
        }
        Ok(Trace { arrivals })
    }

    /// The arrivals, in admission order.
    pub fn arrivals(&self) -> &[StreamArrival] {
        &self.arrivals
    }

    /// Number of streams in the trace.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the trace has no arrivals.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Total input bytes across all arrivals.
    pub fn total_bytes(&self) -> usize {
        self.arrivals.iter().map(|a| a.bytes.len()).sum()
    }

    /// Deterministic synthetic trace: `n_streams` arrivals with
    /// LCG-sampled inter-arrival gaps in `[0, 2 × mean_gap]`, machines
    /// assigned round-robin-with-jitter over `n_machines`, and stream
    /// lengths in `len_range` with bytes drawn from `alphabet`.
    ///
    /// The generator is a bare 64-bit LCG keyed only by `seed` — same seed,
    /// same trace, on every platform and every run.
    ///
    /// # Panics
    ///
    /// On degenerate generator parameters (`n_machines == 0`, an empty
    /// `alphabet`, or an empty `len_range`) — these are programming errors
    /// in test/bench setup, not runtime inputs, so they stay asserts rather
    /// than [`crate::ServeError`]s.
    pub fn synthetic(
        seed: u64,
        n_streams: usize,
        n_machines: usize,
        mean_gap: u64,
        len_range: std::ops::Range<usize>,
        alphabet: &[u8],
    ) -> Self {
        // Materialize the streaming generator, so the two can never drift:
        // `SyntheticSource` *is* the definition of the synthetic workload.
        let source = crate::source::SyntheticSource::new(
            seed, n_streams, n_machines, mean_gap, len_range, alphabet,
        );
        Trace { arrivals: source.collect() }
    }

    /// A [`crate::TraceSource`] replaying this trace in admission order,
    /// one clone per pull: how [`crate::serve`] runs the streaming engine.
    pub fn source(&self) -> impl crate::TraceSource + '_ {
        crate::IterSource(self.arrivals.iter().cloned())
    }
}

/// Collects arrivals into a trace, stably sorting by arrival cycle —
/// identical semantics to [`Trace::from_arrivals`].
impl FromIterator<StreamArrival> for Trace {
    fn from_iter<I: IntoIterator<Item = StreamArrival>>(iter: I) -> Self {
        Trace::from_arrivals(iter.into_iter().collect())
    }
}

/// Minimal 64-bit LCG (Knuth's MMIX constants) — enough entropy for trace
/// shaping, zero dependencies, bit-stable everywhere. Shared with the
/// streaming [`crate::source::SyntheticSource`], which must replay the
/// exact sequence of [`Trace::synthetic`].
pub(crate) struct Lcg(u64);

impl Lcg {
    pub(crate) fn new(seed: u64) -> Self {
        // Scramble the seed so small seeds don't start in a low-entropy
        // regime.
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        self.0 =
            self.0.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        self.0
    }

    /// Uniform-ish sample in `[0, n)` (top bits; fine for workload shaping).
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            (self.next() >> 11) % n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_arrivals_sorts_stably() {
        let t = Trace::from_arrivals(vec![
            StreamArrival { arrival_cycle: 5, machine: 0, bytes: vec![1] },
            StreamArrival { arrival_cycle: 3, machine: 0, bytes: vec![2] },
            StreamArrival { arrival_cycle: 5, machine: 1, bytes: vec![3] },
        ]);
        let cycles: Vec<u64> = t.arrivals().iter().map(|a| a.arrival_cycle).collect();
        assert_eq!(cycles, vec![3, 5, 5]);
        // The two cycle-5 arrivals keep their original relative order.
        assert_eq!(t.arrivals()[1].bytes, vec![1]);
        assert_eq!(t.arrivals()[2].bytes, vec![3]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.total_bytes(), 3);
    }

    #[test]
    fn synthetic_traces_are_reproducible() {
        let a = Trace::synthetic(42, 20, 3, 100, 8..64, b"01");
        let b = Trace::synthetic(42, 20, 3, 100, 8..64, b"01");
        assert_eq!(a, b);
        let c = Trace::synthetic(43, 20, 3, 100, 8..64, b"01");
        assert_ne!(a, c, "different seeds diverge");
        assert_eq!(a.len(), 20);
        assert!(a.arrivals().windows(2).all(|w| w[0].arrival_cycle <= w[1].arrival_cycle));
        assert!(a.arrivals().iter().all(|s| (8..64).contains(&s.bytes.len())));
        assert!(a.arrivals().iter().all(|s| s.machine < 3));
        assert!(a.arrivals().iter().all(|s| s.bytes.iter().all(|b| b"01".contains(b))));
    }

    #[test]
    fn try_from_arrivals_rejects_non_monotonic_traces() {
        use crate::error::ServeError;
        let err = Trace::try_from_arrivals(vec![
            StreamArrival { arrival_cycle: 5, machine: 0, bytes: vec![1] },
            StreamArrival { arrival_cycle: 3, machine: 0, bytes: vec![2] },
        ])
        .unwrap_err();
        assert_eq!(err, ServeError::NonMonotonicTrace { stream: 1, cycle: 3, prev: 5 });
    }

    #[test]
    fn try_from_arrivals_rejects_overflowing_cycles() {
        use crate::error::ServeError;
        let err = Trace::try_from_arrivals(vec![StreamArrival {
            arrival_cycle: u64::MAX,
            machine: 0,
            bytes: vec![1],
        }])
        .unwrap_err();
        assert_eq!(
            err,
            ServeError::ArrivalOverflow {
                stream: 0,
                cycle: u64::MAX,
                max: super::MAX_ARRIVAL_CYCLE
            }
        );
    }

    #[test]
    fn try_from_arrivals_rejects_empty_streams() {
        use crate::error::ServeError;
        let err = Trace::try_from_arrivals(vec![
            StreamArrival { arrival_cycle: 0, machine: 0, bytes: vec![1] },
            StreamArrival { arrival_cycle: 1, machine: 0, bytes: vec![] },
        ])
        .unwrap_err();
        assert_eq!(err, ServeError::EmptyStream { stream: 1 });
    }

    #[test]
    fn try_from_arrivals_accepts_valid_histories() {
        let t = Trace::try_from_arrivals(vec![
            StreamArrival { arrival_cycle: 0, machine: 0, bytes: vec![1] },
            StreamArrival { arrival_cycle: 0, machine: 1, bytes: vec![2] },
            StreamArrival { arrival_cycle: 9, machine: 0, bytes: vec![3] },
        ])
        .unwrap();
        assert_eq!(t.len(), 3, "equal-cycle bursts are valid and keep their order");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Over random arrival lists — cycles starting at 0 or just below
        /// [`super::MAX_ARRIVAL_CYCLE`], steps that rise, fall or jump
        /// toward `u64::MAX`, and some empty payloads — the trace is
        /// accepted exactly when the reference finds no offending stream,
        /// and otherwise the error names the first offending stream with
        /// the reference's variant: overflow before order, order before
        /// emptiness.
        #[test]
        fn try_from_arrivals_matches_the_reference(
            near_max in 0u8..2,
            steps in proptest::collection::vec((0u8..10, 0u64..1500, 0u8..12), 0..24),
        ) {
            use crate::error::ServeError;
            let max = super::MAX_ARRIVAL_CYCLE;
            let mut cycle = if near_max == 1 { max - 4000 } else { 0 };
            let arrivals: Vec<StreamArrival> = steps
                .iter()
                .enumerate()
                .map(|(i, &(kind, delta, empty))| {
                    cycle = match kind {
                        0 => cycle.saturating_sub(delta + 1),
                        1 => u64::MAX - delta,
                        2 => max + delta % 2,
                        _ => cycle.saturating_add(delta),
                    };
                    let bytes = if empty == 0 { Vec::new() } else { vec![i as u8] };
                    StreamArrival { arrival_cycle: cycle, machine: 0, bytes }
                })
                .collect();
            let cycles: Vec<u64> = arrivals.iter().map(|a| a.arrival_cycle).collect();
            let first_bad = (0..arrivals.len()).find(|&i| {
                cycles[i] > max
                    || (i > 0 && cycles[i] < cycles[i - 1])
                    || arrivals[i].bytes.is_empty()
            });
            let expected = first_bad.map(|i| {
                if cycles[i] > max {
                    ServeError::ArrivalOverflow { stream: i, cycle: cycles[i], max }
                } else if i > 0 && cycles[i] < cycles[i - 1] {
                    ServeError::NonMonotonicTrace { stream: i, cycle: cycles[i], prev: cycles[i - 1] }
                } else {
                    ServeError::EmptyStream { stream: i }
                }
            });
            match Trace::try_from_arrivals(arrivals.clone()) {
                Ok(t) => {
                    proptest::prop_assert_eq!(expected, None);
                    proptest::prop_assert_eq!(t.arrivals(), &arrivals[..]);
                }
                Err(e) => proptest::prop_assert_eq!(Some(e), expected),
            }
        }
    }

    #[test]
    fn empty_traces_are_fine() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.total_bytes(), 0);
        let t = Trace::synthetic(1, 0, 2, 10, 1..2, b"a");
        assert!(t.is_empty());
    }
}
