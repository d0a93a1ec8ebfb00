//! Throughput-oriented stream-level parallelism (Algorithm 1, lines 2-3).
//!
//! Most prior GPU FSM engines assign *whole streams* to threads: thousands
//! of independent inputs keep the device busy and aggregate throughput is
//! excellent, but the response time of any single stream is a full
//! sequential scan (§II-B: such designs "ignore the peak performance, i.e.,
//! the response time of running over a single input stream"). This module
//! implements that classic design so the trade-off against GSpecPal's
//! latency-sensitive chunk parallelism can be measured rather than asserted
//! — see the `motivation` experiment in `gspecpal-bench`.

use gspecpal_fsm::StateId;
use gspecpal_gpu::{
    launch_grid, BlockRequirements, DeviceSpec, KernelStats, RoundKernel, RoundOutcome, ThreadCtx,
};

use crate::table::DeviceTable;

/// Block resources of a stream-scanning kernel: the hot transition table in
/// shared memory plus a small per-thread register state (cursor, state,
/// stream bounds).
pub fn stream_requirements(table: &DeviceTable<'_>, threads: u32) -> BlockRequirements {
    BlockRequirements { threads, shared_bytes: table.shared_footprint_bytes(), regs_per_thread: 32 }
}

/// Result of a stream-parallel batch run.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// Verified end state of each stream.
    pub end_states: Vec<StateId>,
    /// Accept decision per stream.
    pub accepted: Vec<bool>,
    /// Kernel statistics. `stats.cycles` is the batch completion time: the
    /// slowest stream of the last scheduling wave gates the kernel.
    pub stats: KernelStats,
    /// Total bytes consumed across all streams.
    pub total_bytes: usize,
    /// Cycle at which each stream's scan actually finished, on the batch
    /// timeline: the start of its block's scheduling wave plus its thread's
    /// own clock. Individual streams complete (and could be delivered)
    /// before the batch does — this is what honest per-stream latency
    /// percentiles are computed from. Always `≤ stats.cycles` per entry,
    /// with at least one stream in the last wave reaching close to the gate.
    pub stream_cycles: Vec<u64>,
}

impl BatchOutcome {
    /// Aggregate throughput in bytes per simulated cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        if self.stats.cycles == 0 {
            0.0
        } else {
            self.total_bytes as f64 / self.stats.cycles as f64
        }
    }

    /// Batch response time: the cycle the *whole* batch (and therefore its
    /// synchronous caller) completes. Individual streams finish earlier —
    /// see [`BatchOutcome::stream_cycles`] for the measured per-stream
    /// completion times this gate is the maximum of.
    pub fn response_cycles(&self) -> u64 {
        self.stats.cycles
    }
}

/// Runs `streams` over the same machine, one device thread per stream —
/// stream-level parallelism exactly as throughput-oriented engines do.
/// Batches larger than one block become a grid of occupancy-fitted blocks
/// scheduled in SM waves.
pub fn run_stream_parallel(
    spec: &DeviceSpec,
    table: &DeviceTable<'_>,
    streams: &[&[u8]],
) -> BatchOutcome {
    assert!(!streams.is_empty(), "need at least one stream");
    let mut kernel = StreamKernel {
        table,
        streams,
        end_states: vec![0; streams.len()],
        scan_cycles: vec![0; streams.len()],
    };
    let grid = launch_grid(spec, streams.len(), &mut kernel)
        .unwrap_or_else(|e| panic!("launch_grid: {e}"));
    let accepted = kernel.end_states.iter().map(|&s| table.dfa().is_accepting(s)).collect();
    // Place each stream on the batch timeline: its block's wave start plus
    // its own thread clock at scan completion.
    let wave_starts = grid.wave_starts();
    let (width, per_wave) = (grid.width as usize, grid.blocks_per_wave as usize);
    let stream_cycles = kernel
        .scan_cycles
        .iter()
        .enumerate()
        .map(|(i, &scan)| wave_starts[(i / width) / per_wave] + scan)
        .collect();
    BatchOutcome {
        end_states: kernel.end_states,
        accepted,
        stats: grid.fold(),
        total_bytes: streams.iter().map(|s| s.len()).sum(),
        stream_cycles,
    }
}

struct StreamKernel<'a, 'j> {
    table: &'a DeviceTable<'j>,
    streams: &'a [&'a [u8]],
    end_states: Vec<StateId>,
    /// Each stream's thread clock when its scan returned — the stream's
    /// completion time relative to its block's start.
    scan_cycles: Vec<u64>,
}

impl RoundKernel for StreamKernel<'_, '_> {
    fn requirements(&self, threads: u32) -> BlockRequirements {
        stream_requirements(self.table, threads)
    }

    fn round(&mut self, tid: usize, ctx: &mut ThreadCtx<'_>) -> RoundOutcome {
        let stream = self.streams[tid];
        self.end_states[tid] =
            self.table.run_chunk(ctx, stream, 0..stream.len(), self.table.dfa().start());
        self.scan_cycles[tid] = ctx.cycles();
        RoundOutcome::ACTIVE
    }

    fn after_sync(&mut self, _round: u64) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchemeConfig;
    use crate::run::SchemeKind;
    use crate::schemes::{run_scheme, Job};
    use gspecpal_fsm::examples::div7;

    fn streams_of(base: &[u8], n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| base.repeat(8 + i % 4)).collect()
    }

    /// `test_unit` narrowed so small batches span several blocks and waves:
    /// `n_sms` SMs holding one block of at most `block` threads each.
    fn narrow_spec(n_sms: u32, block: u32) -> DeviceSpec {
        let mut spec = DeviceSpec::test_unit();
        spec.n_sms = n_sms;
        spec.max_threads_per_block = block;
        spec.max_blocks_per_sm = 1;
        spec
    }

    #[test]
    fn stream_parallel_is_exact_per_stream() {
        let d = div7();
        let table = DeviceTable::transformed(&d, d.n_states());
        let streams = streams_of(b"11010101", 16);
        let refs: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
        let out = run_stream_parallel(&DeviceSpec::test_unit(), &table, &refs);
        for (i, s) in refs.iter().enumerate() {
            assert_eq!(out.end_states[i], d.run(s), "stream {i}");
            assert_eq!(out.accepted[i], d.accepts(s), "stream {i}");
        }
        assert_eq!(out.total_bytes, refs.iter().map(|s| s.len()).sum::<usize>());
    }

    #[test]
    fn throughput_beats_latency_mode_on_aggregate_but_not_response() {
        // The paper's §II-B trade-off, measured: processing B streams with
        // one thread each finishes the *batch* quickly, but a single
        // stream's response time equals the whole sequential scan — which
        // chunk-parallel speculation beats by an order of magnitude.
        let d = div7();
        let table = DeviceTable::transformed(&d, d.n_states());
        let spec = DeviceSpec::test_unit();
        let stream: Vec<u8> = b"110101011001".repeat(300);
        let copies: Vec<&[u8]> = (0..32).map(|_| stream.as_slice()).collect();

        // Throughput mode: 32 streams at once.
        let batch = run_stream_parallel(&spec, &table, &copies);

        // Latency mode: one stream, chunk-parallel.
        let config = SchemeConfig { n_chunks: 32, ..SchemeConfig::default() };
        let job = Job::new(&spec, &table, &stream, config).unwrap();
        let single = run_scheme(SchemeKind::Nf, &job);
        assert_eq!(single.end_state, batch.end_states[0]);

        // Aggregate throughput: batch wins (it amortizes everything).
        let latency_mode_throughput = stream.len() as f64 / single.total_cycles() as f64;
        assert!(
            batch.bytes_per_cycle() > latency_mode_throughput,
            "batch {:.3} B/cy vs latency-mode {:.3} B/cy",
            batch.bytes_per_cycle(),
            latency_mode_throughput
        );

        // Response time of one stream: chunk parallelism wins big.
        assert!(
            single.total_cycles() * 2 < batch.response_cycles(),
            "speculative {} vs stream-parallel {}",
            single.total_cycles(),
            batch.response_cycles()
        );
    }

    #[test]
    fn grid_batches_agree_with_block_batches() {
        let d = div7();
        let table = DeviceTable::transformed(&d, d.n_states());
        // 40 streams in blocks of 8 on 2 one-block SMs: 5 blocks, 3 waves.
        let spec = narrow_spec(2, 8);
        let streams = streams_of(b"1101", 40);
        let refs: Vec<&[u8]> = streams.iter().map(|s| s.as_slice()).collect();
        let grid = run_stream_parallel(&spec, &table, &refs);
        assert_eq!(grid.stats.shape.expect("grid launches report a shape").waves, 3);
        for (i, s) in refs.iter().enumerate() {
            assert_eq!(grid.end_states[i], d.run(s), "stream {i}");
        }
        // One big block gives the same answers.
        let block = run_stream_parallel(&DeviceSpec::test_unit(), &table, &refs);
        assert_eq!(block.stats.shape.expect("grid launches report a shape").waves, 1);
        assert_eq!(grid.end_states, block.end_states);
        assert_eq!(grid.total_bytes, block.total_bytes);
    }

    #[test]
    fn grid_waves_serialize() {
        let d = div7();
        let table = DeviceTable::transformed(&d, d.n_states());
        // Only one block may be resident at a time, so 4 blocks of 1 thread
        // on 1 SM serialize into 4 waves.
        let stream: Vec<u8> = b"10".repeat(500);
        let refs: Vec<&[u8]> = (0..4).map(|_| stream.as_slice()).collect();
        let four_waves = run_stream_parallel(&narrow_spec(1, 1), &table, &refs);
        // 1 block of 4 threads: a single wave.
        let one_wave = run_stream_parallel(&narrow_spec(1, 4), &table, &refs);
        assert!(four_waves.stats.cycles > 3 * one_wave.stats.cycles);
    }

    #[test]
    fn zero_cycle_outcomes_report_zero_throughput() {
        // A fabricated zero-cycle batch must not divide by zero: throughput
        // degrades to 0.0 and the response time is the (zero) kernel time.
        let out = BatchOutcome {
            end_states: vec![0],
            accepted: vec![false],
            stats: KernelStats::default(),
            total_bytes: 1024,
            stream_cycles: vec![0],
        };
        assert_eq!(out.bytes_per_cycle(), 0.0);
        assert_eq!(out.response_cycles(), 0);
    }

    #[test]
    #[should_panic(expected = "need at least one stream")]
    fn empty_batches_are_rejected() {
        let d = div7();
        let table = DeviceTable::transformed(&d, d.n_states());
        let _ = run_stream_parallel(&DeviceSpec::test_unit(), &table, &[]);
    }

    #[test]
    #[should_panic(expected = "need at least one stream")]
    fn empty_grid_batches_are_rejected() {
        let d = div7();
        let table = DeviceTable::transformed(&d, d.n_states());
        let _ = run_stream_parallel(&narrow_spec(2, 8), &table, &[]);
    }

    #[test]
    fn zero_length_streams_scan_to_the_start_state() {
        // Streams may be empty even though the batch may not: a zero-byte
        // stream ends where it starts, contributes no bytes, and the batch's
        // cycle count stays positive (the round + barrier still happen), so
        // bytes_per_cycle stays finite.
        let d = div7();
        let table = DeviceTable::transformed(&d, d.n_states());
        let empty: &[u8] = b"";
        let some: &[u8] = b"110101";
        let out = run_stream_parallel(&DeviceSpec::test_unit(), &table, &[empty, some]);
        assert_eq!(out.end_states[0], d.start());
        assert_eq!(out.end_states[1], d.run(some));
        assert_eq!(out.total_bytes, some.len());
        assert!(out.response_cycles() > 0);
        assert!(out.bytes_per_cycle().is_finite());
    }

    #[test]
    fn uneven_streams_gate_on_the_longest() {
        let d = div7();
        let table = DeviceTable::transformed(&d, d.n_states());
        let spec = DeviceSpec::test_unit();
        let short: Vec<u8> = b"10".repeat(10);
        let long: Vec<u8> = b"10".repeat(2000);
        let out = run_stream_parallel(&spec, &table, &[&short, &long]);
        let solo = run_stream_parallel(&spec, &table, &[&long]);
        // The short stream cannot make the batch faster than the long one.
        assert!(out.stats.cycles >= solo.stats.cycles);
    }

    #[test]
    fn stream_completion_is_measured_not_asserted() {
        // The slowest-stream-gates-the-batch claim, now checked against
        // measured per-stream clocks: the short stream's thread finishes
        // far earlier than the long one's, no stream outlives the batch,
        // and the slowest stream is what the batch waits for.
        let d = div7();
        let table = DeviceTable::transformed(&d, d.n_states());
        let spec = DeviceSpec::test_unit();
        let short: Vec<u8> = b"10".repeat(10);
        let long: Vec<u8> = b"10".repeat(2000);
        let out = run_stream_parallel(&spec, &table, &[&short, &long]);
        assert_eq!(out.stream_cycles.len(), 2);
        assert!(
            out.stream_cycles[0] * 10 < out.stream_cycles[1],
            "short {} vs long {}",
            out.stream_cycles[0],
            out.stream_cycles[1]
        );
        let slowest = out.stream_cycles[1];
        assert!(slowest <= out.response_cycles());
        // The gate is the slowest stream up to end-of-kernel bookkeeping
        // (one final barrier's worth of cycles).
        assert!(out.response_cycles() - slowest <= spec.barrier_latency);
    }

    #[test]
    fn later_waves_complete_later() {
        let d = div7();
        let table = DeviceTable::transformed(&d, d.n_states());
        // 4 equal streams in 1-thread blocks on 1 SM: 4 serialized waves,
        // so completions must be strictly increasing.
        let stream: Vec<u8> = b"10".repeat(500);
        let refs: Vec<&[u8]> = (0..4).map(|_| stream.as_slice()).collect();
        let out = run_stream_parallel(&narrow_spec(1, 1), &table, &refs);
        for pair in out.stream_cycles.windows(2) {
            assert!(pair[0] < pair[1], "wave completions {:?}", out.stream_cycles);
        }
        assert!(out.stream_cycles[3] <= out.stats.cycles);
    }
}
