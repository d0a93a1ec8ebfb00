//! Device descriptions.

/// Cost parameters of a simulated GPU.
///
/// Latencies are *amortized issue costs* in cycles, not raw pipeline depths:
/// resident warps hide most raw latency, so what a throughput model needs is
/// the effective per-access cost ratios. The defaults follow public Ampere
/// microbenchmark ratios (shared ≈ 20× cheaper than an uncoalesced global
/// access); the paper's experiments all report normalized quantities, so only
/// these ratios matter for reproducing its figures.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, for reports.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub n_sms: u32,
    /// CUDA cores per SM.
    pub cores_per_sm: u32,
    /// Shared memory available to a thread block, in bytes.
    pub shared_mem_bytes: usize,
    /// Threads per warp.
    pub warp_size: u32,
    /// Maximum threads in one block.
    pub max_threads_per_block: u32,
    /// Maximum threads resident on one SM.
    pub max_threads_per_sm: u32,
    /// 32-bit registers in one SM's register file.
    pub registers_per_sm: u32,
    /// Hardware cap on resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Cycles per shared-memory access.
    pub shared_latency: u64,
    /// Cycles per global-memory *transaction* (one coalesced segment).
    pub global_latency: u64,
    /// Bytes per global transaction segment (coalescing granularity).
    pub global_segment_bytes: u64,
    /// Cycles per ALU op.
    pub alu_latency: u64,
    /// Cycles for a warp shuffle / thread-communication step.
    pub shuffle_latency: u64,
    /// Cycles consumed by a block-wide barrier.
    pub barrier_latency: u64,
    /// Cycles for an atomic RMW on shared memory.
    pub atomic_latency: u64,
    /// Effective extra cycles of a shared-memory hash-table probe that
    /// precedes a row access (PM's cached-row test, §IV-B). Banked shared
    /// memory lets the probe pipeline with the following row fetch, so the
    /// *additional* latency is below a standalone shared access.
    pub hash_probe_latency: u64,
    /// Memory-bandwidth roofline: issue cost per global transaction in
    /// *milli-cycles*. A round's wall time is at least
    /// `transactions_issued × bandwidth_millicycles_per_txn / 1000`,
    /// modelling the contention the paper observes when many threads recover
    /// concurrently (Fig 9). The default reflects a single resident block's
    /// share of an SM's load/store throughput.
    pub bandwidth_millicycles_per_txn: u64,
    /// Fixed cost of one host↔device copy in core cycles: DMA descriptor
    /// setup, PCIe round trip, and driver launch overhead. Charged once per
    /// copy regardless of size, which is why serving pipelines batch small
    /// streams instead of copying them one by one.
    pub copy_latency_cycles: u64,
    /// Streaming cost of a host↔device copy in *milli-cycles per byte* at
    /// the core clock. The RTX 3090 default models PCIe 4.0 ×16 (~25 GB/s
    /// effective): at 1.695 GHz that is ~14.7 bytes per core cycle, i.e.
    /// 68 mcyc/B. Copy engines (one per direction) run concurrently with
    /// compute, so these cycles only bound the copy queues — unless a
    /// pipeline serializes them (see `gspecpal-serve`).
    pub copy_millicycles_per_byte: u64,
    /// Independent DMA engines. Ampere GeForce parts expose two (one per
    /// direction), which is what makes copy/compute overlap and
    /// double-buffered serving possible.
    pub copy_engines: u32,
    /// Core clock in GHz, to convert cycles to wall time for reports.
    pub clock_ghz: f64,
}

impl DeviceSpec {
    /// The paper's evaluation platform (§V-A): GeForce RTX 3090, Ampere —
    /// 82 SMs × 128 cores, 100 KB shared memory per SM, warp size 32.
    pub fn rtx3090() -> Self {
        DeviceSpec {
            name: "GeForce RTX 3090 (simulated)",
            n_sms: 82,
            cores_per_sm: 128,
            shared_mem_bytes: 100 * 1024,
            warp_size: 32,
            max_threads_per_block: 1024,
            max_threads_per_sm: 1536,
            registers_per_sm: 65_536,
            max_blocks_per_sm: 16,
            shared_latency: 2,
            global_latency: 36,
            global_segment_bytes: 32,
            alu_latency: 1,
            shuffle_latency: 4,
            barrier_latency: 8,
            atomic_latency: 12,
            hash_probe_latency: 1,
            bandwidth_millicycles_per_txn: 600,
            copy_latency_cycles: 3000,
            copy_millicycles_per_byte: 68,
            copy_engines: 2,
            clock_ghz: 1.695,
        }
    }

    /// An NVIDIA A100 (Ampere, SXM): 108 SMs, 164 KB shared memory per SM
    /// configurable to the block, wider register files — the data-center
    /// sibling of the paper's RTX 3090. Included to check that the
    /// reproduction's conclusions are not artifacts of one device shape.
    pub fn a100() -> Self {
        DeviceSpec {
            name: "A100-SXM (simulated)",
            n_sms: 108,
            cores_per_sm: 64,
            shared_mem_bytes: 164 * 1024,
            warp_size: 32,
            max_threads_per_block: 1024,
            max_threads_per_sm: 2048,
            registers_per_sm: 65_536,
            max_blocks_per_sm: 32,
            shared_latency: 2,
            global_latency: 33,
            global_segment_bytes: 32,
            alu_latency: 1,
            shuffle_latency: 4,
            barrier_latency: 8,
            atomic_latency: 12,
            hash_probe_latency: 1,
            bandwidth_millicycles_per_txn: 450,
            // SXM parts ride NVLink/PCIe 4.0; the effective host link is
            // similar per direction, at a slower core clock.
            copy_latency_cycles: 2500,
            copy_millicycles_per_byte: 56,
            copy_engines: 2,
            clock_ghz: 1.41,
        }
    }

    /// A Tesla T4-class part (Turing, inference SKU): 40 SMs, 64 KB shared
    /// memory per SM, a PCIe 3.0 ×16 host link (~12 GB/s effective — about
    /// half the RTX 3090's PCIe 4.0 bandwidth). The small device in a
    /// heterogeneous fleet: fewer SMs and less shared memory mean lower
    /// occupancy targets and fewer hot rows, and the slower link makes
    /// transfer charging (and table-residency misses) proportionally more
    /// expensive.
    pub fn t4() -> Self {
        DeviceSpec {
            name: "Tesla T4 (simulated)",
            n_sms: 40,
            cores_per_sm: 64,
            shared_mem_bytes: 64 * 1024,
            warp_size: 32,
            max_threads_per_block: 1024,
            max_threads_per_sm: 1024,
            registers_per_sm: 65_536,
            max_blocks_per_sm: 16,
            shared_latency: 2,
            global_latency: 40,
            global_segment_bytes: 32,
            alu_latency: 1,
            shuffle_latency: 4,
            barrier_latency: 8,
            atomic_latency: 12,
            hash_probe_latency: 1,
            bandwidth_millicycles_per_txn: 900,
            // PCIe 3.0 ×16 at ~12 GB/s effective: at 1.59 GHz that is
            // ~7.5 bytes per core cycle, i.e. 132 mcyc/B, with a longer
            // per-copy setup than the desktop Ampere part.
            copy_latency_cycles: 3500,
            copy_millicycles_per_byte: 132,
            copy_engines: 2,
            clock_ghz: 1.59,
        }
    }

    /// A tiny device for unit tests: everything costs 1 cycle and segments
    /// are 4 bytes, so expected counts are easy to compute by hand.
    pub fn test_unit() -> Self {
        DeviceSpec {
            name: "unit-test device",
            n_sms: 1,
            cores_per_sm: 32,
            shared_mem_bytes: 16 * 1024,
            warp_size: 4,
            max_threads_per_block: 64,
            max_threads_per_sm: 128,
            registers_per_sm: 4096,
            max_blocks_per_sm: 4,
            shared_latency: 1,
            global_latency: 1,
            global_segment_bytes: 4,
            alu_latency: 1,
            shuffle_latency: 1,
            barrier_latency: 1,
            atomic_latency: 1,
            hash_probe_latency: 1,
            bandwidth_millicycles_per_txn: 0,
            // 1 cycle of setup + 1 cycle per byte: copy costs are trivial to
            // compute by hand in tests (`copy_cycles(n) == 1 + n`).
            copy_latency_cycles: 1,
            copy_millicycles_per_byte: 1000,
            copy_engines: 2,
            clock_ghz: 1.0,
        }
    }

    /// Largest accepted value of a per-access cost field: 2^24 cycles
    /// (milli-cycles for the bandwidth and copy rates), four orders of
    /// magnitude above any real device. It keeps the simulator's cycle sums
    /// far below the `u64` limit.
    pub const MAX_COST: u64 = 1 << 24;

    /// Largest accepted `max_threads_per_block`. The simulator keeps a
    /// clock per thread of a block and tries every narrower width when it
    /// fits a launch, so the block size bounds host memory and time.
    pub const MAX_BLOCK_THREADS: u32 = 1 << 16;

    /// Checks that the simulator can run on this device without dividing
    /// by zero or overflowing a cycle count. Every field the simulator
    /// divides by must be positive: `warp_size` (warps per block),
    /// `global_segment_bytes` (coalescing segments), `max_threads_per_sm`
    /// (occupancy) and `clock_ghz` (cycles to time, which must also be
    /// finite). `max_threads_per_block` must lie in
    /// `1..=`[`Self::MAX_BLOCK_THREADS`], and every latency and rate at most
    /// [`Self::MAX_COST`].
    pub fn validate(&self) -> Result<(), SpecError> {
        let fail = |field, problem: String| Err(SpecError { field, problem });
        for (field, value) in [
            ("warp_size", u64::from(self.warp_size)),
            ("global_segment_bytes", self.global_segment_bytes),
            ("max_threads_per_sm", u64::from(self.max_threads_per_sm)),
        ] {
            if value == 0 {
                return fail(field, "must be positive".into());
            }
        }
        if !(1..=Self::MAX_BLOCK_THREADS).contains(&self.max_threads_per_block) {
            let got = self.max_threads_per_block;
            return fail(
                "max_threads_per_block",
                format!("must be in 1..={}, got {got}", Self::MAX_BLOCK_THREADS),
            );
        }
        if !(self.clock_ghz.is_finite() && self.clock_ghz > 0.0) {
            return fail(
                "clock_ghz",
                format!("must be positive and finite, got {}", self.clock_ghz),
            );
        }
        for (field, value) in [
            ("shared_latency", self.shared_latency),
            ("global_latency", self.global_latency),
            ("alu_latency", self.alu_latency),
            ("shuffle_latency", self.shuffle_latency),
            ("barrier_latency", self.barrier_latency),
            ("atomic_latency", self.atomic_latency),
            ("hash_probe_latency", self.hash_probe_latency),
            ("bandwidth_millicycles_per_txn", self.bandwidth_millicycles_per_txn),
            ("copy_latency_cycles", self.copy_latency_cycles),
            ("copy_millicycles_per_byte", self.copy_millicycles_per_byte),
        ] {
            if value > Self::MAX_COST {
                return fail(field, format!("must be at most {}, got {value}", Self::MAX_COST));
            }
        }
        Ok(())
    }

    /// Converts cycles to microseconds at this device's clock.
    pub fn cycles_to_us(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1e3)
    }

    /// Core cycles one host↔device copy of `bytes` bytes occupies its copy
    /// engine for: the fixed per-copy latency plus the streaming cost
    /// (`copy_millicycles_per_byte`, rounded up). A zero-byte copy still
    /// pays the setup latency — exactly the overhead batching amortizes.
    pub fn copy_cycles(&self, bytes: usize) -> u64 {
        self.copy_latency_cycles + (bytes as u64 * self.copy_millicycles_per_byte).div_ceil(1000)
    }

    /// The coalescing segments a global access of `bytes` bytes at `offset`
    /// touches: what [`crate::ThreadCtx::global`] charges one transaction or
    /// hit each for, and what a [`crate::ThreadCtx::global_batch`] list is
    /// made of. Never empty: a zero-byte access touches its offset's
    /// segment.
    #[inline]
    pub fn segments(&self, offset: u64, bytes: u64) -> std::ops::Range<u64> {
        let seg_size = self.global_segment_bytes;
        let last = offset + bytes.max(1) - 1;
        // Every shipped device has power-of-two segments: shift, not divide,
        // on the simulator's hottest path.
        if seg_size.is_power_of_two() {
            let shift = seg_size.trailing_zeros();
            offset >> shift..(last >> shift) + 1
        } else {
            offset / seg_size..last / seg_size + 1
        }
    }
}

/// Why [`DeviceSpec::validate`] rejected a device.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    /// The offending field.
    pub field: &'static str,
    /// What was wrong with it.
    pub problem: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid device: {} {}", self.field, self.problem)
    }
}

impl std::error::Error for SpecError {}

/// Cost parameters of one inter-device link — the fabric a fleet migrates
/// transition tables and stream state over when it rebalances shards.
///
/// The model mirrors [`DeviceSpec::copy_cycles`]: a fixed per-transfer
/// setup latency plus a streaming cost in milli-cycles per byte, all in
/// integer cycles on the fleet clock so link charging stays bit-exact. A
/// transfer between two devices is governed by the *slower* of their
/// attach links (the bytes traverse both).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkSpec {
    /// Fabric name, for reports.
    pub name: &'static str,
    /// Fixed cost of one transfer over the link, in cycles: route setup,
    /// handshake, and (for host-mediated fabrics) the bounce buffer.
    pub latency_cycles: u64,
    /// Streaming cost in milli-cycles per byte at the fleet clock.
    pub millicycles_per_byte: u64,
}

impl LinkSpec {
    /// NVLink 3.0 (A100 generation): ~300 GB/s per direction. At a
    /// ~1.4 GHz core clock that is ~213 bytes per cycle, i.e. 5 mcyc/B,
    /// with a short setup.
    pub fn nvlink3() -> Self {
        LinkSpec { name: "nvlink3", latency_cycles: 700, millicycles_per_byte: 5 }
    }

    /// PCIe 4.0 ×16 (~25 GB/s effective) — matches the RTX 3090's host
    /// link parameters, but as a peer fabric (transfers bounce through
    /// host memory, hence the higher setup cost).
    pub fn pcie4() -> Self {
        LinkSpec { name: "pcie4", latency_cycles: 6000, millicycles_per_byte: 68 }
    }

    /// PCIe 3.0 ×16 (~12 GB/s effective) — the T4-class attach.
    pub fn pcie3() -> Self {
        LinkSpec { name: "pcie3", latency_cycles: 7000, millicycles_per_byte: 132 }
    }

    /// A trivial link for unit tests: `copy_cycles(n) == 1 + n`.
    pub fn test_unit() -> Self {
        LinkSpec { name: "unit-test link", latency_cycles: 1, millicycles_per_byte: 1000 }
    }

    /// Cycles one transfer of `bytes` bytes occupies the link for.
    pub fn copy_cycles(&self, bytes: usize) -> u64 {
        self.latency_cycles + (bytes as u64 * self.millicycles_per_byte).div_ceil(1000)
    }

    /// The governing link of a transfer that traverses both `self` and
    /// `other`: whichever would take longer end to end for this size.
    pub fn slower_of<'a>(&'a self, other: &'a LinkSpec, bytes: usize) -> &'a LinkSpec {
        if self.copy_cycles(bytes) >= other.copy_cycles(bytes) {
            self
        } else {
            other
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtx3090_matches_paper_specs() {
        let d = DeviceSpec::rtx3090();
        assert_eq!(d.n_sms, 82);
        assert_eq!(d.cores_per_sm, 128);
        assert_eq!(d.shared_mem_bytes, 100 * 1024);
        assert_eq!(d.warp_size, 32);
    }

    #[test]
    fn shared_is_much_cheaper_than_global() {
        let d = DeviceSpec::rtx3090();
        assert!(d.global_latency >= 10 * d.shared_latency);
    }

    #[test]
    fn a100_has_more_shared_memory_than_rtx3090() {
        let a = DeviceSpec::a100();
        let r = DeviceSpec::rtx3090();
        assert!(a.shared_mem_bytes > r.shared_mem_bytes);
        assert!(a.n_sms > r.n_sms);
    }

    #[test]
    fn segments_are_the_division_of_the_byte_range() {
        for seg_size in [1, 3, 4, 24, 32, 33, 64] {
            let spec = DeviceSpec { global_segment_bytes: seg_size, ..DeviceSpec::test_unit() };
            for offset in 0..200 {
                for bytes in 0..40 {
                    let last = offset + u64::max(bytes, 1) - 1;
                    assert_eq!(
                        spec.segments(offset, bytes),
                        offset / seg_size..last / seg_size + 1,
                        "{seg_size}-byte segments, {bytes} bytes at {offset}"
                    );
                }
            }
        }
    }

    #[test]
    fn cycle_conversion() {
        let d = DeviceSpec::test_unit();
        assert!((d.cycles_to_us(1000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn copy_cycles_are_latency_plus_bandwidth() {
        let d = DeviceSpec::test_unit();
        assert_eq!(d.copy_cycles(0), 1, "empty copies still pay the setup latency");
        assert_eq!(d.copy_cycles(1), 2);
        assert_eq!(d.copy_cycles(4096), 1 + 4096);
    }

    #[test]
    fn rtx3090_copy_bandwidth_matches_pcie4() {
        // ~68 mcyc/B at 1.695 GHz is ~25 GB/s — PCIe 4.0 ×16 effective.
        let d = DeviceSpec::rtx3090();
        let bytes = 1 << 20;
        let cycles = d.copy_cycles(bytes) - d.copy_latency_cycles;
        let gb_per_s = bytes as f64 / (cycles as f64 / (d.clock_ghz * 1e9)) / 1e9;
        assert!((20.0..30.0).contains(&gb_per_s), "{gb_per_s} GB/s");
        assert_eq!(d.copy_engines, 2);
    }

    #[test]
    fn t4_is_the_small_fleet_device() {
        let t = DeviceSpec::t4();
        let r = DeviceSpec::rtx3090();
        assert!(t.n_sms < r.n_sms, "fewer SMs than the desktop part");
        assert!(t.shared_mem_bytes < r.shared_mem_bytes, "less shared memory");
        assert!(
            t.copy_millicycles_per_byte > r.copy_millicycles_per_byte,
            "slower host link (PCIe 3.0 vs 4.0)"
        );
    }

    #[test]
    fn t4_copy_bandwidth_matches_pcie3() {
        // ~132 mcyc/B at 1.59 GHz is ~12 GB/s — PCIe 3.0 ×16 effective.
        let d = DeviceSpec::t4();
        let bytes = 1 << 20;
        let cycles = d.copy_cycles(bytes) - d.copy_latency_cycles;
        let gb_per_s = bytes as f64 / (cycles as f64 / (d.clock_ghz * 1e9)) / 1e9;
        assert!((9.0..15.0).contains(&gb_per_s), "{gb_per_s} GB/s");
    }

    #[test]
    fn shipped_devices_validate() {
        for d in
            [DeviceSpec::rtx3090(), DeviceSpec::a100(), DeviceSpec::t4(), DeviceSpec::test_unit()]
        {
            assert_eq!(d.validate(), Ok(()), "{}", d.name);
        }
    }

    #[test]
    fn validate_names_the_offending_field() {
        let base = DeviceSpec::rtx3090;
        for (field, d) in [
            ("warp_size", DeviceSpec { warp_size: 0, ..base() }),
            ("global_segment_bytes", DeviceSpec { global_segment_bytes: 0, ..base() }),
            ("max_threads_per_sm", DeviceSpec { max_threads_per_sm: 0, ..base() }),
            ("max_threads_per_block", DeviceSpec { max_threads_per_block: 0, ..base() }),
            ("max_threads_per_block", DeviceSpec { max_threads_per_block: u32::MAX, ..base() }),
            ("clock_ghz", DeviceSpec { clock_ghz: f64::NAN, ..base() }),
            ("global_latency", DeviceSpec { global_latency: u64::MAX, ..base() }),
        ] {
            let err = d.validate().unwrap_err();
            assert_eq!(err.field, field);
            assert!(err.to_string().contains(field), "{err}");
        }
    }

    #[test]
    fn link_copy_cycles_are_latency_plus_bandwidth() {
        let l = LinkSpec::test_unit();
        assert_eq!(l.copy_cycles(0), 1);
        assert_eq!(l.copy_cycles(4096), 1 + 4096);
    }

    #[test]
    fn nvlink_beats_pcie_and_the_slower_link_governs() {
        let nv = LinkSpec::nvlink3();
        let p4 = LinkSpec::pcie4();
        let p3 = LinkSpec::pcie3();
        let bytes = 1 << 20;
        assert!(nv.copy_cycles(bytes) < p4.copy_cycles(bytes));
        assert!(p4.copy_cycles(bytes) < p3.copy_cycles(bytes));
        assert_eq!(nv.slower_of(&p3, bytes).name, "pcie3");
        assert_eq!(p3.slower_of(&nv, bytes).name, "pcie3");
    }
}
