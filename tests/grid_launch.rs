//! Multi-block grid launches: cost-model scaling past one block and scheme
//! exactness at grid scale.

use gspecpal::config::SchemeConfig;
use gspecpal::predict::predict;
use gspecpal::run::SchemeKind;
use gspecpal::schemes::{run_scheme, Job};
use gspecpal::table::DeviceTable;
use gspecpal_fsm::combinators::keyword_dfa;
use gspecpal_fsm::examples::div7;
use gspecpal_gpu::DeviceSpec;

/// Every registered scheme stays exact at a 1024-chunk grid (dozens of
/// blocks on the test device), which exercises SFA's per-block mapping
/// derivation and tree composition across many block seams.
#[test]
fn every_scheme_is_exact_on_a_1024_chunk_grid() {
    let spec = DeviceSpec::test_unit();
    let d = div7();
    let table = DeviceTable::transformed(&d, d.n_states());
    let input: Vec<u8> = b"1101010110010111".repeat(256); // 4096 bytes
    let config = SchemeConfig { n_chunks: 1024, ..SchemeConfig::default() };
    let job = Job::new(&spec, &table, &input, config).unwrap();
    let truth = d.run(&input);
    for kind in SchemeKind::all() {
        let out = run_scheme(kind, &job);
        assert_eq!(out.end_state, truth, "{kind:?} must stay exact at 1024 chunks");
    }
}

/// The exec and verification phases of a multi-block run carry the
/// occupancy shape the grid scheduler chose, so callers can see waves and
/// resident blocks per SM.
#[test]
fn grid_runs_report_launch_shapes() {
    let d = div7();
    let spec = DeviceSpec::test_unit();
    let table = DeviceTable::transformed(&d, d.n_states());
    let input: Vec<u8> = b"1101010110010111".repeat(60);
    let config = SchemeConfig { n_chunks: 200, ..SchemeConfig::default() };
    let job = Job::new(&spec, &table, &input, config).unwrap();
    let out = run_scheme(SchemeKind::Nf, &job);
    let exec_shape = out.execute.shape.expect("multi-block exec must record a shape");
    assert!(exec_shape.waves >= 1);
    assert!(exec_shape.blocks_per_wave >= 1);
    let verify_shape = out.verify.shape.expect("multi-block verify must record a shape");
    assert!(verify_shape.waves >= 1);
}

/// The prediction cost model must keep growing past one block instead of
/// silently truncating at the block capacity (the old clamp bug).
#[test]
fn prediction_cost_scales_past_one_block() {
    let d = div7();
    let spec = DeviceSpec::test_unit(); // capacity 64, 1 SM
    let input: Vec<u8> = b"10110101".repeat(64);
    let chunks_64 = gspecpal::partition::partition(input.len(), 64);
    let chunks_256 = gspecpal::partition::partition(input.len(), 256);
    let one_block = predict(&d, &input, &chunks_64, 2, &spec).stats;
    let four_blocks = predict(&d, &input, &chunks_256, 2, &spec).stats;
    // On a 1-SM, 4-resident-block device the four blocks' prediction rounds
    // cost strictly more cycles than one block's (more chunks → more work),
    // not the same (the clamp would have frozen the cost at 64 threads).
    assert!(
        four_blocks.cycles > one_block.cycles,
        "256-chunk prediction ({}) must out-cost 64-chunk prediction ({})",
        four_blocks.cycles,
        one_block.cycles
    );
    assert!(four_blocks.alu_ops > one_block.alu_ops);
}

/// An 8192-chunk job on the RTX 3090 spec (block capacity 1024 → 8 blocks)
/// launches and stays exact for every scheme.
#[test]
fn n8192_chunks_on_rtx3090_is_exact() {
    let d = keyword_dfa(&[b"attack", b"worm"]).unwrap();
    let spec = DeviceSpec::rtx3090();
    let table = DeviceTable::transformed(&d, d.n_states());
    let input = b"benign stream attack worm padding ".repeat(300); // 10200 bytes
    let config = SchemeConfig { n_chunks: 8192, ..SchemeConfig::default() };
    let job = Job::new(&spec, &table, &input, config).unwrap();
    let truth = d.run(&input);
    for kind in [SchemeKind::Naive, SchemeKind::Sre, SchemeKind::Rr, SchemeKind::Nf] {
        let out = run_scheme(kind, &job);
        assert_eq!(out.end_state, truth, "{kind:?}");
        assert_eq!(out.accepted, d.accepts(&input), "{kind:?}");
    }
}

/// Every scheme stays exact when the chunk count spills across blocks on the
/// tiny test device (64-thread blocks), on both convergent and
/// non-convergent machines.
#[test]
fn all_schemes_exact_beyond_one_block() {
    let spec = DeviceSpec::test_unit();
    let machines: [(gspecpal_fsm::Dfa, Vec<u8>); 2] = [
        (div7(), b"1101010110010111".repeat(40)),
        (
            keyword_dfa(&[b"virus", b"trojan"]).unwrap(),
            b"clean data virus sample trojan xyz ".repeat(20),
        ),
    ];
    for (d, input) in &machines {
        let table = DeviceTable::transformed(d, d.n_states());
        let truth = d.run(input);
        for n_chunks in [100, 130] {
            let config = SchemeConfig { n_chunks, ..SchemeConfig::default() };
            let job = Job::new(&spec, &table, input, config).unwrap();
            // The scheme list comes from the registry, not a hand-copied
            // array: a scheme added to `SchemeKind::all()` is covered here
            // automatically.
            for kind in SchemeKind::all() {
                let out = run_scheme(kind, &job);
                assert_eq!(out.end_state, truth, "{kind:?} n_chunks={n_chunks}");
                let mut s = d.start();
                for (i, r) in job.chunks().into_iter().enumerate() {
                    s = d.run_from(s, &input[r.clone()]);
                    assert_eq!(out.chunk_ends[i], s, "{kind:?} n_chunks={n_chunks} chunk {i}");
                }
            }
        }
    }
}
