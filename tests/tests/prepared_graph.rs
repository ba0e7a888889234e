//! Compile-once executor parity: a [`PreparedGraph`] must be a pure
//! amortization of [`run_emulated`] — bit-identical outputs and
//! identical cycle totals across repeated runs, both emulation paths,
//! every thread count, multi-token linears and uneven tile counts.

use nm_compiler::exec::run_emulated;
use nm_compiler::plan::compile;
use nm_compiler::tiling::tile_conv;
use nm_compiler::{ExecTier, KernelChoice, Options, PreparedGraph, Target};
use nm_core::quant::Requant;
use nm_core::sparsity::Nm;
use nm_core::{ConvGeom, FcGeom, Tensor};
use nm_integration::{make_exact_nm, random_i8};
use nm_models::vit::vit_tiny_sparse_for_tests;
use nm_nn::graph::Graph;
use nm_nn::layer::{ConvLayer, LinearLayer};
use nm_nn::rng::XorShift;
use nm_nn::GraphBuilder;

/// An L1 budget under which [`conv_fc_graph`]'s convolution tiles to an
/// odd tile count ≥ 5 (asserted in the parallel test) — so no even
/// thread split divides the work evenly.
const TILING_L1_BUDGET: usize = 8000;

/// A conv+fc graph used by the parity tests.
fn conv_fc_graph(nm: Nm) -> (Graph, Tensor<i8>) {
    let mut cw = random_i8(16 * 3 * 3 * 16, 3);
    make_exact_nm(&mut cw, 16, 3 * 3 * 16, nm);
    let conv = ConvLayer::new(
        ConvGeom::square(16, 16, 14, 3, 1, 1).unwrap(),
        cw,
        Requant::for_dot_len(3 * 3 * 16),
    )
    .unwrap();
    let mut fcw = random_i8(6 * 16, 5);
    make_exact_nm(&mut fcw, 6, 16, nm);
    let fc = LinearLayer::new(FcGeom::new(16, 6).unwrap(), fcw, Requant::for_dot_len(16)).unwrap();
    let mut b = GraphBuilder::new(&[14, 14, 16]);
    let x = b.conv(b.input(), conv).unwrap();
    let x = b.relu(x).unwrap();
    let x = b.global_avg_pool(x).unwrap();
    let out = b.linear(x, fc).unwrap();
    let g = b.finish(out).unwrap();
    let input = Tensor::from_vec(&[14, 14, 16], random_i8(14 * 14 * 16, 7)).unwrap();
    (g, input)
}

/// A ViT-shaped multi-token stack: two sparse linears over 5 tokens
/// with an L1 budget small enough to force several K-tiles.
fn multi_token_graph(nm: Nm) -> (Graph, Tensor<i8>, Options) {
    let (t, c, h, k) = (5, 64, 48, 32);
    let mut w1 = random_i8(h * c, 11);
    make_exact_nm(&mut w1, h, c, nm);
    let l1 = LinearLayer::new(FcGeom::new(c, h).unwrap(), w1, Requant::for_dot_len(c)).unwrap();
    let mut w2 = random_i8(k * h, 13);
    make_exact_nm(&mut w2, k, h, nm);
    let l2 = LinearLayer::new(FcGeom::new(h, k).unwrap(), w2, Requant::for_dot_len(h)).unwrap();
    let mut b = GraphBuilder::new(&[t, c]);
    let x = b.linear(b.input(), l1).unwrap();
    let x = b.gelu(x).unwrap();
    let out = b.linear(x, l2).unwrap();
    let g = b.finish(out).unwrap();
    let input = Tensor::from_vec(&[t, c], random_i8(t * c, 17)).unwrap();
    let mut opts = Options::new(Target::SparseIsa);
    // Small enough to force K-tiling of both linears, large enough for
    // the widest minimum tile.
    opts.l1_budget = 512;
    (g, input, opts)
}

/// The analytic plan's compute-cycle total for the same options.
fn planned_cycles(g: &Graph, opts: &Options) -> u64 {
    compile(g, opts)
        .unwrap()
        .layers
        .iter()
        .filter(|l| l.choice.is_some())
        .map(|l| l.compute_cycles)
        .sum()
}

/// Prepare once, run twice: both runs bit-identical to each other, to a
/// fresh `run_emulated`, and cycle-identical to the analytic plan — on
/// both tiers.
#[test]
fn prepared_runs_are_reusable_and_match_run_emulated() {
    let (g, input) = conv_fc_graph(Nm::ONE_OF_EIGHT);
    for target in [Target::SparseIsa, Target::SparseSw, Target::DensePulpNn] {
        for tier in [ExecTier::Bulk, ExecTier::Reference] {
            let mut opts = Options::new(target);
            opts.tier = tier;
            let prepared = PreparedGraph::prepare(&g, &opts).unwrap();
            let first = prepared.run(&input).unwrap();
            let second = prepared.run(&input).unwrap();
            assert_eq!(first.output, second.output, "{target:?} {tier:?} reuse");
            assert_eq!(
                first.matmul_compute_cycles, second.matmul_compute_cycles,
                "{target:?} {tier:?} reuse cycles"
            );
            let fresh = run_emulated(&g, &input, &opts).unwrap();
            assert_eq!(first.output, fresh.output, "{target:?} {tier:?}");
            assert_eq!(
                first.matmul_compute_cycles, fresh.matmul_compute_cycles,
                "{target:?} {tier:?} cycles"
            );
            assert_eq!(
                first.matmul_compute_cycles,
                planned_cycles(&g, &opts),
                "{target:?} {tier:?} vs plan"
            );
        }
    }
}

/// Parallel tile execution must be invisible in the results: thread
/// counts that do and don't divide the (odd, asserted below) tile
/// count, including the auto setting, all produce the sequential
/// outputs and cycle totals.
#[test]
fn parallel_tiles_match_sequential_for_uneven_thread_counts() {
    let nm = Nm::ONE_OF_EIGHT;
    let (g, input) = conv_fc_graph(nm);
    // The budget must actually force an uneven multi-tile schedule, or
    // this test exercises nothing.
    let geom = ConvGeom::square(16, 16, 14, 3, 1, 1).unwrap();
    let tiling = tile_conv(&geom, &KernelChoice::ConvSparseIsa(nm), TILING_L1_BUDGET, 8).unwrap();
    let n_tiles = geom.oy().div_ceil(tiling.oy_tile) * geom.k.div_ceil(tiling.k_tile);
    assert!(
        n_tiles >= 5 && n_tiles % 2 == 1,
        "budget no longer yields an odd multi-tile schedule: {n_tiles} tiles"
    );
    for tier in [ExecTier::Bulk, ExecTier::Reference] {
        let mut opts = Options::new(Target::SparseIsa);
        opts.l1_budget = TILING_L1_BUDGET;
        opts.tier = tier;
        opts.host_threads = 1;
        let sequential = PreparedGraph::prepare(&g, &opts)
            .unwrap()
            .run(&input)
            .unwrap();
        assert_eq!(sequential.matmul_compute_cycles, planned_cycles(&g, &opts));
        for threads in [0, 2, 3, 5, 16] {
            opts.host_threads = threads;
            let prepared = PreparedGraph::prepare(&g, &opts).unwrap();
            for rep in 0..2 {
                let run = prepared.run(&input).unwrap();
                assert_eq!(
                    run.output, sequential.output,
                    "threads={threads} {tier:?} rep={rep}"
                );
                assert_eq!(
                    run.matmul_compute_cycles, sequential.matmul_compute_cycles,
                    "threads={threads} {tier:?} rep={rep} cycles"
                );
            }
        }
    }
}

/// Multi-token (ViT-shaped) linears: weights are packed per tile, never
/// per token, yet outputs and cycles must match the reference executor
/// and the analytic plan on both paths — with K-tiling forced and
/// thread counts that don't divide `tiles * token-chunks` evenly.
#[test]
fn multi_token_linear_matches_reference_plan_and_thread_counts() {
    let (g, input, base) = multi_token_graph(Nm::ONE_OF_EIGHT);
    let reference = nm_nn::execute(&g, &input).unwrap();
    let planned = planned_cycles(&g, &base);
    for tier in [ExecTier::Bulk, ExecTier::Reference] {
        let mut opts = base;
        opts.tier = tier;
        for threads in [1, 3, 4, 7] {
            opts.host_threads = threads;
            let prepared = PreparedGraph::prepare(&g, &opts).unwrap();
            let first = prepared.run(&input).unwrap();
            let second = prepared.run(&input).unwrap();
            assert_eq!(first.output, reference, "{tier:?} threads={threads}");
            assert_eq!(first.output, second.output, "{tier:?} threads={threads}");
            assert_eq!(
                first.matmul_compute_cycles, planned,
                "{tier:?} threads={threads} cycles"
            );
            assert_eq!(first.matmul_compute_cycles, second.matmul_compute_cycles);
        }
    }
}

/// The full tiny-ViT network (patch embedding, attention, sparse
/// feed-forwards over 4 tokens) through the compile-once executor: both
/// paths bit-identical to the reference executor and to each other's
/// cycle totals across repeated runs.
#[test]
fn vit_tiny_prepared_parity_across_paths() {
    let g = vit_tiny_sparse_for_tests(Nm::ONE_OF_EIGHT, 4).unwrap();
    let mut rng = XorShift::new(21);
    let input = Tensor::from_vec(&[16, 16, 3], rng.fill_weights(16 * 16 * 3, 50)).unwrap();
    let reference = nm_nn::execute(&g, &input).unwrap();
    let mut cycles = Vec::new();
    for tier in [ExecTier::Bulk, ExecTier::Reference] {
        let mut opts = Options::new(Target::SparseIsa);
        opts.tier = tier;
        let prepared = PreparedGraph::prepare(&g, &opts).unwrap();
        let a = prepared.run(&input).unwrap();
        let b = prepared.run(&input).unwrap();
        assert_eq!(a.output, reference, "{tier:?}");
        assert_eq!(a.output, b.output, "{tier:?} reuse");
        assert_eq!(a.matmul_compute_cycles, b.matmul_compute_cycles);
        cycles.push(a.matmul_compute_cycles);
    }
    assert_eq!(cycles[0], cycles[1], "bulk vs reference cycle totals");
}

/// A zero-token `[0, C]` input is degenerate but must not panic: the
/// old per-token loop returned an empty `[0, K]` tensor and zero
/// cycles, and the chunked executor must too.
#[test]
fn zero_token_linear_returns_empty_output() {
    let (c, k) = (64, 32);
    let mut w = random_i8(k * c, 19);
    make_exact_nm(&mut w, k, c, Nm::ONE_OF_EIGHT);
    let l = LinearLayer::new(FcGeom::new(c, k).unwrap(), w, Requant::for_dot_len(c)).unwrap();
    let mut b = GraphBuilder::new(&[0, c]);
    let out = b.linear(b.input(), l).unwrap();
    let g = b.finish(out).unwrap();
    let input = Tensor::from_vec(&[0, c], vec![]).unwrap();
    for tier in [ExecTier::Bulk, ExecTier::Reference] {
        let mut opts = Options::new(Target::SparseIsa);
        opts.tier = tier;
        let run = PreparedGraph::prepare(&g, &opts)
            .unwrap()
            .run(&input)
            .unwrap();
        assert_eq!(run.output.shape(), &[0, k], "{tier:?}");
        assert_eq!(run.matmul_compute_cycles, 0, "{tier:?}");
    }
}

/// Input-shape validation still happens per run.
#[test]
fn prepared_run_rejects_wrong_input_shape() {
    let (g, _input) = conv_fc_graph(Nm::ONE_OF_EIGHT);
    let opts = Options::new(Target::SparseIsa);
    let prepared = PreparedGraph::prepare(&g, &opts).unwrap();
    let bad = Tensor::from_vec(&[7, 14, 16], random_i8(7 * 14 * 16, 23)).unwrap();
    assert!(prepared.run(&bad).is_err());
}
