//! End-to-end integration: a residual CNN and a tiny ViT compiled and
//! executed tile-by-tile on the simulated cluster must be bit-identical
//! to the reference executor, for every target; sparse targets must be
//! faster and smaller.

use nm_compiler::exec::run_emulated;
use nm_compiler::plan::{compile, Options};
use nm_compiler::{ExecTier, Target};
use nm_core::quant::Requant;
use nm_core::sparsity::Nm;
use nm_core::{ConvGeom, FcGeom, Tensor};
use nm_integration::make_exact_nm;
use nm_isa::CostModel;
use nm_models::vit::vit_tiny_for_tests;
use nm_nn::graph::{Graph, GraphBuilder, OpKind};
use nm_nn::layer::{ConvLayer, LinearLayer};
use nm_nn::prune::{prune_graph, weight_sparsity};
use nm_nn::rng::XorShift;

/// A residual CNN exercising conv, pointwise shortcut, pooling and FC.
fn residual_cnn(nm: Option<Nm>, seed: u64) -> Graph {
    let mut rng = XorShift::new(seed);
    let mut conv = |c: usize, k: usize, i: usize, f: usize, s: usize, p: usize| {
        let geom = ConvGeom::square(c, k, i, f, s, p).unwrap();
        let mut w = rng.fill_weights(geom.weight_elems(), 30);
        if let Some(nm) = nm {
            if f != 1 && geom.patch_len().is_multiple_of(nm.m()) {
                make_exact_nm(&mut w, geom.k, geom.patch_len(), nm);
            }
        }
        ConvLayer::new(geom, w, Requant::for_dot_len(geom.patch_len())).unwrap()
    };
    let c1 = conv(16, 16, 8, 3, 1, 1);
    let c2 = conv(16, 16, 8, 3, 1, 1);
    let c3 = conv(16, 32, 8, 3, 2, 1); // strided
    let pw = conv(16, 32, 8, 1, 2, 0); // pointwise shortcut (stays dense)
    let mut rng2 = XorShift::new(seed ^ 0x77);
    let mut fcw = rng2.fill_weights(32 * 8, 30);
    if let Some(nm) = nm {
        if 32 % nm.m() == 0 {
            make_exact_nm(&mut fcw, 8, 32, nm);
        }
    }
    let fc = LinearLayer::new(FcGeom::new(32, 8).unwrap(), fcw, Requant::for_dot_len(32)).unwrap();

    let mut b = GraphBuilder::new(&[8, 8, 16]);
    let x0 = b.input();
    let x1 = b.conv(x0, c1).unwrap();
    let x1 = b.relu(x1).unwrap();
    let x2 = b.conv(x1, c2).unwrap();
    let x2 = b.add(x2, x0).unwrap();
    let x3 = b.conv(x2, c3).unwrap();
    let sc = b.conv(x2, pw).unwrap();
    let x3 = b.add(x3, sc).unwrap();
    let x3 = b.relu(x3).unwrap();
    let x4 = b.global_avg_pool(x3).unwrap();
    let out = b.linear(x4, fc).unwrap();
    b.finish(out).unwrap()
}

#[test]
fn residual_cnn_bit_exact_across_all_targets() {
    let mut rng = XorShift::new(5);
    let input = Tensor::from_vec(&[8, 8, 16], rng.fill_weights(8 * 8 * 16, 50)).unwrap();
    for nm in [None, Some(Nm::ONE_OF_EIGHT), Some(Nm::ONE_OF_FOUR)] {
        let g = residual_cnn(nm, 1);
        let reference = nm_nn::execute(&g, &input).unwrap();
        for target in Target::ALL {
            let run = run_emulated(&g, &input, &Options::new(target)).unwrap();
            assert_eq!(run.output, reference, "{target:?} {nm:?}");
        }
    }
}

/// The compute cycles `compile()` plans for the graph's kernel layers.
fn planned_compute_cycles(g: &Graph, opts: &Options) -> u64 {
    compile(g, opts)
        .unwrap()
        .layers
        .iter()
        .filter(|l| l.choice.is_some())
        .map(|l| l.compute_cycles)
        .sum()
}

#[test]
fn emulated_compute_matches_analytic_plan() {
    let mut rng = XorShift::new(6);
    let input = Tensor::from_vec(&[8, 8, 16], rng.fill_weights(8 * 8 * 16, 50)).unwrap();
    let g = residual_cnn(Some(Nm::ONE_OF_EIGHT), 2);
    // Load stalls and a costlier taken branch: the plan must charge them
    // exactly as execution does, not only on the stall-free Vega model.
    let stalled = CostModel {
        load_stall: 2,
        branch_taken_penalty: 3,
        ..CostModel::VEGA
    };
    for target in Target::ALL {
        let opts = Options::new(target);
        let run = run_emulated(&g, &input, &opts).unwrap();
        let planned = planned_compute_cycles(&g, &opts);
        assert_eq!(run.matmul_compute_cycles, planned, "{target:?}");

        let opts = Options {
            costs: stalled,
            ..Options::new(target)
        };
        let planned = planned_compute_cycles(&g, &opts);
        for tier in [ExecTier::Reference, ExecTier::Bulk] {
            let run = run_emulated(&g, &input, &Options { tier, ..opts }).unwrap();
            assert_eq!(
                run.matmul_compute_cycles, planned,
                "{target:?} {tier:?} stalled model"
            );
        }
    }
}

#[test]
fn sparse_compilation_is_faster_and_smaller() {
    let g_dense = residual_cnn(None, 3);
    let g_sparse = residual_cnn(Some(Nm::ONE_OF_SIXTEEN), 3);
    let dense = compile(&g_dense, &Options::new(Target::DensePulpNn)).unwrap();
    let sw = compile(&g_sparse, &Options::new(Target::SparseSw)).unwrap();
    let isa = compile(&g_sparse, &Options::new(Target::SparseIsa)).unwrap();
    assert!(sw.total_cycles() < dense.total_cycles());
    assert!(isa.total_cycles() < sw.total_cycles());
    assert!(isa.total_weight_bytes() < dense.total_weight_bytes());
    assert!(weight_sparsity(&g_sparse) > weight_sparsity(&g_dense));
}

#[test]
fn tiny_vit_compiles_and_executes_consistently() {
    let g = vit_tiny_for_tests(4).unwrap();
    let mut rng = XorShift::new(7);
    let input = Tensor::from_vec(&[16, 16, 3], rng.fill_weights(16 * 16 * 3, 50)).unwrap();
    let reference = nm_nn::execute(&g, &input).unwrap();
    let run = run_emulated(&g, &input, &Options::new(Target::DensePulpNn)).unwrap();
    assert_eq!(run.output, reference);
    let report = compile(&g, &Options::new(Target::DensePulpNn)).unwrap();
    assert!(report.total_cycles() > 0);
    // Attention layers are present and costed.
    assert!(report
        .layers
        .iter()
        .any(|l| l.op_name == "attention" && l.cycles > 0));
}

#[test]
fn pruned_graph_layers_are_recognized_as_sparse() {
    let mut g = residual_cnn(None, 9);
    let nm = Nm::ONE_OF_EIGHT;
    prune_graph(&mut g, nm, |_, op| {
        matches!(op, OpKind::Conv2d(l) if !l.geom.is_pointwise() && l.geom.patch_len() % 8 == 0)
    })
    .unwrap();
    let report = compile(&g, &Options::new(Target::SparseIsa)).unwrap();
    let sparse_layers = report
        .layers
        .iter()
        .filter(|l| l.choice.is_some_and(|c| c.nm().is_some()))
        .count();
    assert!(sparse_layers >= 3, "got {sparse_layers}");
}
