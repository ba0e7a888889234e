//! Failure-injection tests: every layer of the stack must reject bad
//! inputs with the documented error, not panic or silently mis-compute.

use nm_compiler::exec::{run_emulated, run_fc_baseline, BaselineFormat};
use nm_compiler::{compile, Options, PreparedGraph, Target};
use nm_core::format::{ChannelNmMatrix, NmMatrix, OffsetLayout};
use nm_core::quant::Requant;
use nm_core::sparsity::Nm;
use nm_core::{ConvGeom, Error, FcGeom};
use nm_integration::random_i8;
use nm_isa::CostModel;
use nm_kernels::conv::sparse_sw::{conv_sparse_sw, SparseConvJob};
use nm_kernels::conv::ConvJob;
use nm_kernels::layout::{stage_conv_dense, stage_conv_sparse, stage_fc_channelwise};
use nm_kernels::Ctx;
use nm_platform::{Cluster, Scratchpad};

#[test]
fn l1_exhaustion_reports_out_of_memory_with_sizes() {
    let mut l1 = Scratchpad::new("l1", 1024);
    let geom = ConvGeom::square(32, 32, 16, 3, 1, 1).unwrap();
    let input = vec![0i8; geom.input_elems()];
    let weights = vec![0i8; geom.weight_elems()];
    match stage_conv_dense(&mut l1, &geom, &input, &weights, 8) {
        Err(Error::OutOfMemory {
            requested,
            available,
        }) => {
            assert!(requested > available);
            assert!(available <= 1024);
        }
        other => panic!("expected OutOfMemory, got {other:?}"),
    }
    // A failed staging must not leave the allocator unusable.
    assert!(l1.alloc(16, 4).is_ok());
}

#[test]
fn sparse_staging_rejects_mismatched_matrix() {
    let mut l1 = Scratchpad::new("l1", 256 * 1024);
    let geom = ConvGeom::square(16, 4, 6, 3, 1, 1).unwrap();
    let input = vec![0i8; geom.input_elems()];
    // Matrix with the wrong number of rows.
    let w = NmMatrix::from_dense(
        &vec![0i8; 2 * geom.patch_len()],
        2,
        geom.patch_len(),
        Nm::ONE_OF_EIGHT,
        OffsetLayout::Plain,
    )
    .unwrap();
    assert!(matches!(
        stage_conv_sparse(&mut l1, &geom, &input, &w, 8),
        Err(Error::ShapeMismatch(_))
    ));
}

#[test]
fn kernels_reject_geometry_pattern_mismatch_before_touching_memory() {
    // patch 27 not divisible by 8 — must fail validation in analytic
    // and emulated mode alike, without partial output.
    let geom = ConvGeom::square(3, 2, 5, 3, 1, 1).unwrap();
    let job = SparseConvJob {
        conv: ConvJob {
            geom,
            requant: Requant::IDENTITY,
            bufs: Default::default(),
        },
        nm: Nm::ONE_OF_EIGHT,
    };
    let cluster = Cluster::new(4, CostModel::default());
    assert!(matches!(
        conv_sparse_sw(&mut Ctx::Analytic, &job, &cluster),
        Err(Error::ShapeMismatch(_))
    ));
    let mut l1 = Scratchpad::new("l1", 64 * 1024);
    assert!(matches!(
        conv_sparse_sw(&mut Ctx::Mem(&mut l1), &job, &cluster),
        Err(Error::ShapeMismatch(_))
    ));
}

#[test]
fn channel_format_rejects_interleaved_and_bad_rows() {
    let dense = vec![0i8; 4 * 16];
    assert!(matches!(
        ChannelNmMatrix::from_dense(&dense, 4, 16, &[None; 4], OffsetLayout::Interleaved),
        Err(Error::Unsupported(_))
    ));
    assert!(matches!(
        ChannelNmMatrix::from_dense(&dense, 4, 16, &[None; 3], OffsetLayout::Plain),
        Err(Error::ShapeMismatch(_))
    ));
}

#[test]
fn fc_channelwise_staging_checks_both_operands() {
    let geom = FcGeom::new(32, 4).unwrap();
    let w = ChannelNmMatrix::from_dense(&[0i8; 4 * 32], 4, 32, &[None; 4], OffsetLayout::Plain)
        .unwrap();
    let mut l1 = Scratchpad::new("l1", 64 * 1024);
    // Wrong input length.
    assert!(matches!(
        stage_fc_channelwise(&mut l1, &geom, &[0i8; 16], &w),
        Err(Error::ShapeMismatch(_))
    ));
    // Wrong K.
    let geom_bad = FcGeom::new(32, 5).unwrap();
    assert!(matches!(
        stage_fc_channelwise(&mut l1, &geom_bad, &[0i8; 32], &w),
        Err(Error::ShapeMismatch(_))
    ));
}

#[test]
fn compiler_surfaces_untileable_layers() {
    use nm_nn::graph::GraphBuilder;
    use nm_nn::layer::ConvLayer;
    // A single-output-row conv whose one unsplittable tile exceeds a
    // tiny L1 budget.
    let geom = ConvGeom::new(512, 16, 64, 1, 3, 1, 1, 0).unwrap();
    let w = random_i8(geom.weight_elems(), 3);
    let conv = ConvLayer::new(geom, w, Requant::IDENTITY).unwrap();
    let mut b = GraphBuilder::new(&[1, 64, 512]);
    let x = b.conv(b.input(), conv).unwrap();
    let g = b.finish(x).unwrap();
    let mut opts = Options::new(Target::DensePulpNn);
    opts.l1_budget = 4 * 1024;
    let err = compile(&g, &opts);
    assert!(err.is_err(), "4 KiB L1 cannot hold a 512-channel row tile");
}

#[test]
fn pattern_violations_carry_their_location_through_the_stack() {
    // Two non-zeros in one 1:4 block, deep inside the tensor.
    let geom = ConvGeom::square(16, 4, 4, 3, 1, 1).unwrap();
    let mut w = vec![0i8; geom.weight_elems()];
    let row = 2;
    let block = 7;
    w[row * geom.patch_len() + block * 4] = 1;
    w[row * geom.patch_len() + block * 4 + 1] = 2;
    match NmMatrix::from_dense(
        &w,
        geom.k,
        geom.patch_len(),
        Nm::ONE_OF_FOUR,
        OffsetLayout::Plain,
    ) {
        Err(Error::PatternViolation {
            row: r,
            block: b,
            found,
            allowed,
        }) => {
            assert_eq!((r, b, found, allowed), (row, block, 2, 1));
        }
        other => panic!("expected located PatternViolation, got {other:?}"),
    }
}

/// Serve-layer failure surface: a model whose minimum tile exceeds the
/// L1 budget must fail `Service::register` with the compiler's
/// `OutOfMemory` — and the failure must not wedge the service's
/// ModelCache: the same service then registers and serves a good model.
#[test]
fn serve_registration_surfaces_oom_without_wedging_the_cache() {
    use nm_models::mlp_serve_sparse;
    use nm_serve::{Service, ServiceConfig};
    use std::sync::Arc;

    let graph = Arc::new(mlp_serve_sparse(&[64, 48, 32], Nm::ONE_OF_EIGHT, 5).unwrap());
    let service = Service::start(ServiceConfig::default());

    // 64 B of L1 cannot hold even the minimum FC tile.
    let mut starved = Options::new(Target::SparseIsa);
    starved.l1_budget = 64;
    match service.register("starved", &graph, &starved) {
        Err(nm_serve::ServeError::Run(Error::OutOfMemory {
            requested,
            available,
        })) => {
            assert!(requested > available);
            assert!(available <= 64);
        }
        other => panic!("expected OutOfMemory, got {other:?}"),
    }
    assert_eq!(service.model_count(), 0, "failed registration left a slot");

    // The cache is not wedged: a sane registration on the same service
    // prepares, serves, and the earlier failure was never cached.
    let opts = Options::new(Target::SparseIsa);
    let model = service.register("good", &graph, &opts).unwrap();
    let input = nm_core::Tensor::from_vec(&[64], vec![1i8; 64]).unwrap();
    let ticket = service.submit(model, input).unwrap();
    ticket.wait().expect("the good model serves");
    // The starved attempt is a *failed prepare*, not a miss (a miss is
    // only counted once preparation succeeds); one artifact exists.
    let cache = service.cache_stats();
    assert_eq!(cache.hits, 0);
    assert_eq!(cache.misses, 1);
    assert_eq!(cache.failed_prepares, 1);
    assert_eq!(cache.evictions, 0, "an unbudgeted cache never evicts");
    assert!(cache.resident_bytes > 0, "the good artifact is resident");
    assert_eq!(service.model_count(), 1);
    service.shutdown();
}

/// The same resilience under *injected* preparation faults: an armed
/// `prepare` error fails exactly one registration; retrying succeeds
/// and the service serves.
#[test]
fn serve_registration_survives_injected_prepare_fault() {
    use nm_models::mlp_serve_sparse;
    use nm_serve::{FaultAction, FaultPlan, FaultPoint, Service, ServiceConfig};
    use std::sync::Arc;

    let graph = Arc::new(mlp_serve_sparse(&[64, 48, 32], Nm::ONE_OF_EIGHT, 5).unwrap());
    let service = Service::start(ServiceConfig {
        fault_plan: Some(Arc::new(FaultPlan::new().fail_nth(
            FaultPoint::Prepare,
            0,
            FaultAction::Error,
        ))),
        ..ServiceConfig::default()
    });
    let opts = Options::new(Target::SparseIsa);
    let err = service.register("m", &graph, &opts).unwrap_err();
    assert!(
        matches!(err, nm_serve::ServeError::Run(Error::Unsupported(_))),
        "{err:?}"
    );
    // The one-shot fault is spent; the same registration now works.
    let model = service.register("m", &graph, &opts).unwrap();
    let input = nm_core::Tensor::from_vec(&[64], vec![1i8; 64]).unwrap();
    service.submit(model, input).unwrap().wait().unwrap();
    service.shutdown();
}

#[test]
fn scratchpad_bus_errors_panic_like_hardware() {
    // Out-of-range access is a simulated bus error — a panic, not UB.
    let l1 = Scratchpad::new("l1", 64);
    let result = std::panic::catch_unwind(|| nm_isa::Memory::load_u8(&l1, 64));
    assert!(result.is_err());
}

// Options with zero cores used to reach `Cluster::new`'s assert; every
// entry point that takes options must return `Error::Unsupported`
// instead.
fn zero_core_options() -> (nm_nn::graph::Graph, nm_core::Tensor<i8>, Options) {
    let g = nm_models::vit_tiny_for_tests(3).unwrap();
    let n = g.input_shape().iter().product();
    let x = nm_core::Tensor::from_vec(g.input_shape(), random_i8(n, 5)).unwrap();
    let mut opts = Options::new(Target::SparseIsa);
    opts.cores = 0;
    (g, x, opts)
}

#[test]
fn zero_cores_compile_returns_unsupported() {
    let (g, _, opts) = zero_core_options();
    assert!(matches!(compile(&g, &opts), Err(Error::Unsupported(_))));
}

#[test]
fn zero_cores_run_emulated_returns_unsupported() {
    let (g, x, opts) = zero_core_options();
    assert!(matches!(
        run_emulated(&g, &x, &opts),
        Err(Error::Unsupported(_))
    ));
}

#[test]
fn zero_cores_prepare_returns_unsupported() {
    let (g, _, opts) = zero_core_options();
    assert!(matches!(
        PreparedGraph::prepare(&g, &opts),
        Err(Error::Unsupported(_))
    ));
    assert!(matches!(
        PreparedGraph::prepare_shared(std::sync::Arc::new(g), &opts),
        Err(Error::Unsupported(_))
    ));
}

#[test]
fn zero_cores_fc_baseline_returns_unsupported() {
    let (_, _, opts) = zero_core_options();
    let geom = FcGeom::new(16, 4).unwrap();
    let layer = nm_nn::layer::LinearLayer::new(
        geom,
        random_i8(geom.weight_elems(), 7),
        Requant::for_dot_len(16),
    )
    .unwrap();
    let x = nm_core::Tensor::from_vec(&[16], random_i8(16, 9)).unwrap();
    assert!(matches!(
        run_fc_baseline(&layer, &x, BaselineFormat::Csr, &opts),
        Err(Error::Unsupported(_))
    ));
}
