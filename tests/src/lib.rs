//! Shared helpers for the cross-crate integration tests.

use nm_nn::rng::XorShift;

/// Deterministic random int8 buffer.
pub fn random_i8(n: usize, seed: u64) -> Vec<i8> {
    XorShift::new(seed).fill_weights(n, 42)
}

/// A cost model where every knob is distinct and non-zero, so a fast
/// path that batches stalls or penalties incorrectly cannot hide.
pub fn stalled_model() -> nm_isa::CostModel {
    nm_isa::CostModel {
        base: 1,
        load_stall: 2,
        branch_taken_penalty: 3,
        outer_loop_instrs: 3,
        kernel_overhead_instrs: 60,
        ..nm_isa::CostModel::VEGA
    }
}

/// Forces a dense buffer into an exact N:M pattern (exactly N non-zeros
/// per block), so sparsity detection picks the intended pattern.
pub fn make_exact_nm(w: &mut [i8], rows: usize, cols: usize, nm: nm_core::sparsity::Nm) {
    nm_core::sparsity::prune_magnitude(w, rows, cols, nm).expect("shape ok");
    for row in w.chunks_mut(cols) {
        for block in row.chunks_mut(nm.m()) {
            if block.iter().all(|&v| v == 0) {
                block[0] = 1;
            }
        }
    }
}

/// A small conv → ReLU → global-avg-pool → linear graph over a
/// `[spatial, spatial, 8]` input, with exact-`nm` 8→16-channel conv
/// weights and an exact-`nm` 16→`classes` classifier — the shared
/// fixture of the serving tests' **non-coalescible** (conv) path.
/// Weight seeds derive from `seed`, so distinct seeds give distinct
/// models of the same shape.
pub fn sparse_conv_fc_graph(
    spatial: usize,
    classes: usize,
    nm: nm_core::sparsity::Nm,
    seed: u64,
) -> nm_nn::graph::Graph {
    use nm_core::quant::Requant;
    use nm_core::{ConvGeom, FcGeom};
    use nm_nn::layer::{ConvLayer, LinearLayer};

    let mut cw = random_i8(16 * 3 * 3 * 8, seed);
    make_exact_nm(&mut cw, 16, 3 * 3 * 8, nm);
    let conv = ConvLayer::new(
        ConvGeom::square(8, 16, spatial, 3, 1, 1).expect("valid conv geometry"),
        cw,
        Requant::for_dot_len(3 * 3 * 8),
    )
    .expect("valid conv layer");
    let mut fcw = random_i8(classes * 16, seed + 2);
    make_exact_nm(&mut fcw, classes, 16, nm);
    let fc = LinearLayer::new(
        FcGeom::new(16, classes).expect("valid fc geometry"),
        fcw,
        Requant::for_dot_len(16),
    )
    .expect("valid fc layer");
    let mut b = nm_nn::GraphBuilder::new(&[spatial, spatial, 8]);
    let x = b.conv(b.input(), conv).expect("conv node");
    let x = b.relu(x).expect("relu node");
    let x = b.global_avg_pool(x).expect("pool node");
    let out = b.linear(x, fc).expect("linear node");
    b.finish(out).expect("valid graph")
}
