//! Emulated execution of a compiled model: every Conv/Linear tile runs
//! bit-exactly on the simulated cluster (real packed weights, real DMA'd
//! tile data), non-matmul ops use the reference implementations.
//!
//! Used by the integration tests to prove the compiled sparse execution
//! is bit-identical to dense execution of the same masked weights, and
//! that the emulated tile compute cycles equal the analytic plan.
//!
//! [`run_emulated`] is a thin prepare-then-run wrapper over the
//! compile-once executor ([`crate::prepack::PreparedGraph`]): weights
//! are packed and tile programs precomputed per call, then executed.
//! Callers running the same graph repeatedly (sweeps, serving) should
//! prepare once themselves and call
//! [`PreparedGraph::run`](crate::prepack::PreparedGraph::run) per
//! inference — that is where the packing amortization comes from.

use crate::plan::Options;
use crate::prepack::{tile_ctx, PreparedGraph};
use nm_core::format::{BlockwiseMatrix, CsrMatrix, DcsrMatrix};
use nm_core::{Error, Result, Tensor};
use nm_isa::Memory;
use nm_kernels::baseline::blockwise::{fc_blockwise, stage_blockwise_fc};
use nm_kernels::baseline::csr::{fc_csr, stage_csr_fc};
use nm_kernels::baseline::dcsr::{fc_dcsr, stage_dcsr_fc};
use nm_kernels::fc::FcJob;
use nm_kernels::layout::copy_bytes_to_i8;
use nm_nn::graph::Graph;
use nm_nn::layer::LinearLayer;
use nm_platform::Scratchpad;

/// The result of an emulated run.
#[derive(Debug, Clone)]
pub struct EmulatedRun {
    /// The network output (bit-exact int8).
    pub output: Tensor<i8>,
    /// Total emulated compute cycles of the Conv/Linear tiles — must
    /// equal the analytic plan's compute cycles on the reference and
    /// bulk tiers. On [`nm_kernels::ExecTier::Native`] cycles are not
    /// simulated and this is `0`.
    pub matmul_compute_cycles: u64,
}

/// A related-work sparse format for [`run_fc_baseline`] — the "other
/// side" of the paper's format comparisons (Sec. 3 / Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineFormat {
    /// Unstructured CSR with 16-bit column indices.
    Csr,
    /// Delta-compressed CSR (Trommer et al. 2021).
    Dcsr,
    /// Scalpel-style 1×4 blockwise pruning (block indices, dense groups).
    Blockwise,
}

/// Runs one FC layer through a related-work baseline format on the
/// simulated cluster. Like the N:M tiles of [`run_emulated`], the
/// emulation context is selected by [`Options::tier`], so
/// format-comparison sweeps pay the same (fast) emulation rates on both
/// sides of the comparison.
///
/// Baselines are comparison harness paths, not deployment paths: the
/// whole layer is staged at once (no tiling) and must fit the L1 budget.
///
/// # Errors
/// [`Error::Unsupported`] for options with zero cores; propagates
/// staging and kernel errors (including [`Error::OutOfMemory`] for
/// layers exceeding `opts.l1_budget`).
pub fn run_fc_baseline(
    layer: &LinearLayer,
    input: &Tensor<i8>,
    format: BaselineFormat,
    opts: &Options,
) -> Result<(Tensor<i8>, u64)> {
    let geom = &layer.geom;
    let x = match input.shape() {
        [c] if *c == geom.c => input.data(),
        s => return Err(Error::ShapeMismatch(format!("baseline FC over {s:?}"))),
    };
    opts.check()?;
    let cluster = opts.cluster();
    let fc = FcJob {
        geom: *geom,
        requant: layer.requant,
        bufs: Default::default(),
    };
    let mut mem = Scratchpad::new("L1", opts.l1_budget);
    let (stats, output) = match format {
        BaselineFormat::Csr => {
            let w = CsrMatrix::from_dense(&layer.weights, geom.k, geom.c)?;
            let job = stage_csr_fc(&mut mem, &fc, x, &w)?;
            let stats = fc_csr(&mut tile_ctx(&mut mem, opts), &job, &cluster)?;
            (stats, job.bufs.output)
        }
        BaselineFormat::Dcsr => {
            let w = DcsrMatrix::from_dense(&layer.weights, geom.k, geom.c)?;
            let job = stage_dcsr_fc(&mut mem, &fc, x, &w)?;
            let stats = fc_dcsr(&mut tile_ctx(&mut mem, opts), &job, &cluster)?;
            (stats, job.bufs.output)
        }
        BaselineFormat::Blockwise => {
            let w = BlockwiseMatrix::from_dense(&layer.weights, geom.k, geom.c, 4)?;
            let job = stage_blockwise_fc(&mut mem, &fc, x, &w)?;
            let stats = fc_blockwise(&mut tile_ctx(&mut mem, opts), &job, &cluster)?;
            (stats, job.bufs.output)
        }
    };
    let view = mem.slice(output, geom.k).expect("staged output in range");
    let mut out = vec![0i8; geom.k];
    copy_bytes_to_i8(&mut out, view);
    Ok((Tensor::from_vec(&[geom.k], out)?, stats.cycles()))
}

/// Runs the graph with Conv/Linear layers executed tile-by-tile on the
/// simulated cluster using the target's kernels: a prepare-then-run
/// wrapper over [`PreparedGraph`].
///
/// # Errors
/// [`Error::Unsupported`] for options with zero cores; propagates
/// tiling, staging and kernel errors.
pub fn run_emulated(graph: &Graph, input: &Tensor<i8>, opts: &Options) -> Result<EmulatedRun> {
    PreparedGraph::prepare(graph, opts)?.run(input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::Target;
    use crate::plan::compile;
    use nm_core::quant::Requant;
    use nm_core::sparsity::{prune_magnitude, Nm};
    use nm_core::{ConvGeom, FcGeom};
    use nm_nn::graph::GraphBuilder;
    use nm_nn::layer::ConvLayer;
    use nm_nn::rng::XorShift;
    use nm_nn::{exec as nnexec, graph::OpKind};

    /// A small conv+fc graph; when `nm` is set, weights are pruned so
    /// pattern recognition selects the sparse kernels.
    fn toy_graph(nm: Option<Nm>) -> Graph {
        let mut rng = XorShift::new(99);
        let geom = ConvGeom::square(16, 8, 6, 3, 1, 1).unwrap();
        let mut w = rng.fill_weights(geom.weight_elems(), 30);
        if let Some(nm) = nm {
            prune_magnitude(&mut w, geom.k, geom.patch_len(), nm).unwrap();
            for row in w.chunks_mut(geom.patch_len()) {
                for b in row.chunks_mut(nm.m()) {
                    if b.iter().all(|&v| v == 0) {
                        b[0] = 1;
                    }
                }
            }
        }
        let conv = ConvLayer::new(geom, w, Requant::for_dot_len(geom.patch_len())).unwrap();
        let fcg = FcGeom::new(8, 12).unwrap();
        let mut wfc = rng.fill_weights(fcg.weight_elems(), 30);
        if let Some(nm) = nm {
            if fcg.c.is_multiple_of(nm.m()) {
                prune_magnitude(&mut wfc, fcg.k, fcg.c, nm).unwrap();
            }
        }
        let fc = LinearLayer::new(fcg, wfc, Requant::for_dot_len(fcg.c)).unwrap();
        let mut b = GraphBuilder::new(&[6, 6, 16]);
        let x = b.conv(b.input(), conv).unwrap();
        let x = b.relu(x).unwrap();
        let x = b.global_avg_pool(x).unwrap();
        let x = b.linear(x, fc).unwrap();
        b.finish(x).unwrap()
    }

    fn check_target(nm: Option<Nm>, target: Target) {
        let g = toy_graph(nm);
        let mut rng = XorShift::new(7);
        let input = Tensor::from_vec(&[6, 6, 16], rng.fill_weights(6 * 6 * 16, 50)).unwrap();
        let opts = Options::new(target);
        let run = run_emulated(&g, &input, &opts).unwrap();
        let reference = nnexec::execute(&g, &input).unwrap();
        assert_eq!(run.output, reference, "{target:?} {nm:?} output mismatch");
        // Emulated tile compute must equal the analytic plan.
        let report = compile(&g, &opts).unwrap();
        let planned: u64 = report
            .layers
            .iter()
            .filter(|l| l.choice.is_some())
            .map(|l| l.compute_cycles)
            .sum();
        assert_eq!(
            run.matmul_compute_cycles, planned,
            "{target:?} {nm:?} cycles"
        );
    }

    #[test]
    fn dense_targets_match_reference_and_plan() {
        check_target(None, Target::Dense1x2);
        check_target(None, Target::DensePulpNn);
    }

    /// The baseline-format executor must honor `Options::tier` exactly
    /// like the N:M tiles: identical outputs and cycles on the reference
    /// and bulk tiers, identical outputs (cycles 0) on the native tier,
    /// and (since every format here round-trips the weights) outputs
    /// identical to the dense kernel's.
    #[test]
    fn fc_baselines_match_dense_and_respect_exec_tier() {
        let fcg = FcGeom::new(64, 12).unwrap();
        let mut rng = XorShift::new(17);
        let mut w = rng.fill_weights(fcg.weight_elems(), 30);
        for (i, v) in w.iter_mut().enumerate() {
            if i % 5 != 0 {
                *v = 0; // ~80 % unstructured sparsity
            }
        }
        let layer = LinearLayer::new(fcg, w, Requant::for_dot_len(fcg.c)).unwrap();
        let input = Tensor::from_vec(&[fcg.c], rng.fill_weights(fcg.c, 50)).unwrap();
        let opts = Options::new(Target::Dense1x2);
        // The dense kernel's output for the same weights, via the
        // compiled executor on a single-linear graph.
        let mut b = GraphBuilder::new(&[fcg.c]);
        let x = b.linear(b.input(), layer.clone()).unwrap();
        let g = b.finish(x).unwrap();
        assert!(matches!(g.node(x).op, OpKind::Linear(_)));
        let dense_out = run_emulated(&g, &input, &opts).unwrap().output;
        for format in [
            BaselineFormat::Csr,
            BaselineFormat::Dcsr,
            BaselineFormat::Blockwise,
        ] {
            assert_eq!(opts.tier, nm_kernels::ExecTier::Bulk, "bulk is the default");
            let mut reference = Options::new(Target::Dense1x2);
            reference.tier = nm_kernels::ExecTier::Reference;
            let mut native = Options::new(Target::Dense1x2);
            native.tier = nm_kernels::ExecTier::Native;
            let (fast_out, fast_cycles) = run_fc_baseline(&layer, &input, format, &opts).unwrap();
            let (ref_out, ref_cycles) =
                run_fc_baseline(&layer, &input, format, &reference).unwrap();
            let (native_out, native_cycles) =
                run_fc_baseline(&layer, &input, format, &native).unwrap();
            assert_eq!(fast_out, ref_out, "{format:?} outputs");
            assert_eq!(fast_cycles, ref_cycles, "{format:?} cycles");
            assert_eq!(fast_out, dense_out, "{format:?} vs dense");
            assert_eq!(native_out, fast_out, "{format:?} native outputs");
            assert_eq!(native_cycles, 0, "{format:?} native cycles are undefined");
        }
    }

    #[test]
    fn sparse_sw_matches_reference_and_plan() {
        check_target(Some(Nm::ONE_OF_EIGHT), Target::SparseSw);
        check_target(Some(Nm::ONE_OF_FOUR), Target::SparseSw);
    }

    #[test]
    fn sparse_isa_matches_reference_and_plan() {
        check_target(Some(Nm::ONE_OF_EIGHT), Target::SparseIsa);
        check_target(Some(Nm::ONE_OF_SIXTEEN), Target::SparseIsa);
    }
}
