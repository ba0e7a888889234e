//! Fully-connected kernels (paper Sec. 4.2).
//!
//! FC layers have no weight reuse, so the dense baseline unrolls over two
//! output channels (K) instead of two patches; multicore parallelization
//! is over K. The sparse kernels reuse the convolution inner-loop shapes
//! on a single input buffer.
//!
//! * [`dense::fc_dense`] — 1×2 dense baseline (peak 1.6 MACs/instr/core);
//! * [`sparse_sw::fc_sparse_sw`] — software N:M kernel, 16 inner
//!   instructions for 4 MACs (peak 0.25);
//! * [`sparse_isa::fc_sparse_isa`] — `xDecimate` kernel with offsets of
//!   two consecutive channels interleaved offline (Fig. 6), 13 inner
//!   instructions for 8 MACs (peak 0.61).
//! * [`per_channel::fc_channel_mixed`] — per-channel variable patterns
//!   (future-work extension), pairing adjacent dense channels and
//!   decimating sparse ones.
//!
//! A multi-token layer (a ViT's `[T, C]` activations, or a batch of
//! requests coalesced into one token stream) runs each staged tile
//! through the `_batch` entry points ([`dense::fc_dense_batch`],
//! [`sparse_sw::fc_sparse_sw_batch`], [`sparse_isa::fc_sparse_isa_batch`]),
//! the FC twin of the conv batch-major sweep: the tile's weights stay
//! staged for every token, token 0 runs the fully charged kernel, and
//! on the bulk and native paths the remaining tokens are computed
//! token-inner, 8 per register block, without charging — FC statistics
//! depend only on geometry and weights, so they reuse token 0's (see
//! `drive_fc_batch`).

pub mod dense;
pub mod per_channel;
pub mod sparse_isa;
pub mod sparse_sw;

use crate::bulk::{fc_sweep, sweep_len, FcGather};
use crate::layout::{copy_i8_to_bytes, FcBufs};
use crate::stats::{BatchRun, Ctx, KernelStats};
use nm_core::quant::Requant;
use nm_core::{Error, FcGeom, Result};
use nm_isa::{Core, Memory};
use nm_platform::{Cluster, ClusterStats};
use std::sync::Arc;

/// One fully-connected invocation: geometry, requantization, L1 buffers.
#[derive(Debug, Clone, Copy)]
pub struct FcJob {
    /// Layer (or tile) geometry.
    pub geom: FcGeom,
    /// Output requantization.
    pub requant: Requant,
    /// L1 buffer addresses (unused in analytic mode).
    pub bufs: FcBufs,
}

/// Instructions charged per produced output during requantization
/// (bias add, shift, clip) — the byte store is charged separately.
pub(crate) const EPILOGUE_ALU: u64 = 3;

/// Shared per-core driver: runs `body(core_id, core)` on every cluster
/// core and assembles the stats. On the native tier (`native == true`)
/// the per-core overhead and barrier are skipped so the returned stats
/// stay all-zero — native runs outputs only, cycles are undefined.
pub(crate) fn run_fc<F>(
    name: String,
    geom: &FcGeom,
    cluster: &Cluster,
    native: bool,
    mut body: F,
) -> KernelStats
where
    F: FnMut(usize, &mut Core),
{
    let mut per_core = Vec::with_capacity(cluster.n_cores());
    for core_id in 0..cluster.n_cores() {
        let mut core = Core::new(cluster.costs());
        if !native {
            core.kernel_overhead();
        }
        body(core_id, &mut core);
        per_core.push(core.stats());
    }
    let barrier = if native {
        0
    } else {
        cluster.costs().barrier_cycles
    };
    KernelStats {
        name,
        cluster: ClusterStats::from_cores(per_core, barrier),
        dense_macs: geom.macs() as u64,
    }
}

/// The token sweep behind the FC `_batch` entry points: runs `tokens`
/// through one staged FC tile whose weights stay resident for all of
/// them. `tokens[0]` must be the input
/// already staged at `job.bufs.input`; `kernel` runs the tile's kernel
/// on whatever input is staged.
///
/// Token 0 runs the fully charged `kernel`, exactly as a single run
/// would. On the bulk and native paths the tokens after it never touch
/// the modeled scratchpad: their outputs are computed host-side by
/// [`fc_sweep`], token-inner over the staged weights and offsets, with
/// the same wrapping `i32` product multiset the kernel executes, so every
/// output byte equals a freshly staged single run's. Their statistics are
/// token 0's, because FC charging depends only on geometry and weights.
/// A remainder too small to fill a sweep chunk (below `SWEEP_MIN` live
/// tokens), and every token on the reference and analytic paths, runs
/// `kernel` per token instead, the input buffer rewritten between tokens
/// — the reference path's charging stays per token and per instruction.
///
/// # Errors
/// [`Error::ShapeMismatch`] if a token's length is not the tile's `C`;
/// otherwise propagates `kernel`'s errors.
pub(crate) fn drive_fc_batch(
    ctx: &mut Ctx<'_>,
    job: &FcJob,
    tokens: &[&[i8]],
    gather: FcGather,
    mut kernel: impl FnMut(&mut Ctx<'_>) -> Result<KernelStats>,
) -> Result<BatchRun> {
    let (c, k) = (job.geom.c, job.geom.k);
    if let Some(t) = tokens.iter().position(|x| x.len() != c) {
        return Err(Error::ShapeMismatch(format!(
            "token {t}: tile input has {} elements, geometry wants {c}",
            tokens[t].len()
        )));
    }
    let mut stats = Vec::with_capacity(tokens.len());
    let mut outputs = Vec::with_capacity(if ctx.is_mem() { tokens.len() * k } else { 0 });
    let Some((_, mut rest)) = tokens.split_first() else {
        return Ok(BatchRun { stats, outputs });
    };
    let read_out = |ctx: &mut Ctx<'_>, outputs: &mut Vec<u8>| {
        if let Some(mem) = ctx.mem() {
            outputs.extend_from_slice(mem.slice(job.bufs.output, k).expect("staged output"));
        }
    };
    stats.push(Arc::new(kernel(ctx)?));
    read_out(ctx, &mut outputs);
    if let Ctx::MemBulk(mem) | Ctx::MemNative(mem) = &mut *ctx {
        let (swept, fallback) = rest.split_at(sweep_len(rest.len()));
        if !swept.is_empty() {
            let base = outputs.len();
            outputs.resize(base + swept.len() * k, 0);
            fc_sweep(mem, job, gather, swept, &mut outputs[base..]);
            stats.resize(1 + swept.len(), Arc::clone(&stats[0]));
        }
        rest = fallback;
    }
    for x in rest {
        if let Some(mem) = ctx.mem() {
            copy_i8_to_bytes(mem.slice_mut(job.bufs.input, c).expect("staged input"), x);
        }
        stats.push(Arc::new(kernel(ctx)?));
        read_out(ctx, &mut outputs);
    }
    Ok(BatchRun { stats, outputs })
}
