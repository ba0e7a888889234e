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
//! staged for every token, and on the bulk path the tokens are computed
//! token-inner, 8 per register block. FC statistics depend only on
//! geometry and weights, so every token shares the tile's one analytic
//! pass (see `drive_fc_batch`).

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
use nm_platform::{Cluster, ClusterStats, Scratchpad};
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

/// Shared per-core driver: runs `body(core_id, core, ctx)` on every
/// cluster core and assembles the stats.
///
/// On the bulk tier this is two passes: [`compute_fc`] writes the
/// outputs, then the analytic pass runs `body` on [`Ctx::Analytic`],
/// and its statistics are the result. Every other context charges its
/// own single pass.
pub(crate) fn run_fc<F>(
    name: String,
    geom: &FcGeom,
    ctx: &mut Ctx<'_>,
    cluster: &Cluster,
    mut body: F,
) -> KernelStats
where
    F: FnMut(usize, &mut Core, &mut Ctx<'_>),
{
    if let Ctx::MemBulk(mem) = ctx {
        compute_fc(mem, cluster, &mut body);
    }
    let mut ctx = ctx.charging();
    let mut per_core = Vec::with_capacity(cluster.n_cores());
    for core_id in 0..cluster.n_cores() {
        let mut core = Core::new(cluster.costs());
        core.kernel_overhead();
        body(core_id, &mut core, &mut ctx);
        per_core.push(core.stats());
    }
    KernelStats {
        name,
        cluster: ClusterStats::from_cores(per_core, cluster.costs().barrier_cycles),
        dense_macs: geom.macs() as u64,
    }
}

/// The bulk tier's compute pass: `body` on every core's channel range
/// over `mem` in the [`Ctx::MemBulk`] context, whose arms write the
/// outputs and charge nothing (the core they get is a scratch one).
fn compute_fc<F>(mem: &mut Scratchpad, cluster: &Cluster, body: &mut F)
where
    F: FnMut(usize, &mut Core, &mut Ctx<'_>),
{
    let mut scratch = Core::new(cluster.costs());
    for core_id in 0..cluster.n_cores() {
        body(core_id, &mut scratch, &mut Ctx::MemBulk(mem));
    }
}

/// The token sweep behind the FC `_batch` entry points: runs `tokens`
/// through one staged FC tile whose weights stay resident for all of
/// them, with the per-core `body` [`run_fc`] would run for one token.
///
/// On the bulk path the tokens never touch the modeled scratchpad: their
/// outputs are computed host-side by [`fc_sweep`], token-inner over the
/// staged weights and offsets, with the same wrapping `i32` product
/// multiset the kernel executes, so every output byte equals a freshly
/// staged single run's. A remainder too small to fill a sweep chunk
/// (below `SWEEP_MIN` live tokens) runs [`compute_fc`] per token
/// instead, the input buffer rewritten first. Every token's statistics
/// are the tile's one analytic pass, because FC charging depends only on
/// geometry and weights. The reference path runs the whole kernel per
/// token, so its charging stays per token and per instruction.
///
/// # Errors
/// [`Error::ShapeMismatch`] if a token's length is not the tile's `C`.
pub(crate) fn drive_fc_batch<F>(
    name: &str,
    ctx: &mut Ctx<'_>,
    job: &FcJob,
    cluster: &Cluster,
    tokens: &[&[i8]],
    gather: FcGather,
    mut body: F,
) -> Result<BatchRun>
where
    F: FnMut(usize, &mut Core, &mut Ctx<'_>),
{
    let (c, k) = (job.geom.c, job.geom.k);
    if let Some(t) = tokens.iter().position(|x| x.len() != c) {
        return Err(Error::ShapeMismatch(format!(
            "token {t}: tile input has {} elements, geometry wants {c}",
            tokens[t].len()
        )));
    }
    let mut outputs = Vec::with_capacity(if ctx.is_mem() { tokens.len() * k } else { 0 });
    let stage = |mem: &mut Scratchpad, x: &[i8]| {
        copy_i8_to_bytes(mem.slice_mut(job.bufs.input, c).expect("staged input"), x);
    };
    let read_out = |mem: &mut Scratchpad, outputs: &mut Vec<u8>| {
        outputs.extend_from_slice(mem.slice(job.bufs.output, k).expect("staged output"));
    };
    match ctx {
        Ctx::Mem(mem) => {
            let mut stats = Vec::with_capacity(tokens.len());
            for x in tokens {
                stage(mem, x);
                let mut ctx = Ctx::Mem(mem);
                let run = run_fc(name.to_string(), &job.geom, &mut ctx, cluster, &mut body);
                stats.push(Arc::new(run));
                read_out(mem, &mut outputs);
            }
            return Ok(BatchRun { stats, outputs });
        }
        Ctx::MemBulk(mem) => {
            let (swept, fallback) = tokens.split_at(sweep_len(tokens.len()));
            if !swept.is_empty() {
                outputs.resize(swept.len() * k, 0);
                fc_sweep(mem, job, gather, swept, &mut outputs);
            }
            for x in fallback {
                stage(mem, x);
                compute_fc(mem, cluster, &mut body);
                read_out(mem, &mut outputs);
            }
        }
        Ctx::Analytic => {}
    }
    let stats = run_fc(
        name.to_string(),
        &job.geom,
        &mut Ctx::Analytic,
        cluster,
        body,
    );
    Ok(BatchRun::shared(tokens.len(), stats, outputs))
}
