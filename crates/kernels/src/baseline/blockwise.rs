//! Scalpel-style blockwise sparse FC kernel (SIMD-width = 4 blocks).
//!
//! Inner iteration per kept block: 1 block-index load + 1 address
//! computation + 1 activation word load + 1 weight word load + 1 SIMD
//! dot product = 5 instructions for 4 effective MACs (0.8 MACs/instr) —
//! better per *kept* weight than N:M, but block pruning reaches a given
//! sparsity with far larger accuracy loss (Sec. 2.1), which is why the
//! paper adopts N:M.

use super::super::fc::{run_fc, FcJob, EPILOGUE_ALU};
use crate::bulk::{blockwise_rows_out, loop_scaffold, u16_indices_below, write_out};
use crate::stats::{Ctx, KernelStats};
use nm_core::format::BlockwiseMatrix;
use nm_core::{Error, Result};
use nm_isa::{ChargePolicy, Charged, Core, CostModel, InstrBlock, Memory, Uncharged};
use nm_platform::{chunk_range, Cluster, Scratchpad};
use std::ops::Range;

/// L1 addresses for the blockwise kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockwiseBufs {
    /// Input vector.
    pub input: u32,
    /// Kept blocks, 4 bytes each, row-major.
    pub values: u32,
    /// 16-bit block indices, one per kept block.
    pub block_idx: u32,
    /// Output vector.
    pub output: u32,
}

/// A blockwise sparse FC job; `blocks_per_row[k]` gives the kept-block
/// count of each output channel (rows may differ, unlike N:M).
#[derive(Debug, Clone)]
pub struct BlockwiseFcJob {
    /// Dense job description (geometry, requant; `bufs` unused).
    pub fc: FcJob,
    /// Kept blocks per output channel.
    pub blocks_per_row: Vec<usize>,
    /// Buffers staged by [`stage_blockwise_fc`].
    pub bufs: BlockwiseBufs,
}

impl BlockwiseFcJob {
    /// Builds the job metadata from a packed matrix, with default
    /// (unstaged) buffers — enough for analytic runs; emulation requires
    /// the buffers from [`stage_blockwise_fc`].
    pub fn from_matrix(fc: FcJob, w: &BlockwiseMatrix) -> Self {
        BlockwiseFcJob {
            fc,
            blocks_per_row: (0..w.rows()).map(|k| w.row_blocks(k)).collect(),
            bufs: BlockwiseBufs::default(),
        }
    }
}

/// Stages a [`BlockwiseMatrix`] and input vector into L1.
///
/// # Errors
/// [`Error::ShapeMismatch`] if dimensions disagree or the block width is
/// not 4; [`Error::OutOfMemory`] if L1 is too small.
pub fn stage_blockwise_fc(
    l1: &mut Scratchpad,
    fc: &FcJob,
    input: &[i8],
    w: &BlockwiseMatrix,
) -> Result<BlockwiseFcJob> {
    if w.block() != 4 {
        return Err(Error::ShapeMismatch(format!(
            "SIMD blockwise kernel needs block 4, got {}",
            w.block()
        )));
    }
    if input.len() != fc.geom.c {
        return Err(Error::ShapeMismatch("input length mismatch".into()));
    }
    let mut values = Vec::new();
    let mut idx: Vec<u16> = Vec::new();
    for k in 0..fc.geom.k {
        for (b, vals) in w.row(k) {
            values.extend_from_slice(vals);
            idx.push(b as u16);
        }
    }
    let bufs = BlockwiseBufs {
        input: l1.alloc(input.len(), 4)?,
        values: l1.alloc(values.len().max(1), 4)?,
        block_idx: l1.alloc((idx.len() * 2).max(2), 4)?,
        output: l1.alloc(fc.geom.k, 4)?,
    };
    for (i, &v) in input.iter().enumerate() {
        l1.store_i8(bufs.input + i as u32, v);
    }
    for (i, &v) in values.iter().enumerate() {
        l1.store_i8(bufs.values + i as u32, v);
    }
    for (i, &v) in idx.iter().enumerate() {
        l1.store_u8(bufs.block_idx + (2 * i) as u32, (v & 0xFF) as u8);
        l1.store_u8(bufs.block_idx + (2 * i + 1) as u32, (v >> 8) as u8);
    }
    Ok(BlockwiseFcJob {
        bufs,
        ..BlockwiseFcJob::from_matrix(*fc, w)
    })
}

/// Runs the blockwise sparse FC kernel.
///
/// # Errors
/// [`Error::ShapeMismatch`] if `blocks_per_row` does not have K entries.
pub fn fc_blockwise(
    ctx: &mut Ctx<'_>,
    job: &BlockwiseFcJob,
    cluster: &Cluster,
) -> Result<KernelStats> {
    let geom = job.fc.geom;
    if job.blocks_per_row.len() != geom.k {
        return Err(Error::ShapeMismatch(format!(
            "blocks_per_row has {} entries, K={}",
            job.blocks_per_row.len(),
            geom.k
        )));
    }
    // Row starts in blocks (prefix sums), computed at staging time on the
    // fabric controller, not charged to the cluster.
    let mut row_start = vec![0usize; geom.k + 1];
    for k in 0..geom.k {
        row_start[k + 1] = row_start[k] + job.blocks_per_row[k];
    }
    // One core's worth of blockwise rows: the single shared kernel body
    // for the bulk and native tiers. 4-wide block dots from zero-copy
    // slices of the flat value/index streams, one aggregated accounting
    // block per core (never built on `Uncharged`).
    fn core_body<P: ChargePolicy>(
        mem: &mut Scratchpad,
        core: &mut Core,
        job: &BlockwiseFcJob,
        row_start: &[usize],
        range: Range<usize>,
    ) {
        let geom = job.fc.geom;
        let total = row_start[geom.k];
        {
            // As in the CSR kernel, the activation window runs to
            // the end of the scratchpad (capped at the largest
            // 4-byte window a 16-bit block index can address):
            // out-of-range indices read what the reference path's
            // raw loads would, and a window covering the whole
            // index range needs no validation scan.
            let full = 4 * usize::from(u16::MAX) + 4;
            let win = (mem.size() - job.bufs.input as usize).min(full);
            let input = mem
                .slice(job.bufs.input, win)
                .expect("scratchpad is zero-copy");
            let values = mem
                .slice(job.bufs.values, 4 * total)
                .expect("scratchpad is zero-copy");
            let idx = mem
                .slice(job.bufs.block_idx, 2 * total)
                .expect("scratchpad is zero-copy");
            let (s0, e0) = (row_start[range.start], row_start[range.end]);
            let safe = win == full || u16_indices_below(&idx[2 * s0..2 * e0], win / 4);
            let starts = &row_start[range.start..=range.end];
            let outs = if safe {
                blockwise_rows_out::<false>(values, idx, input, starts, job.fc.requant)
            } else {
                blockwise_rows_out::<true>(values, idx, input, starts, job.fc.requant)
            };
            write_out(mem, job.bufs.output + range.start as u32, &outs);
        }
        let costs = *core.costs();
        P::charge_block(core, || core_block(&costs, row_start, range));
    }

    let native = ctx.is_native();
    Ok(run_fc(
        "fc-blockwise-1x4".into(),
        &geom,
        cluster,
        native,
        |core_id, core| {
            let range = chunk_range(geom.k, cluster.n_cores(), core_id);
            let mem = match ctx.path() {
                Ctx::MemBulk(mem) => {
                    return core_body::<Charged>(mem, core, job, &row_start, range)
                }
                Ctx::MemNative(mem) => {
                    return core_body::<Uncharged>(mem, core, job, &row_start, range)
                }
                Ctx::Analytic => {
                    return core.charge_block(&core_block(core.costs(), &row_start, range))
                }
                Ctx::Mem(mem) => mem,
            };
            for k in range {
                core.outer_loop_iter();
                core.alu_n(3);
                core.hwloop_setup();
                let blocks = job.blocks_per_row[k];
                let mut acc = 0i32;
                for b in 0..blocks {
                    let flat = row_start[k] + b;
                    let lo = core.lb(mem, job.bufs.block_idx + (2 * flat) as u32) as u8;
                    let hi = mem.load_u8(job.bufs.block_idx + (2 * flat + 1) as u32);
                    let idx = u32::from(lo) | (u32::from(hi) << 8); // one lhu: charged as the lb above
                    core.alu_n(1);
                    let a = core.lw(mem, job.bufs.input + idx * 4);
                    let w = core.lw(mem, job.bufs.values + (flat * 4) as u32);
                    acc = core.sdotp(w, a, acc);
                }
                core.alu_n(EPILOGUE_ALU);
                let out = job.fc.requant.apply(acc);
                core.sb(mem, job.bufs.output + k as u32, out);
            }
        },
    ))
}

/// The accounting block of one core's range of blockwise rows
/// (`row_start` holds the prefix sums of the per-row block counts): the
/// loop scaffold and epilogue per row plus one 4-wide block step per
/// stored block (block charging is order-independent, so the ragged
/// rows simply sum).
fn core_block(costs: &CostModel, row_start: &[usize], range: Range<usize>) -> InstrBlock {
    let blocks = (row_start[range.end] - row_start[range.start]) as u64;
    loop_scaffold(costs, 3)
        .then(InstrBlock::new().alu(EPILOGUE_ALU).stores(1))
        .repeat(range.len() as u64)
        .then(InstrBlock::new().loads(3).alu(1).sdotp(1).repeat(blocks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::fc_ref;
    use nm_core::quant::Requant;
    use nm_core::FcGeom;
    use nm_isa::CostModel;

    use crate::testdata::random_data;

    #[test]
    fn matches_reference() {
        let geom = FcGeom::new(64, 10).unwrap();
        let input = random_data(geom.c, 3);
        let dense = random_data(geom.weight_elems(), 7);
        let w = BlockwiseMatrix::prune_from_dense(&dense, geom.k, geom.c, 4, 4).unwrap();
        let pruned = w.to_dense();
        let rq = Requant::for_dot_len(16);
        let fc = FcJob {
            geom,
            requant: rq,
            bufs: Default::default(),
        };
        let mut l1 = Scratchpad::new("l1", 64 * 1024);
        let job = stage_blockwise_fc(&mut l1, &fc, &input, &w).unwrap();
        let cluster = Cluster::new(4, CostModel::default());
        let stats = {
            let mut ctx = Ctx::Mem(&mut l1);
            fc_blockwise(&mut ctx, &job, &cluster).unwrap()
        };
        let got: Vec<i8> = (0..geom.k as u32)
            .map(|i| l1.load_i8(job.bufs.output + i))
            .collect();
        assert_eq!(got, fc_ref(&geom, &input, &pruned, rq));

        let analytic = fc_blockwise(&mut Ctx::Analytic, &job, &cluster).unwrap();
        assert_eq!(stats.cycles(), analytic.cycles());
    }

    #[test]
    fn empty_rows_are_cheap() {
        let geom = FcGeom::new(16, 4).unwrap();
        let dense = vec![0i8; geom.weight_elems()];
        let w = BlockwiseMatrix::from_dense(&dense, geom.k, geom.c, 4).unwrap();
        let fc = FcJob {
            geom,
            requant: Requant::IDENTITY,
            bufs: Default::default(),
        };
        let mut l1 = Scratchpad::new("l1", 4 * 1024);
        let input = vec![1i8; geom.c];
        let job = stage_blockwise_fc(&mut l1, &fc, &input, &w).unwrap();
        let cluster = Cluster::new(1, CostModel::default());
        let stats = fc_blockwise(&mut Ctx::Analytic, &job, &cluster).unwrap();
        assert_eq!(stats.cluster.total_macs(), 0);
    }
}
