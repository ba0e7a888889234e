//! Unstructured CSR sparse FC kernel (cf. Trommer et al. 2021).
//!
//! Each non-zero pays: one 16-bit column-index load, one activation byte
//! load, one weight byte load and one scalar MAC (SIMD is unusable
//! without structure) = 4 instructions per MAC. The format also stores
//! 16-bit indices per non-zero, so at moderate sparsity it loses to N:M
//! on both speed and memory — the comparison the paper draws in Sec. 4.

use super::super::fc::{run_fc, FcJob, EPILOGUE_ALU};
use crate::bulk::{csr_rows_out, loop_scaffold, u16_indices_below, write_out};
use crate::stats::{Ctx, KernelStats};
use nm_core::format::CsrMatrix;
use nm_core::{Error, Result};
use nm_isa::{ChargePolicy, Charged, Core, CostModel, InstrBlock, Memory, Uncharged};
use nm_platform::{chunk_range, Cluster, Scratchpad};
use std::ops::Range;

/// L1 addresses for the CSR kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct CsrBufs {
    /// Input vector.
    pub input: u32,
    /// Non-zero weight values.
    pub values: u32,
    /// 16-bit column indices.
    pub col_idx: u32,
    /// Output vector.
    pub output: u32,
}

/// A CSR sparse FC job.
#[derive(Debug, Clone)]
pub struct CsrFcJob {
    /// Dense job description (geometry, requant; `bufs` unused).
    pub fc: FcJob,
    /// Non-zeros per output channel.
    pub row_nnz: Vec<usize>,
    /// Buffers staged by [`stage_csr_fc`].
    pub bufs: CsrBufs,
}

impl CsrFcJob {
    /// Builds the job metadata from a packed matrix, with default
    /// (unstaged) buffers — enough for analytic runs; emulation requires
    /// the buffers from [`stage_csr_fc`].
    pub fn from_matrix(fc: FcJob, w: &CsrMatrix) -> Self {
        CsrFcJob {
            fc,
            row_nnz: (0..w.rows()).map(|k| w.row_nnz(k)).collect(),
            bufs: CsrBufs::default(),
        }
    }
}

/// Stages a [`CsrMatrix`] and input vector into L1.
///
/// # Errors
/// [`Error::ShapeMismatch`] on dimension disagreement;
/// [`Error::OutOfMemory`] if L1 is too small.
pub fn stage_csr_fc(
    l1: &mut Scratchpad,
    fc: &FcJob,
    input: &[i8],
    w: &CsrMatrix,
) -> Result<CsrFcJob> {
    if input.len() != fc.geom.c || w.rows() != fc.geom.k || w.cols() != fc.geom.c {
        return Err(Error::ShapeMismatch(
            "CSR staging dimension mismatch".into(),
        ));
    }
    let mut values = Vec::new();
    let mut cols: Vec<u16> = Vec::new();
    for k in 0..fc.geom.k {
        for (c, v) in w.row(k) {
            values.push(v);
            cols.push(c as u16);
        }
    }
    let bufs = CsrBufs {
        input: l1.alloc(input.len(), 4)?,
        values: l1.alloc(values.len().max(1), 4)?,
        col_idx: l1.alloc((cols.len() * 2).max(2), 4)?,
        output: l1.alloc(fc.geom.k, 4)?,
    };
    for (i, &v) in input.iter().enumerate() {
        l1.store_i8(bufs.input + i as u32, v);
    }
    for (i, &v) in values.iter().enumerate() {
        l1.store_i8(bufs.values + i as u32, v);
    }
    for (i, &c) in cols.iter().enumerate() {
        l1.store_u8(bufs.col_idx + (2 * i) as u32, (c & 0xFF) as u8);
        l1.store_u8(bufs.col_idx + (2 * i + 1) as u32, (c >> 8) as u8);
    }
    Ok(CsrFcJob {
        bufs,
        ..CsrFcJob::from_matrix(*fc, w)
    })
}

/// Runs the unstructured CSR FC kernel.
///
/// # Errors
/// [`Error::ShapeMismatch`] if `row_nnz` does not have K entries.
pub fn fc_csr(ctx: &mut Ctx<'_>, job: &CsrFcJob, cluster: &Cluster) -> Result<KernelStats> {
    let geom = job.fc.geom;
    if job.row_nnz.len() != geom.k {
        return Err(Error::ShapeMismatch(format!(
            "row_nnz has {} entries, K={}",
            job.row_nnz.len(),
            geom.k
        )));
    }
    let mut row_start = vec![0usize; geom.k + 1];
    for k in 0..geom.k {
        row_start[k + 1] = row_start[k] + job.row_nnz[k];
    }
    // One core's worth of CSR rows: the single shared kernel body for
    // the bulk and native tiers. Outputs from zero-copy slices of the
    // flat value/index streams, one aggregated accounting block per core
    // (block charging is order-independent, so the variable per-row
    // non-zero counts sum exactly); never built on `Uncharged`.
    fn core_body<P: ChargePolicy>(
        mem: &mut Scratchpad,
        core: &mut Core,
        job: &CsrFcJob,
        row_start: &[usize],
        range: Range<usize>,
    ) {
        let geom = job.fc.geom;
        let total = row_start[geom.k];
        {
            // The activation window extends past the logical input
            // vector to the end of the scratchpad (capped at the
            // 16-bit index range): an out-of-range column then reads
            // the same in-scratchpad byte the reference path's raw
            // load would, and when the window covers every possible
            // u16 index the gathers run unchecked with no
            // per-invocation validation scan at all.
            let win = (mem.size() - job.bufs.input as usize).min(1 << 16);
            let input = mem
                .slice(job.bufs.input, win)
                .expect("scratchpad is zero-copy");
            let values = mem
                .slice(job.bufs.values, total)
                .expect("scratchpad is zero-copy");
            let cols = mem
                .slice(job.bufs.col_idx, 2 * total)
                .expect("scratchpad is zero-copy");
            let (s0, e0) = (row_start[range.start], row_start[range.end]);
            let safe = win == (1 << 16) || u16_indices_below(&cols[2 * s0..2 * e0], win);
            let starts = &row_start[range.start..=range.end];
            let outs = if safe {
                csr_rows_out::<false>(values, cols, input, starts, job.fc.requant)
            } else {
                csr_rows_out::<true>(values, cols, input, starts, job.fc.requant)
            };
            write_out(mem, job.bufs.output + range.start as u32, &outs);
        }
        let costs = *core.costs();
        P::charge_block(core, || core_block(&costs, row_start, range));
    }

    let native = ctx.is_native();
    Ok(run_fc(
        "fc-csr".into(),
        &geom,
        cluster,
        native,
        |core_id, core| {
            let range = chunk_range(geom.k, cluster.n_cores(), core_id);
            match ctx.path() {
                Ctx::MemBulk(mem) => core_body::<Charged>(mem, core, job, &row_start, range),
                Ctx::MemNative(mem) => core_body::<Uncharged>(mem, core, job, &row_start, range),
                Ctx::Analytic => core.charge_block(&core_block(core.costs(), &row_start, range)),
                Ctx::Mem(mem) => {
                    for k in range {
                        core.outer_loop_iter();
                        core.alu_n(3);
                        core.hwloop_setup();
                        let nnz = job.row_nnz[k];
                        let mut acc = 0i32;
                        for i in 0..nnz {
                            let flat = row_start[k] + i;
                            let lo = core.lb(mem, job.bufs.col_idx + (2 * flat) as u32) as u8;
                            let hi = mem.load_u8(job.bufs.col_idx + (2 * flat + 1) as u32);
                            let col = u32::from(lo) | (u32::from(hi) << 8);
                            let a = core.lb(mem, job.bufs.input + col);
                            let w = core.lb(mem, job.bufs.values + flat as u32);
                            acc = core.mac(i32::from(w), i32::from(a), acc);
                        }
                        core.alu_n(EPILOGUE_ALU);
                        let out = job.fc.requant.apply(acc);
                        core.sb(mem, job.bufs.output + k as u32, out);
                    }
                }
            }
        },
    ))
}

/// The accounting block of one core's range of CSR rows (`row_start`
/// holds the prefix sums of the per-row non-zero counts): the loop
/// scaffold and epilogue per row plus four instructions per non-zero.
/// Block charging is order-independent, so the ragged rows simply sum.
fn core_block(costs: &CostModel, row_start: &[usize], range: Range<usize>) -> InstrBlock {
    let nnz = (row_start[range.end] - row_start[range.start]) as u64;
    loop_scaffold(costs, 3)
        .then(InstrBlock::new().alu(EPILOGUE_ALU).stores(1))
        .repeat(range.len() as u64)
        .then(InstrBlock::new().loads(3).mac(1).repeat(nnz))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::fc_ref;
    use crate::testdata::random_sparse_data;
    use nm_core::quant::Requant;
    use nm_core::FcGeom;
    use nm_isa::CostModel;

    #[test]
    fn matches_reference() {
        let geom = FcGeom::new(48, 9).unwrap();
        let input: Vec<i8> = (0..48).map(|i| (i * 3 % 120) as i8 - 60).collect();
        let dense = random_sparse_data(geom.weight_elems(), 4, 77);
        let w = CsrMatrix::from_dense(&dense, geom.k, geom.c).unwrap();
        let rq = Requant::for_dot_len(12);
        let fc = FcJob {
            geom,
            requant: rq,
            bufs: Default::default(),
        };
        let mut l1 = Scratchpad::new("l1", 64 * 1024);
        let job = stage_csr_fc(&mut l1, &fc, &input, &w).unwrap();
        let cluster = Cluster::new(4, CostModel::default());
        let stats = {
            let mut ctx = Ctx::Mem(&mut l1);
            fc_csr(&mut ctx, &job, &cluster).unwrap()
        };
        let got: Vec<i8> = (0..geom.k as u32)
            .map(|i| l1.load_i8(job.bufs.output + i))
            .collect();
        assert_eq!(got, fc_ref(&geom, &input, &dense, rq));

        let analytic = fc_csr(&mut Ctx::Analytic, &job, &cluster).unwrap();
        assert_eq!(stats.cycles(), analytic.cycles());
    }

    #[test]
    fn csr_slower_than_nm_at_same_sparsity() {
        use crate::fc::sparse_sw::{fc_sparse_sw, SparseFcJob};
        use nm_core::format::NmMatrix;
        use nm_core::format::OffsetLayout;
        use nm_core::sparsity::Nm;

        let geom = FcGeom::new(512, 64).unwrap();
        let nm = Nm::ONE_OF_EIGHT;
        let dense = random_sparse_data(geom.weight_elems(), nm.m(), 5);
        let cluster = Cluster::new(8, CostModel::default());

        let csr = CsrMatrix::from_dense(&dense, geom.k, geom.c).unwrap();
        let fc = FcJob {
            geom,
            requant: Requant::IDENTITY,
            bufs: Default::default(),
        };
        let job = CsrFcJob::from_matrix(fc, &csr);
        let csr_stats = fc_csr(&mut Ctx::Analytic, &job, &cluster).unwrap();

        let packed = NmMatrix::from_dense(&dense, geom.k, geom.c, nm, OffsetLayout::Plain).unwrap();
        let nm_job = SparseFcJob { fc, nm };
        let nm_stats = fc_sparse_sw(&mut Ctx::Analytic, &nm_job, &cluster).unwrap();
        // Software N:M matches CSR on compute (both ~4 instructions per
        // non-zero) — the N:M wins at iso-sparsity are memory (here) and
        // the ISA-extended path (tested elsewhere).
        assert!(
            nm_stats.cycles() <= csr_stats.cycles(),
            "N:M {} vs CSR {}",
            nm_stats.cycles(),
            csr_stats.cycles()
        );
        assert!(packed.memory_bits_nominal() / 8 < csr.memory_bytes());
    }
}
