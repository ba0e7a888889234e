//! Software-only N:M sparse fully-connected kernel (paper Sec. 4.2.2,
//! Fig. 5 center).
//!
//! Same decimation idea as the convolution kernel, on a single input
//! buffer and without the channel-pair unrolling (each channel has its
//! own non-zero indices). Inner iteration: 4 non-zeros = 4 MACs in
//! 16 instructions (9 index computation, 4 byte loads, 1 address update,
//! 1 weight word load, 1 SIMD dot product) — peak 0.25 MACs/instr/core,
//! i.e. 1.0 / 2.0 / 4.0 dense-equivalent at 1:4 / 1:8 / 1:16; the paper
//! notes the 1:4 variant cannot beat the dense baseline on compute alone.

use super::{drive_fc_batch, run_fc, FcJob, EPILOGUE_ALU};
use crate::bulk::{loop_scaffold, nm_gather_dot, offsets_len, write_out, FcGather};
use crate::conv::sparse_sw::read_offset;
use crate::layout::nm_segment_bytes;
use crate::stats::{BatchRun, Ctx, KernelStats};
use nm_core::format::OffsetLayout;
use nm_core::sparsity::Nm;
use nm_core::{Error, Result};
use nm_isa::{Core, CostModel, InstrBlock, InstrClass, Memory};
use nm_platform::{chunk_range, Cluster, Scratchpad};
use std::ops::Range;

/// A sparse FC job: the dense job description plus the pattern.
#[derive(Debug, Clone, Copy)]
pub struct SparseFcJob {
    /// Geometry, requantization and buffers.
    pub fc: FcJob,
    /// The N:M pattern of the packed weights.
    pub nm: Nm,
}

impl SparseFcJob {
    /// Non-zero weights per output channel.
    pub fn nz_per_channel(&self) -> usize {
        self.fc.geom.c / self.nm.m()
    }

    pub(crate) fn validate(&self) -> Result<()> {
        if !self.nm.is_kernel_supported() {
            return Err(Error::Unsupported(format!(
                "kernel library implements 1:4, 1:8, 1:16; got {}",
                self.nm
            )));
        }
        if !self.fc.geom.c.is_multiple_of(self.nm.m()) {
            return Err(Error::ShapeMismatch(format!(
                "input features {} not a multiple of M={}",
                self.fc.geom.c,
                self.nm.m()
            )));
        }
        Ok(())
    }
}

/// Runs the software-only sparse FC kernel. Weights must be staged in
/// the [`OffsetLayout::Plain`] N:M format.
///
/// # Errors
/// [`Error::Unsupported`] for patterns outside {1:4, 1:8, 1:16};
/// [`Error::ShapeMismatch`] if C is not a multiple of M.
pub fn fc_sparse_sw(
    ctx: &mut Ctx<'_>,
    job: &SparseFcJob,
    cluster: &Cluster,
) -> Result<KernelStats> {
    job.validate()?;
    let body = sw_body(job, cluster);
    let name = format!("fc-sparse-sw-{}", job.nm);
    Ok(run_fc(name, &job.fc.geom, ctx, cluster, body))
}

/// Runs the software sparse FC kernel over `tokens` on one staged tile
/// through the token sweep (see the [`crate::fc`] module docs). Each
/// token's output and statistics equal a freshly staged single run's.
///
/// # Errors
/// As [`fc_sparse_sw`]; additionally [`Error::ShapeMismatch`] if a
/// token's length is not the tile's `C`.
pub fn fc_sparse_sw_batch(
    ctx: &mut Ctx<'_>,
    job: &SparseFcJob,
    cluster: &Cluster,
    tokens: &[&[i8]],
) -> Result<BatchRun> {
    job.validate()?;
    let body = sw_body(job, cluster);
    let seg = nm_segment_bytes(job.nm, job.nz_per_channel(), OffsetLayout::Plain);
    let gather = FcGather::Plain { nm: job.nm, seg };
    let name = format!("fc-sparse-sw-{}", job.nm);
    drive_fc_batch(&name, ctx, &job.fc, cluster, tokens, gather, body)
}

/// The software kernel's per-core body over a validated job, shared by
/// the single-run and token-sweep entry points.
fn sw_body<'a>(
    job: &'a SparseFcJob,
    cluster: &'a Cluster,
) -> impl FnMut(usize, &mut Core, &mut Ctx<'_>) + 'a {
    let geom = job.fc.geom;
    let nz = job.nz_per_channel();
    let seg = nm_segment_bytes(job.nm, nz, OffsetLayout::Plain) as u32;
    move |core_id, core, ctx| {
        let range = chunk_range(geom.k, cluster.n_cores(), core_id);
        match ctx.path() {
            Ctx::MemBulk(mem) => core_body(mem, job, seg, range),
            Ctx::Analytic => {
                core.charge_block(&channel_block(core.costs(), job).repeat(range.len() as u64))
            }
            Ctx::Mem(_) => {
                for k in range {
                    let wrow = job.fc.bufs.weights + (k * nz) as u32;
                    let krow = job.fc.bufs.offsets + k as u32 * seg;
                    channel(core, ctx, job, k, wrow, krow);
                }
            }
        }
    }
}

/// One core's worth of software-decimation FC channels on the bulk
/// path, the operand slices taken once per core. Every channel has the
/// same shape, so the analytic pass charges the whole range as one
/// repeated [`channel_block`].
fn core_body(mem: &mut Scratchpad, job: &SparseFcJob, seg: u32, range: Range<usize>) {
    let geom = job.fc.geom;
    let nz = job.nz_per_channel();
    let m = job.nm.m();
    let bits = job.nm.offset_bits();
    let out0 = job.fc.bufs.output + range.start as u32;
    let input = mem
        .slice(job.fc.bufs.input, geom.c)
        .expect("scratchpad is zero-copy");
    let values = mem
        .slice(job.fc.bufs.weights, geom.k * nz)
        .expect("scratchpad is zero-copy");
    let offs = mem
        .slice(job.fc.bufs.offsets, geom.k * seg as usize)
        .expect("scratchpad is zero-copy");
    let outs: Vec<i8> = range
        .map(|k| {
            let acc = nm_gather_dot(
                &values[k * nz..(k + 1) * nz],
                input,
                &offs[k * seg as usize..],
                bits,
                m,
            );
            job.fc.requant.apply(acc)
        })
        .collect();
    write_out(mem, out0, &outs);
}

/// The accounting block of one software-decimation FC channel behind its
/// loop scaffold (the exact batched equivalent of the reference arm's
/// charge sequence).
fn channel_block(costs: &CostModel, job: &SparseFcJob) -> InstrBlock {
    let nz = job.nz_per_channel();
    let (chunks, tail) = ((nz / 4) as u64, (nz % 4) as u64);
    loop_scaffold(costs, 3)
        .then(InstrBlock::new().loads(6).alu(9).sdotp(1).repeat(chunks))
        .then(InstrBlock::new().loads_unstalled(u64::from(tail > 0)))
        .then(InstrBlock::new().alu(2).loads(2).mac(1).repeat(tail))
        .then(InstrBlock::new().alu(EPILOGUE_ALU).stores(1))
}

/// One output channel of the software sparse FC kernel, loop scaffold
/// included. `wrow` / `seg` address the channel's packed values and offset segment (unused in
/// analytic mode) — explicit so the per-channel mixed kernel can address
/// heterogeneous rows.
pub(crate) fn channel(
    core: &mut Core,
    ctx: &mut Ctx<'_>,
    job: &SparseFcJob,
    k: usize,
    wrow: u32,
    seg: u32,
) {
    let m = job.nm.m();
    let bits = job.nm.offset_bits();
    let nz = job.nz_per_channel();
    let (chunks, tail) = (nz / 4, nz % 4);
    match ctx.path() {
        Ctx::MemBulk(mem) => {
            let out = {
                let input = mem
                    .slice(job.fc.bufs.input, nz * m)
                    .expect("scratchpad is zero-copy");
                let values = mem.slice(wrow, nz).expect("scratchpad is zero-copy");
                let offs = mem
                    .slice(seg, offsets_len(nz, bits))
                    .expect("scratchpad is zero-copy");
                job.fc
                    .requant
                    .apply(nm_gather_dot(values, input, offs, bits, m))
            };
            mem.store_i8(job.fc.bufs.output + k as u32, out);
        }
        Ctx::Analytic => core.charge_block(&channel_block(core.costs(), job)),
        Ctx::Mem(mem) => {
            core.outer_loop_iter();
            core.alu_n(3);
            core.hwloop_setup();
            let vrow = wrow;
            let mut acc = 0i32;
            for j in 0..chunks {
                let mut offs = [0usize; 4];
                if bits == 4 {
                    let word = core.lw(mem, seg + (2 * j) as u32);
                    for (i, o) in offs.iter_mut().enumerate() {
                        core.alu_n(2);
                        *o = ((word >> (4 * i)) & 0xF) as usize;
                    }
                } else {
                    let byte = core.lb(mem, seg + j as u32) as u8;
                    for (i, o) in offs.iter_mut().enumerate() {
                        core.alu_n(2);
                        *o = usize::from((byte >> (2 * i)) & 0x3);
                    }
                }
                let mut vb = 0u32;
                for (i, &o) in offs.iter().enumerate() {
                    let addr = job.fc.bufs.input + ((4 * j + i) * m + o) as u32;
                    vb = core.lb_lane(mem, addr, vb, i as u32);
                }
                core.alu_n(1); // input pointer update
                let w = core.lw(mem, vrow + (4 * j) as u32);
                acc = core.sdotp(w, vb, acc);
            }
            if tail > 0 {
                core.charge(InstrClass::Load, 1);
            }
            for t in 0..tail {
                let idx = chunks * 4 + t;
                core.alu_n(2);
                let o = read_offset(mem, seg, bits, idx);
                let a = core.lb(mem, job.fc.bufs.input + (idx * m + o) as u32);
                let wv = core.lb(mem, vrow + idx as u32);
                acc = core.mac(i32::from(wv), i32::from(a), acc);
            }
            core.alu_n(EPILOGUE_ALU);
            let out = job.fc.requant.apply(acc);
            core.sb(mem, job.fc.bufs.output + k as u32, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::stage_fc_sparse;
    use crate::reference::fc_ref;
    use nm_core::format::NmMatrix;
    use nm_core::quant::Requant;
    use nm_core::FcGeom;
    use nm_isa::{CostModel, Memory};
    use nm_platform::Scratchpad;

    use crate::testdata::random_data;

    fn check(geom: FcGeom, nm: Nm) {
        let input = random_data(geom.c, 9);
        let dense = random_data(geom.weight_elems(), 23);
        let w =
            NmMatrix::prune_from_dense(&dense, geom.k, geom.c, nm, OffsetLayout::Plain).unwrap();
        let pruned = w.to_dense();
        let rq = Requant::for_dot_len(geom.c / nm.m());
        let cluster = Cluster::new(4, CostModel::default());
        let mut l1 = Scratchpad::new("l1", 512 * 1024);
        let bufs = stage_fc_sparse(&mut l1, &geom, &input, &w).unwrap();
        let job = SparseFcJob {
            fc: FcJob {
                geom,
                requant: rq,
                bufs,
            },
            nm,
        };
        let stats = {
            let mut ctx = Ctx::Mem(&mut l1);
            fc_sparse_sw(&mut ctx, &job, &cluster).unwrap()
        };
        let got: Vec<i8> = (0..geom.k as u32)
            .map(|i| l1.load_i8(bufs.output + i))
            .collect();
        assert_eq!(got, fc_ref(&geom, &input, &pruned, rq), "{nm} {geom:?}");

        let analytic = fc_sparse_sw(&mut Ctx::Analytic, &job, &cluster).unwrap();
        assert_eq!(stats.cycles(), analytic.cycles());
        assert_eq!(
            stats.cluster.total_instret(),
            analytic.cluster.total_instret()
        );
    }

    #[test]
    fn matches_reference_all_patterns() {
        for nm in Nm::KERNEL_PATTERNS {
            check(FcGeom::new(nm.m() * 8, 12).unwrap(), nm);
        }
    }

    #[test]
    fn handles_tails_and_small_layers() {
        check(FcGeom::new(8 * 5, 3).unwrap(), Nm::ONE_OF_EIGHT); // nz=5: chunk + tail
        check(FcGeom::new(4 * 3, 2).unwrap(), Nm::ONE_OF_FOUR); // nz=3: tail only
        check(FcGeom::new(16, 1).unwrap(), Nm::ONE_OF_SIXTEEN); // nz=1
    }

    #[test]
    fn rejects_bad_shapes() {
        let job = SparseFcJob {
            fc: FcJob {
                geom: FcGeom::new(12, 4).unwrap(),
                requant: Requant::IDENTITY,
                bufs: Default::default(),
            },
            nm: Nm::ONE_OF_EIGHT,
        };
        assert!(matches!(
            fc_sparse_sw(
                &mut Ctx::Analytic,
                &job,
                &Cluster::new(1, CostModel::default())
            ),
            Err(Error::ShapeMismatch(_))
        ));
    }

    /// Guard test: 16 inner instructions per 4-NZ chunk (paper Sec. 4.2.2).
    #[test]
    fn inner_chunk_budget_is_16() {
        for nm in Nm::KERNEL_PATTERNS {
            let cluster = Cluster::new(1, CostModel::default());
            let job = |c| SparseFcJob {
                fc: FcJob {
                    geom: FcGeom::new(c, 1).unwrap(),
                    requant: Requant::IDENTITY,
                    bufs: Default::default(),
                },
                nm,
            };
            let i1 = fc_sparse_sw(&mut Ctx::Analytic, &job(4 * nm.m()), &cluster)
                .unwrap()
                .cluster
                .total_instret();
            let i2 = fc_sparse_sw(&mut Ctx::Analytic, &job(8 * nm.m()), &cluster)
                .unwrap()
                .cluster
                .total_instret();
            assert_eq!(i2 - i1, 16, "{nm}");
        }
    }
}
