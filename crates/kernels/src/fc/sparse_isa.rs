//! ISA-extended N:M sparse fully-connected kernel (paper Sec. 4.2.3,
//! Fig. 5 right / Fig. 6).
//!
//! The same `xDecimate` instruction designed for convolutions is reused:
//! since the instruction advances its block pointer every *two*
//! executions, the kernel unrolls over two *output channels* (instead of
//! two patches), with the channels' offsets interleaved offline
//! (`o0_ch_i, o0_ch_i+1, o1_ch_i, o1_ch_i+1, …` — the
//! [`OffsetLayout::Interleaved`] format). Eight `xDecimate` executions
//! fill `vB1` with channel `i`'s activations and `vB2` with channel
//! `i+1`'s.
//!
//! Inner iteration: 1 offsets word load + 2 weight word loads +
//! 8 `xDecimate` + 2 SIMD dot products = 13 instructions for 8 MACs —
//! 0.61 MACs/instr/core, i.e. 2.44 / 4.88 / 9.76 dense-equivalent,
//! always above the dense baseline.

use super::sparse_sw::SparseFcJob;
use super::{drive_fc_batch, run_fc, EPILOGUE_ALU};
use crate::bulk::{gather_dot2_pair, loop_scaffold, write_out, FcGather};
use crate::conv::sparse_isa::decimate_mode;
use crate::layout::nm_segment_bytes;
use crate::stats::{BatchRun, Ctx, KernelStats};
use nm_core::format::OffsetLayout;
use nm_core::{Error, Result};
use nm_isa::{Core, CostModel, DecimateMode, InstrBlock, Memory};
use nm_platform::{chunk_range, Cluster, Scratchpad};
use std::ops::Range;

/// Runs the ISA-extended sparse FC kernel. Weights must be staged in the
/// [`OffsetLayout::Interleaved`] N:M format.
///
/// # Errors
/// In addition to the software kernel's conditions, K must be even (the
/// interleaved format pairs output channels; the compiler falls back to
/// the software kernel otherwise).
pub fn fc_sparse_isa(
    ctx: &mut Ctx<'_>,
    job: &SparseFcJob,
    cluster: &Cluster,
) -> Result<KernelStats> {
    validate_pairs(job)?;
    let name = format!("fc-sparse-isa-{}", job.nm);
    Ok(run_fc(
        name,
        &job.fc.geom,
        ctx,
        cluster,
        isa_body(job, cluster),
    ))
}

/// Runs the `xDecimate` FC kernel over `tokens` on one staged tile
/// through the token sweep (see the [`crate::fc`] module docs). Each
/// token's output and statistics equal a freshly staged single run's.
///
/// # Errors
/// As [`fc_sparse_isa`]; additionally [`Error::ShapeMismatch`] if a
/// token's length is not the tile's `C`.
pub fn fc_sparse_isa_batch(
    ctx: &mut Ctx<'_>,
    job: &SparseFcJob,
    cluster: &Cluster,
    tokens: &[&[i8]],
) -> Result<BatchRun> {
    validate_pairs(job)?;
    let seg = nm_segment_bytes(job.nm, job.nz_per_channel(), OffsetLayout::Interleaved);
    let gather = FcGather::Interleaved { nm: job.nm, seg };
    let name = format!("fc-sparse-isa-{}", job.nm);
    drive_fc_batch(
        &name,
        ctx,
        &job.fc,
        cluster,
        tokens,
        gather,
        isa_body(job, cluster),
    )
}

/// The software kernel's conditions plus an even K: the interleaved
/// format pairs output channels.
fn validate_pairs(job: &SparseFcJob) -> Result<()> {
    job.validate()?;
    if !job.fc.geom.k.is_multiple_of(2) {
        return Err(Error::ShapeMismatch(format!(
            "ISA-extended FC pairs output channels; K={} is odd",
            job.fc.geom.k
        )));
    }
    Ok(())
}

/// The `xDecimate` kernel's per-core body over a validated job, shared
/// by the single-run and token-sweep entry points.
fn isa_body<'a>(
    job: &'a SparseFcJob,
    cluster: &'a Cluster,
) -> impl FnMut(usize, &mut Core, &mut Ctx<'_>) + 'a {
    let nz = job.nz_per_channel();
    let seg = nm_segment_bytes(job.nm, nz, OffsetLayout::Interleaved) as u32;
    let mode = decimate_mode(job.nm);
    let n_pairs = job.fc.geom.k / 2;
    move |core_id, core, ctx| {
        let range = chunk_range(n_pairs, cluster.n_cores(), core_id);
        match ctx.path() {
            Ctx::MemBulk(mem) => core_body(mem, job, seg, range),
            Ctx::Analytic => core.charge_block(&core_block(core.costs(), nz, range.len())),
            Ctx::Mem(mem) => {
                for pair in range {
                    core.outer_loop_iter();
                    core.alu_n(4);
                    core.hwloop_setup();
                    channel_pair(core, mem, job, mode, pair, seg);
                }
            }
        }
    }
}

/// One core's worth of `xDecimate` FC channel pairs on the bulk path,
/// operand slices taken once. Uniform channel pairs: the analytic pass
/// charges one repeated accounting block per core ([`core_block`]).
fn core_body(mem: &mut Scratchpad, job: &SparseFcJob, seg: u32, range: Range<usize>) {
    let geom = job.fc.geom;
    let n_pairs = geom.k / 2;
    let m = job.nm.m();
    let bits = job.nm.offset_bits();
    let nz = job.nz_per_channel();
    let out0 = job.fc.bufs.output + (2 * range.start) as u32;
    let input = mem
        .slice(job.fc.bufs.input, geom.c)
        .expect("scratchpad is zero-copy");
    let values = mem
        .slice(job.fc.bufs.weights, geom.k * nz)
        .expect("scratchpad is zero-copy");
    let offs = mem
        .slice(job.fc.bufs.offsets, n_pairs * seg as usize)
        .expect("scratchpad is zero-copy");
    let outs: Vec<i8> = range
        .flat_map(|pair| {
            let k = 2 * pair;
            let (a0, a1) = gather_dot2_pair(
                &values[k * nz..(k + 1) * nz],
                &values[(k + 1) * nz..(k + 2) * nz],
                input,
                &offs[pair * seg as usize..],
                bits,
                m,
            );
            [job.fc.requant.apply(a0), job.fc.requant.apply(a1)]
        })
        .collect();
    write_out(mem, out0, &outs);
}

/// The accounting block of one core's range of `n_pairs` `xDecimate` FC
/// channel pairs with `nz` non-zeros per channel: uniform pairs, one
/// repeated block.
fn core_block(costs: &CostModel, nz: usize, n_pairs: usize) -> InstrBlock {
    loop_scaffold(costs, 4)
        .then(pair_block(nz / 4, nz % 4))
        .repeat(n_pairs as u64)
}

/// The accounting block of one `xDecimate` FC channel pair (the exact
/// batched equivalent of the reference arm's charge sequence).
fn pair_block(chunks: usize, tail: usize) -> InstrBlock {
    InstrBlock::new()
        .xfu_clear(1)
        .then(
            InstrBlock::new()
                .loads(3)
                .xdecimate(8)
                .sdotp(2)
                .repeat(chunks as u64),
        )
        .then(InstrBlock::new().loads(u64::from(tail > 0)))
        .then(
            InstrBlock::new()
                .loads(2)
                .xdecimate(2)
                .mac(2)
                .repeat(tail as u64),
        )
        .then(InstrBlock::new().alu(EPILOGUE_ALU).stores(1).repeat(2))
}

/// Two output channels `(2*pair, 2*pair+1)` with `xDecimate`: the
/// per-instruction reference the bulk body and [`pair_block`] match.
fn channel_pair(
    core: &mut Core,
    mem: &mut Scratchpad,
    job: &SparseFcJob,
    mode: DecimateMode,
    pair: usize,
    seg_bytes: u32,
) {
    let nz = job.nz_per_channel();
    let (chunks, tail) = (nz / 4, nz % 4);
    let entries_per_word = job.nm.offsets_per_word();
    let k = 2 * pair;

    core.xdecimate_clear();
    let vrow = [
        job.fc.bufs.weights + (k * nz) as u32,
        job.fc.bufs.weights + ((k + 1) * nz) as u32,
    ];
    let seg = job.fc.bufs.offsets + pair as u32 * seg_bytes;
    let mut acc = [0i32; 2];
    for j in 0..chunks {
        let word_off = 4 * ((8 * j) / entries_per_word) as u32;
        let rs2 = core.lw(mem, seg + word_off);
        let va = [
            core.lw(mem, vrow[0] + (4 * j) as u32),
            core.lw(mem, vrow[1] + (4 * j) as u32),
        ];
        let mut vb = [0u32; 2];
        for _ in 0..4 {
            for (q, v) in vb.iter_mut().enumerate() {
                let _ = q;
                *v = core.xdecimate(mode, mem, job.fc.bufs.input, rs2, *v);
            }
        }
        for q in 0..2 {
            acc[q] = core.sdotp(va[q], vb[q], acc[q]);
        }
    }
    if tail > 0 {
        let word_off = 4 * ((8 * chunks) / entries_per_word) as u32;
        let rs2 = core.lw(mem, seg + word_off);
        for t in 0..tail {
            let idx = chunks * 4 + t;
            for (q, a) in acc.iter_mut().enumerate() {
                let wv = core.lb(mem, vrow[q] + idx as u32);
                let lane = u32::from(core.xfu_csr() >> 1) & 0x3;
                let rd = core.xdecimate(mode, mem, job.fc.bufs.input, rs2, 0);
                let byte = ((rd >> (lane * 8)) & 0xFF) as u8 as i8;
                *a = core.mac(i32::from(wv), i32::from(byte), *a);
            }
        }
    }
    for (q, &a) in acc.iter().enumerate() {
        core.alu_n(EPILOGUE_ALU);
        let out = job.fc.requant.apply(a);
        core.sb(mem, job.fc.bufs.output + (k + q) as u32, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fc::sparse_sw::fc_sparse_sw;
    use crate::fc::FcJob;
    use crate::layout::stage_fc_sparse;
    use crate::reference::fc_ref;
    use nm_core::format::NmMatrix;
    use nm_core::quant::Requant;
    use nm_core::sparsity::Nm;
    use nm_core::FcGeom;
    use nm_isa::{CostModel, Memory};
    use nm_platform::Scratchpad;

    use crate::testdata::random_data;

    fn check(geom: FcGeom, nm: Nm) {
        let input = random_data(geom.c, 31);
        let dense = random_data(geom.weight_elems(), 41);
        let w = NmMatrix::prune_from_dense(&dense, geom.k, geom.c, nm, OffsetLayout::Interleaved)
            .unwrap();
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
            fc_sparse_isa(&mut ctx, &job, &cluster).unwrap()
        };
        let got: Vec<i8> = (0..geom.k as u32)
            .map(|i| l1.load_i8(bufs.output + i))
            .collect();
        assert_eq!(got, fc_ref(&geom, &input, &pruned, rq), "{nm} {geom:?}");

        let analytic = fc_sparse_isa(&mut Ctx::Analytic, &job, &cluster).unwrap();
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
    fn handles_tails_and_word_reuse() {
        check(FcGeom::new(8 * 5, 6).unwrap(), Nm::ONE_OF_EIGHT); // nz=5 -> tail
        check(FcGeom::new(4 * 12, 2).unwrap(), Nm::ONE_OF_FOUR); // 3 chunks: odd word reuse
        check(FcGeom::new(16 * 3, 4).unwrap(), Nm::ONE_OF_SIXTEEN); // tail only boundary
    }

    #[test]
    fn rejects_odd_k() {
        let job = SparseFcJob {
            fc: FcJob {
                geom: FcGeom::new(32, 5).unwrap(),
                requant: Requant::IDENTITY,
                bufs: Default::default(),
            },
            nm: Nm::ONE_OF_EIGHT,
        };
        assert!(matches!(
            fc_sparse_isa(
                &mut Ctx::Analytic,
                &job,
                &Cluster::new(1, CostModel::default())
            ),
            Err(Error::ShapeMismatch(_))
        ));
    }

    /// Guard test: 13 inner instructions per chunk (paper Sec. 4.2.3).
    #[test]
    fn inner_chunk_budget_is_13() {
        for nm in Nm::KERNEL_PATTERNS {
            let cluster = Cluster::new(1, CostModel::default());
            let job = |c| SparseFcJob {
                fc: FcJob {
                    geom: FcGeom::new(c, 2).unwrap(),
                    requant: Requant::IDENTITY,
                    bufs: Default::default(),
                },
                nm,
            };
            let i1 = fc_sparse_isa(&mut Ctx::Analytic, &job(4 * nm.m()), &cluster)
                .unwrap()
                .cluster
                .total_instret();
            let i2 = fc_sparse_isa(&mut Ctx::Analytic, &job(8 * nm.m()), &cluster)
                .unwrap()
                .cluster
                .total_instret();
            assert_eq!(i2 - i1, 13, "{nm}");
        }
    }

    #[test]
    fn isa_beats_sw_and_dense_at_1_4() {
        use crate::fc::dense::fc_dense;
        let geom = FcGeom::new(1024, 256).unwrap();
        let cluster = Cluster::new(8, CostModel::default());
        let nm = Nm::ONE_OF_FOUR;
        let sjob = SparseFcJob {
            fc: FcJob {
                geom,
                requant: Requant::IDENTITY,
                bufs: Default::default(),
            },
            nm,
        };
        let djob = FcJob {
            geom,
            requant: Requant::IDENTITY,
            bufs: Default::default(),
        };
        let isa = fc_sparse_isa(&mut Ctx::Analytic, &sjob, &cluster).unwrap();
        let sw = fc_sparse_sw(&mut Ctx::Analytic, &sjob, &cluster).unwrap();
        let dense = fc_dense(&mut Ctx::Analytic, &djob, &cluster).unwrap();
        assert!(isa.cycles() < sw.cycles());
        assert!(
            isa.cycles() < dense.cycles(),
            "ISA 1:4 must beat dense compute"
        );
    }
}
