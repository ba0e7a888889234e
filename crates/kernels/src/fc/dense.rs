//! Dense fully-connected baseline (paper Sec. 4.2.1, Fig. 5 left):
//! unrolled by 2 over the K dimension. Inner iteration: 2 weight word
//! loads + 1 activation word load + 2 SIMD dot products = 5 instructions
//! for 8 MACs (peak 1.6 MACs/instruction/core).

use super::{drive_fc_batch, run_fc, FcJob, EPILOGUE_ALU};
use crate::bulk::{dense_dot, loop_scaffold, write_out, FcGather};
use crate::stats::{BatchRun, Ctx, KernelStats};
use nm_core::Result;
use nm_isa::{ChargePolicy, Charged, Core, CostModel, InstrBlock, Memory, Uncharged};
use nm_platform::{chunk_range, Cluster, Scratchpad};
use std::ops::Range;

/// Runs the dense 1×2 FC kernel (multicore over K).
///
/// # Errors
/// Currently infallible; returns `Result` for signature uniformity with
/// the sparse kernels.
pub fn fc_dense(ctx: &mut Ctx<'_>, job: &FcJob, cluster: &Cluster) -> Result<KernelStats> {
    let geom = job.geom;
    let native = ctx.is_native();
    Ok(run_fc(
        "fc-dense-1x2".into(),
        &geom,
        cluster,
        native,
        |core_id, core| {
            let range = chunk_range(geom.k, cluster.n_cores(), core_id);
            match ctx.path() {
                Ctx::MemBulk(mem) => core_body::<Charged>(mem, core, job, range),
                Ctx::MemNative(mem) => core_body::<Uncharged>(mem, core, job, range),
                Ctx::Analytic => core.charge_block(&core_block(core.costs(), geom.c, range.len())),
                Ctx::Mem(_) => {
                    let mut k = range.start;
                    while k < range.end {
                        let nk = (range.end - k).min(2);
                        core.outer_loop_iter();
                        core.alu_n(2);
                        core.hwloop_setup();
                        let wrow = job.bufs.weights + (k * geom.c) as u32;
                        channels(core, ctx, job, k, wrow, nk);
                        k += nk;
                    }
                }
            }
        },
    ))
}

/// Runs the dense FC kernel over `tokens` on one staged tile: token 0
/// (the input staged at `job.bufs.input`) through [`fc_dense`], the
/// rest through the token sweep (see the [`crate::fc`] module docs). Each
/// token's output and statistics equal a freshly staged single run's.
///
/// # Errors
/// [`nm_core::Error::ShapeMismatch`] if a token's length is not the
/// tile's `C`.
pub fn fc_dense_batch(
    ctx: &mut Ctx<'_>,
    job: &FcJob,
    cluster: &Cluster,
    tokens: &[&[i8]],
) -> Result<BatchRun> {
    drive_fc_batch(ctx, job, tokens, FcGather::Dense, |ctx| {
        fc_dense(ctx, job, cluster)
    })
}

/// One core's worth of dense FC channels: the single shared kernel body
/// for the bulk and native tiers. Compute is identical; `P` decides
/// whether the batched accounting block is charged at all (on
/// [`Uncharged`] the whole block construction folds away).
fn core_body<P: ChargePolicy>(
    mem: &mut Scratchpad,
    core: &mut Core,
    job: &FcJob,
    range: Range<usize>,
) {
    let geom = job.geom;
    let c = geom.c;
    let out0 = job.bufs.output + range.start as u32;
    let n_channels = range.len();
    {
        let input = mem
            .slice(job.bufs.input, c)
            .expect("scratchpad is zero-copy");
        let weights = mem
            .slice(job.bufs.weights, geom.k * c)
            .expect("scratchpad is zero-copy");
        let outs: Vec<i8> = range
            .map(|k| {
                job.requant
                    .apply(dense_dot(&weights[k * c..(k + 1) * c], input))
            })
            .collect();
        write_out(mem, out0, &outs);
    }
    let costs = *core.costs();
    P::charge_block(core, || core_block(&costs, c, n_channels));
}

/// The accounting block of one core's range of `n_channels` dense FC
/// channels over `c` inputs: channel pairs, then an odd leftover channel,
/// each behind its loop scaffold.
fn core_block(costs: &CostModel, c: usize, n_channels: usize) -> InstrBlock {
    let (chunks, tail) = (c / 4, c % 4);
    let scaffold = loop_scaffold(costs, 2);
    scaffold
        .then(channels_block(chunks, tail, 2))
        .repeat((n_channels / 2) as u64)
        .then(
            scaffold
                .then(channels_block(chunks, tail, 1))
                .repeat((n_channels % 2) as u64),
        )
}

/// The accounting block of `nk` dense FC channels (the exact batched
/// equivalent of the reference arm's charge sequence).
fn channels_block(chunks: usize, tail: usize, nk: u64) -> InstrBlock {
    InstrBlock::new()
        .loads(nk + 1)
        .sdotp(nk)
        .repeat(chunks as u64)
        .then(InstrBlock::new().loads(nk + 1).mac(nk).repeat(tail as u64))
        .then(InstrBlock::new().alu(EPILOGUE_ALU).stores(1).repeat(nk))
}

/// `nk` (1 or 2) output channels of the dense kernel. `wrow` addresses
/// channel `k`'s weight row; channel `k+1`'s row must follow contiguously
/// when `nk == 2` (true for dense staging and for adjacent dense rows of
/// the per-channel format).
pub(crate) fn channels(
    core: &mut Core,
    ctx: &mut Ctx<'_>,
    job: &FcJob,
    k: usize,
    wrow: u32,
    nk: usize,
) {
    let c = job.geom.c;
    let (chunks, tail) = (c / 4, c % 4);
    // Outputs from zero-copy slices; one accounting call for the whole
    // channel group (compiled out entirely on the native tier).
    fn group_body<P: ChargePolicy>(
        mem: &mut Scratchpad,
        core: &mut Core,
        job: &FcJob,
        k: usize,
        wrow: u32,
        nk: usize,
    ) {
        let c = job.geom.c;
        let mut outs = [0i8; 2];
        {
            let input = mem
                .slice(job.bufs.input, c)
                .expect("scratchpad is zero-copy");
            for (q, out) in outs.iter_mut().enumerate().take(nk) {
                let w = mem
                    .slice(wrow + (q * c) as u32, c)
                    .expect("scratchpad is zero-copy");
                *out = job.requant.apply(dense_dot(w, input));
            }
        }
        for (q, &out) in outs.iter().enumerate().take(nk) {
            mem.store_i8(job.bufs.output + (k + q) as u32, out);
        }
        P::charge_block(core, || channels_block(c / 4, c % 4, nk as u64));
    }
    match ctx.path() {
        Ctx::MemBulk(mem) => group_body::<Charged>(mem, core, job, k, wrow, nk),
        Ctx::MemNative(mem) => group_body::<Uncharged>(mem, core, job, k, wrow, nk),
        Ctx::Analytic => core.charge_block(&channels_block(chunks, tail, nk as u64)),
        Ctx::Mem(mem) => {
            let mut acc = [0i32; 2];
            for j in 0..chunks {
                let mut w = [0u32; 2];
                for (q, wq) in w.iter_mut().enumerate().take(nk) {
                    *wq = core.lw(mem, wrow + (q * c + 4 * j) as u32);
                }
                let a = core.lw(mem, job.bufs.input + (4 * j) as u32);
                for q in 0..nk {
                    acc[q] = core.sdotp(w[q], a, acc[q]);
                }
            }
            for t in 0..tail {
                let idx = (chunks * 4 + t) as u32;
                let a = core.lb(mem, job.bufs.input + idx);
                for (q, accq) in acc.iter_mut().enumerate().take(nk) {
                    let wv = core.lb(mem, wrow + (q * c) as u32 + idx);
                    *accq = core.mac(i32::from(wv), i32::from(a), *accq);
                }
            }
            for (q, &a) in acc.iter().enumerate().take(nk) {
                core.alu_n(EPILOGUE_ALU);
                let out = job.requant.apply(a);
                core.sb(mem, job.bufs.output + (k + q) as u32, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::stage_fc_dense;
    use crate::reference::fc_ref;
    use nm_core::quant::Requant;
    use nm_core::FcGeom;
    use nm_isa::{CostModel, Memory};
    use nm_platform::Scratchpad;

    use crate::testdata::random_data;

    fn check(geom: FcGeom) {
        let input = random_data(geom.c, 3);
        let weights = random_data(geom.weight_elems(), 17);
        let rq = Requant::for_dot_len(geom.c);
        let cluster = Cluster::new(4, CostModel::default());
        let mut l1 = Scratchpad::new("l1", 512 * 1024);
        let bufs = stage_fc_dense(&mut l1, &geom, &input, &weights).unwrap();
        let job = FcJob {
            geom,
            requant: rq,
            bufs,
        };
        let stats = {
            let mut ctx = Ctx::Mem(&mut l1);
            fc_dense(&mut ctx, &job, &cluster).unwrap()
        };
        let got: Vec<i8> = (0..geom.k as u32)
            .map(|i| l1.load_i8(bufs.output + i))
            .collect();
        assert_eq!(got, fc_ref(&geom, &input, &weights, rq), "{geom:?}");

        let analytic = fc_dense(&mut Ctx::Analytic, &job, &cluster).unwrap();
        assert_eq!(stats.cycles(), analytic.cycles());
        assert_eq!(
            stats.cluster.total_instret(),
            analytic.cluster.total_instret()
        );
        assert_eq!(stats.cluster.total_macs(), analytic.cluster.total_macs());
    }

    #[test]
    fn matches_reference() {
        check(FcGeom::new(64, 16).unwrap());
        check(FcGeom::new(30, 7).unwrap()); // C tail + odd K
        check(FcGeom::new(8, 3).unwrap()); // K < cores
        check(FcGeom::new(5, 1).unwrap());
    }

    #[test]
    fn inner_chunk_budget_is_5() {
        // Two geometries differing by one chunk per channel pair.
        let cluster = Cluster::new(1, CostModel::default());
        let job = |c| FcJob {
            geom: FcGeom::new(c, 2).unwrap(),
            requant: Requant::IDENTITY,
            bufs: Default::default(),
        };
        let i1 = fc_dense(&mut Ctx::Analytic, &job(4), &cluster)
            .unwrap()
            .cluster
            .total_instret();
        let i2 = fc_dense(&mut Ctx::Analytic, &job(8), &cluster)
            .unwrap()
            .cluster
            .total_instret();
        assert_eq!(i2 - i1, 5);
    }
}
