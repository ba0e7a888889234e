//! Dense convolution baselines: the 1×2 kernel and the PULP-NN 4×2
//! kernel (paper Sec. 4.1.1, Fig. 2 / Fig. 4 left).

use super::{drive_conv, drive_conv_batch, BatchRun, ConvGather, ConvJob, EPILOGUE_ALU};
use crate::bulk::{dense_dot, loop_scaffold};
use crate::stats::{Ctx, KernelStats};
use nm_core::Result;
use nm_isa::{Core, CostModel, InstrBlock, Memory};
use nm_platform::{Cluster, Scratchpad};

/// The dense kernels' channel loop over one position pair, shared by the
/// single-run and batch-major entry points: `quads` groups of four
/// output channels (the PULP-NN 4×2 inner loop), then the remaining
/// channels one at a time (the 1×2 loop), per instruction on the
/// reference walk and as blocks on the analytic walk. The bulk tier
/// computes through the lane sweep instead.
fn dense_loop(
    job: &ConvJob,
    quads: usize,
) -> impl FnMut(&mut Core, &mut Ctx<'_>, usize, usize, u32) + '_ {
    let plen = job.geom.patch_len();
    let singles = 4 * quads..job.geom.k;
    move |core, ctx, pos, n_patches, buf| match ctx.path() {
        Ctx::Mem(mem) => {
            for q in 0..quads {
                quad_channels_reference(mem, core, job, pos, n_patches, buf, 4 * q);
            }
            for k in singles.clone() {
                let wrow = job.bufs.weights + (k * plen) as u32;
                channel_1xn_reference(mem, core, job, pos, n_patches, buf, k, wrow);
            }
        }
        _ => {
            let np = n_patches as u64;
            let quad = quad_block(core.costs(), plen, np).repeat(quads as u64);
            let single = channel_1xn_block(core.costs(), plen, np);
            core.charge_block(&quad.then(single.repeat(singles.len() as u64)));
        }
    }
}

/// The 1×2-unrolled dense kernel: one output channel × two patches per
/// inner block. Inner iteration: 1 weight word load + 2 activation word
/// loads + 2 SIMD dot products = 5 instructions for 8 MACs
/// (peak 1.6 MACs/instruction/core).
///
/// # Errors
/// Currently infallible; returns `Result` for signature uniformity with
/// the sparse kernels.
pub fn conv_dense_1x2(ctx: &mut Ctx<'_>, job: &ConvJob, cluster: &Cluster) -> Result<KernelStats> {
    Ok(drive_conv(
        "conv-dense-1x2".into(),
        ctx,
        job,
        cluster,
        Some(ConvGather::Dense),
        dense_loop(job, 0),
    ))
}

/// [`conv_dense_1x2`] swept batch-major over `inputs` (one tile input
/// per request): the staged weights are held in L1 while each request's
/// input rewrites the input buffer, yielding per-request statistics and
/// outputs bit-identical to staging and running each request alone (see
/// `drive_conv_batch`).
///
/// # Errors
/// [`nm_core::Error::ShapeMismatch`] if a request's input length
/// disagrees with the tile geometry.
pub fn conv_dense_1x2_batch(
    ctx: &mut Ctx<'_>,
    job: &ConvJob,
    cluster: &Cluster,
    inputs: &[&[i8]],
) -> Result<BatchRun> {
    drive_conv_batch(
        "conv-dense-1x2",
        ctx,
        job,
        cluster,
        inputs,
        Some(ConvGather::Dense),
        dense_loop(job, 0),
    )
}

/// The PULP-NN 4×2 kernel: four output channels × two patches. Inner
/// iteration: 4 weight loads + 2 activation loads + 8 SIMD dot products =
/// 14 instructions for 32 MACs (peak 2.28 MACs/instruction/core).
/// Leftover channels (K mod 4) and a leftover single patch fall back to
/// the 1×2 shape, as PULP-NN does.
///
/// # Errors
/// Currently infallible; returns `Result` for signature uniformity.
pub fn conv_dense_4x2(ctx: &mut Ctx<'_>, job: &ConvJob, cluster: &Cluster) -> Result<KernelStats> {
    Ok(drive_conv(
        "conv-dense-4x2".into(),
        ctx,
        job,
        cluster,
        Some(ConvGather::Dense),
        dense_loop(job, job.geom.k / 4),
    ))
}

/// [`conv_dense_4x2`] swept batch-major over `inputs` — the 4×2
/// analogue of [`conv_dense_1x2_batch`].
///
/// # Errors
/// [`nm_core::Error::ShapeMismatch`] if a request's input length
/// disagrees with the tile geometry.
pub fn conv_dense_4x2_batch(
    ctx: &mut Ctx<'_>,
    job: &ConvJob,
    cluster: &Cluster,
    inputs: &[&[i8]],
) -> Result<BatchRun> {
    drive_conv_batch(
        "conv-dense-4x2",
        ctx,
        job,
        cluster,
        inputs,
        Some(ConvGather::Dense),
        dense_loop(job, job.geom.k / 4),
    )
}

/// One output channel over `n_patches` im2col buffers (the 1×2 / 1×1
/// inner loop) behind its loop scaffold, in every context. `wrow`
/// addresses the channel's dense weight row in L1 (unused in analytic
/// mode) — passed explicitly so the per-channel mixed kernel can address
/// heterogeneous rows.
#[allow(clippy::too_many_arguments)]
pub(crate) fn channel_1xn(
    core: &mut Core,
    ctx: &mut Ctx<'_>,
    job: &ConvJob,
    pos: usize,
    n_patches: usize,
    buf: u32,
    k: usize,
    wrow: u32,
) {
    match ctx.path() {
        Ctx::MemBulk(mem) => channel_1xn_body(mem, job, pos, n_patches, buf, k, wrow),
        Ctx::Analytic => {
            let block = channel_1xn_block(core.costs(), job.geom.patch_len(), n_patches as u64);
            core.charge_block(&block);
        }
        Ctx::Mem(mem) => channel_1xn_reference(mem, core, job, pos, n_patches, buf, k, wrow),
    }
}

/// The accounting block of one dense output channel over a `plen`-byte
/// patch and `np` patches, loop scaffold included (the exact batched
/// equivalent of [`channel_1xn_reference`]'s charge sequence).
fn channel_1xn_block(costs: &CostModel, plen: usize, np: u64) -> InstrBlock {
    let per_chunk = InstrBlock::new().loads(1 + np).sdotp(np);
    let per_tail = InstrBlock::new().loads(1 + np).mac(np);
    let epilogue = InstrBlock::new().alu(EPILOGUE_ALU).stores(1).repeat(np);
    loop_scaffold(costs, 2)
        .then(per_chunk.repeat((plen / 4) as u64))
        .then(per_tail.repeat((plen % 4) as u64))
        .then(epilogue)
}

/// The 1×N bulk kernel body: outputs from zero-copy slices (the analytic
/// walk charges [`channel_1xn_block`]).
fn channel_1xn_body(
    mem: &mut Scratchpad,
    job: &ConvJob,
    pos: usize,
    n_patches: usize,
    buf: u32,
    k: usize,
    wrow: u32,
) {
    let geom = &job.geom;
    let plen = geom.patch_len();
    let mut outs = [0i8; 2];
    {
        let w = mem.slice(wrow, plen).expect("scratchpad is zero-copy");
        for (p, out) in outs.iter_mut().enumerate().take(n_patches) {
            let a = mem
                .slice(buf + (p * plen) as u32, plen)
                .expect("scratchpad is zero-copy");
            *out = job.requant.apply(dense_dot(w, a));
        }
    }
    for (p, &out) in outs.iter().enumerate().take(n_patches) {
        mem.store_i8(job.bufs.output + ((pos + p) * geom.k + k) as u32, out);
    }
}

/// The per-instruction reference of one dense output channel, loop
/// scaffold included.
#[allow(clippy::too_many_arguments)]
fn channel_1xn_reference(
    mem: &mut Scratchpad,
    core: &mut Core,
    job: &ConvJob,
    pos: usize,
    n_patches: usize,
    buf: u32,
    k: usize,
    wrow: u32,
) {
    let geom = &job.geom;
    let plen = geom.patch_len();
    let (chunks, tail) = (plen / 4, plen % 4);
    core.outer_loop_iter();
    core.alu_n(2);
    core.hwloop_setup();
    let mut acc = [0i32; 2];
    for j in 0..chunks {
        let w = core.lw(mem, wrow + (4 * j) as u32);
        for p in 0..n_patches {
            let a = core.lw(mem, buf + (p * plen + 4 * j) as u32);
            acc[p] = core.sdotp(w, a, acc[p]);
        }
    }
    for t in 0..tail {
        let idx = (chunks * 4 + t) as u32;
        let w = core.lb(mem, wrow + idx);
        for p in 0..n_patches {
            let a = core.lb(mem, buf + (p * plen) as u32 + idx);
            acc[p] = core.mac(i32::from(w), i32::from(a), acc[p]);
        }
    }
    for p in 0..n_patches {
        core.alu_n(EPILOGUE_ALU);
        let out = job.requant.apply(acc[p]);
        core.sb(mem, job.bufs.output + ((pos + p) * geom.k + k) as u32, out);
    }
}

/// The accounting block of four dense output channels over a
/// `plen`-byte patch and `np` patches, loop scaffold included (the exact
/// batched equivalent of [`quad_channels_reference`]'s charge sequence).
fn quad_block(costs: &CostModel, plen: usize, np: u64) -> InstrBlock {
    let per_chunk = InstrBlock::new().loads(4 + np).sdotp(4 * np);
    let per_tail = InstrBlock::new().loads(4 + np).mac(4 * np);
    let epilogue = InstrBlock::new().alu(EPILOGUE_ALU).stores(1).repeat(4 * np);
    loop_scaffold(costs, 5)
        .then(per_chunk.repeat((plen / 4) as u64))
        .then(per_tail.repeat((plen % 4) as u64))
        .then(epilogue)
}

/// The per-instruction reference of four dense output channels (the
/// PULP-NN 4×2 inner loop), loop scaffold included.
fn quad_channels_reference(
    mem: &mut Scratchpad,
    core: &mut Core,
    job: &ConvJob,
    pos: usize,
    n_patches: usize,
    buf: u32,
    k0: usize,
) {
    let geom = &job.geom;
    let plen = geom.patch_len();
    let (chunks, tail) = (plen / 4, plen % 4);
    core.outer_loop_iter();
    core.alu_n(5);
    core.hwloop_setup();
    let mut acc = [[0i32; 2]; 4];
    for j in 0..chunks {
        let mut w = [0u32; 4];
        for (f, wf) in w.iter_mut().enumerate() {
            *wf = core.lw(mem, job.bufs.weights + ((k0 + f) * plen + 4 * j) as u32);
        }
        for p in 0..n_patches {
            let a = core.lw(mem, buf + (p * plen + 4 * j) as u32);
            for f in 0..4 {
                acc[f][p] = core.sdotp(w[f], a, acc[f][p]);
            }
        }
    }
    for t in 0..tail {
        let idx = (chunks * 4 + t) as u32;
        let mut w = [0i8; 4];
        for (f, wf) in w.iter_mut().enumerate() {
            *wf = core.lb(mem, job.bufs.weights + ((k0 + f) * plen) as u32 + idx);
        }
        for p in 0..n_patches {
            let a = core.lb(mem, buf + (p * plen) as u32 + idx);
            for f in 0..4 {
                acc[f][p] = core.mac(i32::from(w[f]), i32::from(a), acc[f][p]);
            }
        }
    }
    for p in 0..n_patches {
        for f in 0..4 {
            core.alu_n(EPILOGUE_ALU);
            let out = job.requant.apply(acc[f][p]);
            core.sb(
                mem,
                job.bufs.output + ((pos + p) * geom.k + k0 + f) as u32,
                out,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::stage_conv_dense;
    use crate::reference::conv_ref;
    use nm_core::quant::Requant;
    use nm_core::ConvGeom;
    use nm_isa::{CostModel, Memory};
    use nm_platform::Scratchpad;

    use crate::testdata::random_data;

    fn check_geom(geom: ConvGeom, quad: bool) {
        let input = random_data(geom.input_elems(), 7);
        let weights = random_data(geom.weight_elems(), 13);
        let rq = Requant::for_dot_len(geom.patch_len());
        let cluster = Cluster::new(4, CostModel::default());
        let mut l1 = Scratchpad::new("l1", 512 * 1024);
        let bufs = stage_conv_dense(&mut l1, &geom, &input, &weights, cluster.n_cores()).unwrap();
        let job = ConvJob {
            geom,
            requant: rq,
            bufs,
        };

        let run = if quad { conv_dense_4x2 } else { conv_dense_1x2 };
        let stats = {
            let mut ctx = Ctx::Mem(&mut l1);
            run(&mut ctx, &job, &cluster).unwrap()
        };
        let got: Vec<i8> = (0..geom.output_elems() as u32)
            .map(|i| l1.load_i8(bufs.output + i))
            .collect();
        assert_eq!(
            got,
            conv_ref(&geom, &input, &weights, rq),
            "{geom:?} outputs"
        );

        let analytic = run(&mut Ctx::Analytic, &job, &cluster).unwrap();
        assert_eq!(stats.cycles(), analytic.cycles(), "{geom:?} cycles");
        assert_eq!(
            stats.cluster.total_instret(),
            analytic.cluster.total_instret()
        );
        assert_eq!(stats.cluster.total_macs(), analytic.cluster.total_macs());
    }

    #[test]
    fn dense_1x2_matches_reference_and_analytic() {
        for geom in [
            ConvGeom::square(8, 4, 6, 3, 1, 1).unwrap(),
            ConvGeom::square(3, 5, 5, 3, 1, 1).unwrap(), // C tail, odd positions
            ConvGeom::square(4, 2, 7, 3, 2, 1).unwrap(), // strided
            ConvGeom::square(6, 3, 4, 1, 1, 0).unwrap(), // pointwise
        ] {
            check_geom(geom, false);
        }
    }

    #[test]
    fn dense_4x2_matches_reference_and_analytic() {
        for geom in [
            ConvGeom::square(8, 8, 6, 3, 1, 1).unwrap(),
            ConvGeom::square(4, 6, 5, 3, 1, 1).unwrap(), // K % 4 != 0
            ConvGeom::square(3, 9, 5, 3, 1, 1).unwrap(), // both tails
        ] {
            check_geom(geom, true);
        }
    }

    #[test]
    fn pulp_nn_faster_than_1x2() {
        let geom = ConvGeom::square(32, 16, 8, 3, 1, 1).unwrap();
        let cluster = Cluster::new(8, CostModel::default());
        let job = ConvJob {
            geom,
            requant: Requant::IDENTITY,
            bufs: Default::default(),
        };
        let a = conv_dense_1x2(&mut Ctx::Analytic, &job, &cluster).unwrap();
        let b = conv_dense_4x2(&mut Ctx::Analytic, &job, &cluster).unwrap();
        let speedup = b.speedup_over(&a);
        assert!(speedup > 1.2 && speedup < 1.45, "4x2 speedup {speedup}");
    }

    #[test]
    fn inner_loop_instruction_budget_matches_paper() {
        // Isolate one inner chunk: 5 instructions (1x2), 14 (4x2).
        let geom = ConvGeom::square(4, 1, 1, 1, 1, 0).unwrap(); // patch_len 4, 1 position
        let cluster = Cluster::new(1, CostModel::default());
        let job = ConvJob {
            geom,
            requant: Requant::IDENTITY,
            bufs: Default::default(),
        };
        let s = conv_dense_1x2(&mut Ctx::Analytic, &job, &cluster).unwrap();
        // Per channel: 1 chunk = 1 weight load + 1 act load + 1 sdotp
        // (single patch) -> verify via class counts.
        let c = &s.cluster.per_core[0];
        assert!(c.instret > 0);
        let loads = 2; // 1 weight + 1 activation
        let _ = loads;
        // The full budget test lives in the guard tests of sparse kernels;
        // here we check MACs accounting.
        assert_eq!(s.cluster.total_macs(), 4);
    }

    #[test]
    fn multicore_scales() {
        let geom = ConvGeom::square(16, 8, 8, 3, 1, 1).unwrap();
        let job = ConvJob {
            geom,
            requant: Requant::IDENTITY,
            bufs: Default::default(),
        };
        let c1 = Cluster::new(1, CostModel::default());
        let c8 = Cluster::new(8, CostModel::default());
        let s1 = conv_dense_1x2(&mut Ctx::Analytic, &job, &c1).unwrap();
        let s8 = conv_dense_1x2(&mut Ctx::Analytic, &job, &c8).unwrap();
        let speedup = s8.speedup_over(&s1);
        assert!(speedup > 6.0 && speedup <= 8.0, "8-core speedup {speedup}");
    }
}
