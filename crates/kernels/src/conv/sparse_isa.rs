//! ISA-extended N:M sparse convolution using `xDecimate`
//! (paper Sec. 4.1.3, Fig. 4 right).
//!
//! `xDecimate` fuses offset unpacking, the indirect byte load and the
//! byte insertion into the destination register, with an
//! auto-incrementing `csr` tracking the current block and lane. The inner
//! iteration drops from 22–23 to **12 instructions** regardless of
//! sparsity: 1 offsets word load + 8 `xDecimate` + 1 weight word load +
//! 2 SIMD dot products (peak 0.66 MACs/instr/core).
//!
//! Weights must be staged in the [`OffsetLayout::Duplicated`] layout:
//! each offset is stored twice so that consecutive `xDecimate` calls —
//! which advance the block pointer only every *two* executions — serve
//! the two im2col buffers of the 1×2 unrolling.

use super::sparse_sw::SparseConvJob;
use super::{drive, drive_conv_batch, BatchInner, BatchRun, ConvBatch, DecimProgram, EPILOGUE_ALU};
use crate::bulk::{
    conv_pair_outputs, decim_table, loop_scaffold, nm_gather_dot, offsets_len, table_below,
};
use crate::layout::nm_segment_bytes;
use crate::stats::{Ctx, KernelStats};
use nm_core::format::OffsetLayout;
use nm_core::sparsity::Nm;
use nm_core::Result;
use nm_isa::{ChargePolicy, Charged, Core, CostModel, DecimateMode, InstrBlock, Memory, Uncharged};
use nm_platform::{Cluster, Scratchpad};
use std::borrow::Cow;

/// The `xDecimate` flavour for a pattern.
///
/// # Panics
/// Panics if the pattern is not 1:4, 1:8 or 1:16 (callers validate first).
pub(crate) fn decimate_mode(nm: Nm) -> DecimateMode {
    match (nm.n(), nm.m()) {
        (1, 4) => DecimateMode::OneOfFour,
        (1, 8) => DecimateMode::OneOfEight,
        (1, 16) => DecimateMode::OneOfSixteen,
        _ => panic!("unsupported pattern {nm} reached the ISA kernel"),
    }
}

/// Runs the ISA-extended sparse convolution. Weights must be staged in
/// the [`OffsetLayout::Duplicated`] N:M format. A leftover single output
/// position (odd spatial count in a core's chunk) falls back to the
/// software kernel, which has a single-patch shape.
///
/// # Errors
/// Same conditions as [`super::sparse_sw::conv_sparse_sw`].
pub fn conv_sparse_isa(
    ctx: &mut Ctx<'_>,
    job: &SparseConvJob,
    cluster: &Cluster,
) -> Result<KernelStats> {
    conv_sparse_isa_prepared(ctx, job, cluster, None)
}

/// [`conv_sparse_isa`] with an optional pre-decoded decimation table
/// ([`DecimProgram`], [`OffsetLayout::Duplicated`]). Compile-once
/// executors build the program from the packed weights a single time and
/// pass it here on every run, skipping the per-invocation offset decode
/// of the bulk path; outputs and charged cycles are identical either
/// way.
///
/// The program must come from the same packed matrix that was staged
/// (the structural check rejects wrong shapes/patterns/layouts; content
/// identity is the caller's contract).
///
/// # Errors
/// As [`conv_sparse_isa`]; additionally
/// [`nm_core::Error::ShapeMismatch`] if `program` does not structurally
/// match the job.
pub fn conv_sparse_isa_prepared(
    ctx: &mut Ctx<'_>,
    job: &SparseConvJob,
    cluster: &Cluster,
    program: Option<&DecimProgram>,
) -> Result<KernelStats> {
    job.validate()?;
    let seg_dup = nm_segment_bytes(job.nm, job.nz_per_channel(), OffsetLayout::Duplicated) as u32;
    if let Some(p) = program {
        // Validated regardless of execution path, so a stale program is
        // rejected even on runs that would not consume it.
        p.check(job, OffsetLayout::Duplicated)?;
    }
    let (table, in_range) = duplicated_table(ctx, job, program, seg_dup);
    Ok(drive(
        format!("conv-sparse-isa-{}", job.nm),
        ctx,
        &job.conv,
        cluster,
        isa_channel_loop(job, table.as_deref(), in_range, seg_dup),
    ))
}

/// [`conv_sparse_isa_prepared`] swept batch-major over `batch.inputs` —
/// the `xDecimate` analogue of
/// [`super::sparse_sw::conv_sparse_sw_prepared_batch`]: table decoded
/// (or validated) once for the whole batch, weights held staged, one
/// input rewrite per request.
///
/// # Errors
/// As [`conv_sparse_isa_prepared`]; additionally
/// [`nm_core::Error::ShapeMismatch`] if a request's input length
/// disagrees with the tile geometry.
pub fn conv_sparse_isa_prepared_batch(
    ctx: &mut Ctx<'_>,
    job: &SparseConvJob,
    cluster: &Cluster,
    program: Option<&DecimProgram>,
    batch: &ConvBatch<'_>,
) -> Result<BatchRun> {
    job.validate()?;
    let seg_dup = nm_segment_bytes(job.nm, job.nz_per_channel(), OffsetLayout::Duplicated) as u32;
    if let Some(p) = program {
        p.check(job, OffsetLayout::Duplicated)?;
    }
    let (table, in_range) = duplicated_table(ctx, job, program, seg_dup);
    let name = format!("conv-sparse-isa-{}", job.nm);
    let inner = table.as_deref().map(|table| BatchInner::Sparse {
        nz: job.nz_per_channel(),
        table,
        in_range,
    });
    drive_conv_batch(
        &name,
        ctx,
        &job.conv,
        cluster,
        batch,
        inner,
        isa_channel_loop(job, table.as_deref(), in_range, seg_dup),
    )
}

/// The bulk path's decimation table for the duplicated offset stream
/// (entry `2b` carries block `b`): borrowed from a prepared program when
/// one is passed, else decoded from the staged offsets — reused by every
/// output position pair (and, batch-major, by every request). `None` off
/// the bulk/native paths.
fn duplicated_table<'p>(
    ctx: &mut Ctx<'_>,
    job: &SparseConvJob,
    program: Option<&'p DecimProgram>,
    seg_dup: u32,
) -> (Option<Cow<'p, [u32]>>, bool) {
    let geom = job.conv.geom;
    let nz = job.nz_per_channel();
    match ctx.path() {
        Ctx::MemBulk(mem) | Ctx::MemNative(mem) => match program {
            Some(p) => (Some(Cow::Borrowed(p.table())), p.in_range()),
            None => {
                let offs = mem
                    .slice(job.conv.bufs.offsets, geom.k * seg_dup as usize)
                    .expect("scratchpad is zero-copy");
                let built = decim_table(
                    offs,
                    geom.k,
                    seg_dup as usize,
                    nz,
                    job.nm.offset_bits(),
                    job.nm.m(),
                    0,
                    2,
                );
                let in_range = table_below(&built, geom.patch_len());
                (Some(Cow::Owned(built)), in_range)
            }
        },
        _ => (None, false),
    }
}

/// The ISA kernel's channel loop over one position pair, shared by the
/// single-run and batch-major entry points.
fn isa_channel_loop<'a>(
    job: &'a SparseConvJob,
    table: Option<&'a [u32]>,
    in_range: bool,
    seg_dup: u32,
) -> impl FnMut(&mut Core, &mut Ctx<'_>, usize, usize, u32, bool) + 'a {
    let geom = job.conv.geom;
    let nz = job.nz_per_channel();
    let mode = decimate_mode(job.nm);
    let mut outs = Vec::new(); // reused per pair by the bulk/native arm
    move |core, ctx, pos, n_patches, buf, charge| {
        // The shared bulk/native pair body (charge policy compiled out on
        // the native instantiation).
        #[allow(clippy::too_many_arguments)]
        fn pair_body<P: ChargePolicy>(
            mem: &mut Scratchpad,
            core: &mut Core,
            job: &SparseConvJob,
            table: Option<&[u32]>,
            in_range: bool,
            pos: usize,
            n_patches: usize,
            buf: u32,
            outs: &mut Vec<i8>,
            charge: bool,
        ) {
            let nz = job.nz_per_channel();
            let table = table.expect("table built for the bulk/native path");
            conv_pair_outputs(
                mem, &job.conv, nz, table, in_range, pos, n_patches, buf, outs,
            );
            let costs = *core.costs();
            P::charge_block_if(core, charge, || pair_block(&costs, job, n_patches as u64));
        }
        match ctx.path() {
            Ctx::MemBulk(mem) => pair_body::<Charged>(
                mem, core, job, table, in_range, pos, n_patches, buf, &mut outs, charge,
            ),
            Ctx::MemNative(mem) => pair_body::<Uncharged>(
                mem, core, job, table, in_range, pos, n_patches, buf, &mut outs, false,
            ),
            Ctx::Analytic => core.charge_block(&pair_block(core.costs(), job, n_patches as u64)),
            Ctx::Mem(_) => {
                for k in 0..geom.k {
                    core.outer_loop_iter();
                    core.alu_n(3);
                    core.hwloop_setup();
                    let wrow = job.conv.bufs.weights + (k * nz) as u32;
                    let krow = job.conv.bufs.offsets + k as u32 * seg_dup;
                    channel_sparse_isa(core, ctx, job, mode, pos, n_patches, buf, k, wrow, krow);
                }
            }
        }
    }
}

/// The accounting block of the ISA kernel's channel loop over one
/// position pair of `np` patches: every channel's loop scaffold and
/// inner loop (uniform channels, one repeated block).
fn pair_block(costs: &CostModel, job: &SparseConvJob, np: u64) -> InstrBlock {
    let nz = job.nz_per_channel();
    loop_scaffold(costs, 3)
        .then(channel_block(nz / 4, nz % 4, np))
        .repeat(job.conv.geom.k as u64)
}

/// The accounting block of one `xDecimate` conv channel over `np`
/// patches (the exact batched equivalent of the reference arm's charge
/// sequence).
fn channel_block(chunks: usize, tail: usize, np: u64) -> InstrBlock {
    InstrBlock::new()
        .xfu_clear(1)
        .then(
            InstrBlock::new()
                .loads(2)
                .xdecimate(8)
                .sdotp(np)
                .repeat(chunks as u64),
        )
        .then(InstrBlock::new().loads(u64::from(tail > 0)))
        .then(
            InstrBlock::new()
                .loads(1)
                .xdecimate(2)
                .mac(np)
                .repeat(tail as u64),
        )
        .then(InstrBlock::new().alu(EPILOGUE_ALU).stores(1).repeat(np))
}

/// One output channel × `n_patches` patches with `xDecimate`.
///
/// The instruction's block/lane pointer advances every *two* executions,
/// so the kernel always issues `xDecimate` in pairs. With a single
/// leftover patch both executions of a pair target the first buffer
/// (a redundant but architecturally required load), keeping the `csr`
/// phase aligned with the duplicated offset stream.
#[allow(clippy::too_many_arguments)]
pub(crate) fn channel_sparse_isa(
    core: &mut Core,
    ctx: &mut Ctx<'_>,
    job: &SparseConvJob,
    mode: DecimateMode,
    pos: usize,
    n_patches: usize,
    buf: u32,
    k: usize,
    wrow: u32,
    seg: u32,
) {
    let geom = &job.conv.geom;
    let plen = geom.patch_len();
    let nz = job.nz_per_channel();
    let (chunks, tail) = (nz / 4, nz % 4);
    let entries_per_word = job.nm.offsets_per_word(); // 8 (4-bit) or 16 (2-bit)
    let np = n_patches as u64;

    // The shared bulk/native channel body (charge policy as in the pair
    // body above).
    #[allow(clippy::too_many_arguments)]
    fn channel_body<P: ChargePolicy>(
        mem: &mut Scratchpad,
        core: &mut Core,
        job: &SparseConvJob,
        pos: usize,
        n_patches: usize,
        buf: u32,
        k: usize,
        wrow: u32,
        seg: u32,
    ) {
        let geom = &job.conv.geom;
        let plen = geom.patch_len();
        let nz = job.nz_per_channel();
        let m = job.nm.m();
        let bits = job.nm.offset_bits();
        let mut outs = [0i8; 2];
        {
            let values = mem.slice(wrow, nz).expect("scratchpad is zero-copy");
            // Duplicated stream: entries 2b and 2b + 1 both carry
            // block b's offset — the csr walk of the reference's
            // paired xDecimate executions reads 2b for buffer 0 and
            // 2b + 1 for buffer 1, so entry 2b serves every patch.
            let offs = mem
                .slice(seg, offsets_len(2 * nz, bits))
                .expect("scratchpad is zero-copy");
            for (p, out) in outs.iter_mut().enumerate().take(n_patches) {
                let a = mem
                    .slice(buf + (p * plen) as u32, plen)
                    .expect("scratchpad is zero-copy");
                *out = job
                    .conv
                    .requant
                    .apply(nm_gather_dot(values, a, offs, bits, m, 0, 2));
            }
        }
        for (p, &out) in outs.iter().enumerate().take(n_patches) {
            mem.store_i8(job.conv.bufs.output + ((pos + p) * geom.k + k) as u32, out);
        }
        P::charge_block(core, || channel_block(nz / 4, nz % 4, n_patches as u64));
    }

    match ctx.path() {
        Ctx::MemBulk(mem) => {
            channel_body::<Charged>(mem, core, job, pos, n_patches, buf, k, wrow, seg)
        }
        Ctx::MemNative(mem) => {
            channel_body::<Uncharged>(mem, core, job, pos, n_patches, buf, k, wrow, seg)
        }
        Ctx::Analytic => core.charge_block(&channel_block(chunks, tail, np)),
        Ctx::Mem(mem) => {
            core.xdecimate_clear();
            let vrow = wrow;
            let mut acc = [0i32; 2];
            for j in 0..chunks {
                // Each chunk consumes 8 duplicated entries; for 1:4 one word
                // holds 16 entries (two chunks) and is reloaded (the paper
                // keeps the inner loop at 12 instructions for every format).
                let word_off = 4 * ((8 * j) / entries_per_word) as u32;
                let rs2 = core.lw(mem, seg + word_off);
                let mut vb = [0u32; 2];
                for _ in 0..4 {
                    for q in 0..2 {
                        let p = q.min(n_patches - 1);
                        vb[p] = core.xdecimate(mode, mem, buf + (p * plen) as u32, rs2, vb[p]);
                    }
                }
                let w = core.lw(mem, vrow + (4 * j) as u32);
                for p in 0..n_patches {
                    acc[p] = core.sdotp(w, vb[p], acc[p]);
                }
            }
            if tail > 0 {
                let word_off = 4 * ((8 * chunks) / entries_per_word) as u32;
                let rs2 = core.lw(mem, seg + word_off);
                for t in 0..tail {
                    let idx = chunks * 4 + t;
                    let wv = core.lb(mem, vrow + idx as u32);
                    for q in 0..2 {
                        let p = q.min(n_patches - 1);
                        let lane = u32::from(core.xfu_csr() >> 1) & 0x3;
                        let rd = core.xdecimate(mode, mem, buf + (p * plen) as u32, rs2, 0);
                        if q < n_patches {
                            let byte = ((rd >> (lane * 8)) & 0xFF) as u8 as i8;
                            acc[p] = core.mac(i32::from(wv), i32::from(byte), acc[p]);
                        }
                    }
                }
            }
            for (p, &a) in acc.iter().enumerate().take(n_patches) {
                core.alu_n(EPILOGUE_ALU);
                let out = job.conv.requant.apply(a);
                core.sb(
                    mem,
                    job.conv.bufs.output + ((pos + p) * geom.k + k) as u32,
                    out,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::ConvJob;
    use crate::layout::stage_conv_sparse;
    use crate::reference::conv_ref;
    use nm_core::format::NmMatrix;
    use nm_core::quant::Requant;
    use nm_core::ConvGeom;
    use nm_isa::{CostModel, Memory};
    use nm_platform::Scratchpad;

    use crate::testdata::random_data;

    fn check(geom: ConvGeom, nm: Nm) {
        let input = random_data(geom.input_elems(), 21);
        let dense = random_data(geom.weight_elems(), 5);
        let w = NmMatrix::prune_from_dense(
            &dense,
            geom.k,
            geom.patch_len(),
            nm,
            OffsetLayout::Duplicated,
        )
        .unwrap();
        let pruned = w.to_dense();
        let rq = Requant::for_dot_len(geom.patch_len() / nm.m());
        let cluster = Cluster::new(4, CostModel::default());
        let mut l1 = Scratchpad::new("l1", 512 * 1024);
        let bufs = stage_conv_sparse(&mut l1, &geom, &input, &w, cluster.n_cores()).unwrap();
        let job = SparseConvJob {
            conv: ConvJob {
                geom,
                requant: rq,
                bufs,
            },
            nm,
        };

        let stats = {
            let mut ctx = Ctx::Mem(&mut l1);
            conv_sparse_isa(&mut ctx, &job, &cluster).unwrap()
        };
        let got: Vec<i8> = (0..geom.output_elems() as u32)
            .map(|i| l1.load_i8(bufs.output + i))
            .collect();
        assert_eq!(got, conv_ref(&geom, &input, &pruned, rq), "{nm} {geom:?}");

        let analytic = conv_sparse_isa(&mut Ctx::Analytic, &job, &cluster).unwrap();
        assert_eq!(stats.cycles(), analytic.cycles(), "{nm} {geom:?} cycles");
        assert_eq!(
            stats.cluster.total_instret(),
            analytic.cluster.total_instret()
        );
    }

    #[test]
    fn matches_reference_all_patterns() {
        for nm in Nm::KERNEL_PATTERNS {
            check(ConvGeom::square(nm.m() * 2, 4, 6, 3, 1, 1).unwrap(), nm);
        }
    }

    #[test]
    fn handles_tails_odd_positions_and_strides() {
        // nz = 9 per channel: 2 chunks + tail 1; odd output positions (5x5=25).
        check(
            ConvGeom::square(8, 3, 5, 3, 1, 1).unwrap(),
            Nm::ONE_OF_EIGHT,
        );
        check(
            ConvGeom::square(16, 2, 7, 3, 2, 1).unwrap(),
            Nm::ONE_OF_FOUR,
        );
        check(
            ConvGeom::square(16, 5, 3, 1, 1, 0).unwrap(),
            Nm::ONE_OF_SIXTEEN,
        );
        // chunks odd for the 1:4 word-reuse path: nz = 12 -> 3 chunks.
        check(
            ConvGeom::square(48, 2, 4, 1, 1, 0).unwrap(),
            Nm::ONE_OF_FOUR,
        );
    }

    /// Guard test: 12 inner instructions per chunk, regardless of format
    /// (paper Sec. 4.1.3).
    #[test]
    fn inner_chunk_budget_is_12_for_all_formats() {
        for nm in Nm::KERNEL_PATTERNS {
            let g1 = ConvGeom::square(4 * nm.m(), 1, 2, 1, 1, 0).unwrap();
            let g2 = ConvGeom::square(8 * nm.m(), 1, 2, 1, 1, 0).unwrap();
            let cluster = Cluster::new(1, CostModel::default());
            let job = |g| SparseConvJob {
                conv: ConvJob {
                    geom: g,
                    requant: Requant::IDENTITY,
                    bufs: Default::default(),
                },
                nm,
            };
            let i1 = conv_sparse_isa(&mut Ctx::Analytic, &job(g1), &cluster)
                .unwrap()
                .cluster
                .total_instret();
            let i2 = conv_sparse_isa(&mut Ctx::Analytic, &job(g2), &cluster)
                .unwrap()
                .cluster
                .total_instret();
            let pairs = (g1.oy() * g1.ox()) as u64 / 2;
            let im2col_extra = 2 * (nm.m() as u64) * 2;
            assert_eq!((i2 - i1) / pairs - im2col_extra, 12, "{nm}");
        }
    }

    #[test]
    fn isa_is_faster_than_sw() {
        use crate::conv::sparse_sw::conv_sparse_sw;
        for nm in Nm::KERNEL_PATTERNS {
            let geom = ConvGeom::square(nm.m() * 4, 8, 8, 3, 1, 1).unwrap();
            let cluster = Cluster::new(8, CostModel::default());
            let job = SparseConvJob {
                conv: ConvJob {
                    geom,
                    requant: Requant::IDENTITY,
                    bufs: Default::default(),
                },
                nm,
            };
            let sw = conv_sparse_sw(&mut Ctx::Analytic, &job, &cluster).unwrap();
            let isa = conv_sparse_isa(&mut Ctx::Analytic, &job, &cluster).unwrap();
            let speedup = isa.speedup_over(&sw);
            assert!(
                speedup > 1.2 && speedup < 2.0,
                "{nm}: ISA speedup {speedup}"
            );
        }
    }
}
