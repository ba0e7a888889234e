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
use super::{drive_conv, drive_conv_batch, sparse_table, BatchRun, DecimProgram, EPILOGUE_ALU};
use crate::bulk::loop_scaffold;
use crate::stats::{Ctx, KernelStats};
use nm_core::format::OffsetLayout;
use nm_core::sparsity::Nm;
use nm_core::Result;
use nm_isa::{Core, CostModel, DecimateMode, InstrBlock};
use nm_platform::Cluster;

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
    let t = sparse_table(ctx, job, OffsetLayout::Duplicated, program)?;
    Ok(drive_conv(
        format!("conv-sparse-isa-{}", job.nm),
        ctx,
        &job.conv,
        cluster,
        t.gather(job),
        isa_channel_loop(job, t.seg),
    ))
}

/// [`conv_sparse_isa_prepared`] swept batch-major over `inputs` — the
/// `xDecimate` analogue of
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
    inputs: &[&[i8]],
) -> Result<BatchRun> {
    let t = sparse_table(ctx, job, OffsetLayout::Duplicated, program)?;
    drive_conv_batch(
        &format!("conv-sparse-isa-{}", job.nm),
        ctx,
        &job.conv,
        cluster,
        inputs,
        t.gather(job),
        isa_channel_loop(job, t.seg),
    )
}

/// The ISA kernel's channel loop over one position pair, shared by the
/// single-run and batch-major entry points: per channel on the
/// reference walk, one repeated block on the analytic walk. The bulk
/// tier computes through the lane sweep instead.
fn isa_channel_loop(
    job: &SparseConvJob,
    seg_dup: u32,
) -> impl FnMut(&mut Core, &mut Ctx<'_>, usize, usize, u32) + '_ {
    let geom = job.conv.geom;
    let nz = job.nz_per_channel();
    let mode = decimate_mode(job.nm);
    move |core, ctx, pos, n_patches, buf| match ctx.path() {
        Ctx::Mem(_) => {
            for k in 0..geom.k {
                let wrow = job.conv.bufs.weights + (k * nz) as u32;
                let krow = job.conv.bufs.offsets + k as u32 * seg_dup;
                channel_sparse_isa(core, ctx, job, mode, pos, n_patches, buf, k, wrow, krow);
            }
        }
        _ => {
            // Uniform channels: one repeated block per pair.
            let block = channel_block(core.costs(), job, n_patches as u64);
            core.charge_block(&block.repeat(geom.k as u64));
        }
    }
}

/// The accounting block of one `xDecimate` conv channel over `np`
/// patches, loop scaffold included (the exact batched equivalent of the
/// reference arm's charge sequence).
fn channel_block(costs: &CostModel, job: &SparseConvJob, np: u64) -> InstrBlock {
    let nz = job.nz_per_channel();
    let (chunks, tail) = ((nz / 4) as u64, (nz % 4) as u64);
    let per_chunk = InstrBlock::new().loads(2).xdecimate(8).sdotp(np);
    let per_tail = InstrBlock::new().loads(1).xdecimate(2).mac(np);
    loop_scaffold(costs, 3)
        .then(InstrBlock::new().xfu_clear(1))
        .then(per_chunk.repeat(chunks))
        .then(InstrBlock::new().loads(u64::from(tail > 0)))
        .then(per_tail.repeat(tail))
        .then(InstrBlock::new().alu(EPILOGUE_ALU).stores(1).repeat(np))
}

/// One output channel × `n_patches` patches with `xDecimate`, behind its
/// loop scaffold: per instruction on the reference walk, one block on
/// the analytic walk.
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

    match ctx.path() {
        Ctx::Mem(mem) => {
            core.outer_loop_iter();
            core.alu_n(3);
            core.hwloop_setup();
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
        _ => core.charge_block(&channel_block(core.costs(), job, n_patches as u64)),
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
