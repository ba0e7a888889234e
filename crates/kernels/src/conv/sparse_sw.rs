//! Software-only N:M sparse convolution (paper Sec. 4.1.2, Fig. 3 /
//! Fig. 4 center).
//!
//! Strategy: *Decimate Im2col* — the im2col step is unchanged; a decimate
//! step in the innermost loop selects, for each output channel, the
//! activations matching that channel's non-zero weights, addressing them
//! as `block * M + offset` inside the im2col buffer.
//!
//! Inner iteration (4 non-zeros × 2 patches = 8 MACs):
//!
//! * 1:8 / 1:16 — 22 instructions: 9 computing indices (1 offsets word
//!   load + 4×(shift, mask)), 8 byte loads, 2 address updates, 1 weight
//!   word load, 2 SIMD dot products. Peak 0.36 MACs/instr/core.
//! * 1:4 — 23 instructions (2 more maskings, one less load: the four
//!   2-bit offsets arrive with a single byte load). Peak 0.35.

use super::{
    drive_conv, drive_conv_batch, sparse_table, BatchRun, ConvJob, DecimProgram, EPILOGUE_ALU,
};
use crate::bulk::{loop_scaffold, nm_gather_dot, offsets_len};
use crate::stats::{Ctx, KernelStats};
use nm_core::format::OffsetLayout;
use nm_core::sparsity::Nm;
use nm_core::{Error, Result};
use nm_isa::{Core, CostModel, InstrBlock, InstrClass, Memory};
use nm_platform::{Cluster, Scratchpad};

/// A sparse convolution job: the dense job description plus the pattern.
#[derive(Debug, Clone, Copy)]
pub struct SparseConvJob {
    /// Geometry, requantization and buffers.
    pub conv: ConvJob,
    /// The N:M pattern of the packed weights.
    pub nm: Nm,
}

impl SparseConvJob {
    /// Non-zero weights per output channel.
    pub fn nz_per_channel(&self) -> usize {
        self.conv.geom.patch_len() / self.nm.m()
    }

    pub(crate) fn validate(&self) -> Result<()> {
        if !self.nm.is_kernel_supported() {
            return Err(Error::Unsupported(format!(
                "kernel library implements 1:4, 1:8, 1:16; got {}",
                self.nm
            )));
        }
        if !self.conv.geom.patch_len().is_multiple_of(self.nm.m()) {
            return Err(Error::ShapeMismatch(format!(
                "patch length {} not a multiple of M={}",
                self.conv.geom.patch_len(),
                self.nm.m()
            )));
        }
        Ok(())
    }
}

/// Runs the software-only sparse convolution. Weights must be staged in
/// the [`OffsetLayout::Plain`] N:M format
/// (see [`crate::layout::stage_conv_sparse`]).
///
/// # Errors
/// [`Error::Unsupported`] for patterns outside {1:4, 1:8, 1:16};
/// [`Error::ShapeMismatch`] if `FY*FX*C` is not a multiple of M.
pub fn conv_sparse_sw(
    ctx: &mut Ctx<'_>,
    job: &SparseConvJob,
    cluster: &Cluster,
) -> Result<KernelStats> {
    conv_sparse_sw_prepared(ctx, job, cluster, None)
}

/// [`conv_sparse_sw`] with an optional pre-decoded decimation table
/// ([`DecimProgram`], [`OffsetLayout::Plain`]). Compile-once executors
/// build the program from the packed weights a single time and pass it
/// here on every run, skipping the per-invocation offset decode of the
/// bulk path; outputs and charged cycles are identical either way.
///
/// The program must come from the same packed matrix that was staged
/// (the structural check rejects wrong shapes/patterns/layouts; content
/// identity is the caller's contract).
///
/// # Errors
/// As [`conv_sparse_sw`]; additionally [`nm_core::Error::ShapeMismatch`]
/// if `program` does not structurally match the job.
pub fn conv_sparse_sw_prepared(
    ctx: &mut Ctx<'_>,
    job: &SparseConvJob,
    cluster: &Cluster,
    program: Option<&DecimProgram>,
) -> Result<KernelStats> {
    let t = sparse_table(ctx, job, OffsetLayout::Plain, program)?;
    Ok(drive_conv(
        format!("conv-sparse-sw-{}", job.nm),
        ctx,
        &job.conv,
        cluster,
        t.gather(job),
        sw_channel_loop(job, t.seg),
    ))
}

/// [`conv_sparse_sw_prepared`] swept batch-major over `inputs` (one tile
/// input per request): the packed values, offsets and the decimation
/// table (decoded — or validated, when prepared — **once for the whole
/// batch**) stay staged while each request's input rewrites the input
/// buffer. Per-request statistics and outputs are bit-identical to
/// staging and running each request alone (see `drive_conv_batch`).
///
/// # Errors
/// As [`conv_sparse_sw_prepared`]; additionally
/// [`Error::ShapeMismatch`] if a request's input length disagrees with
/// the tile geometry.
pub fn conv_sparse_sw_prepared_batch(
    ctx: &mut Ctx<'_>,
    job: &SparseConvJob,
    cluster: &Cluster,
    program: Option<&DecimProgram>,
    inputs: &[&[i8]],
) -> Result<BatchRun> {
    let t = sparse_table(ctx, job, OffsetLayout::Plain, program)?;
    drive_conv_batch(
        &format!("conv-sparse-sw-{}", job.nm),
        ctx,
        &job.conv,
        cluster,
        inputs,
        t.gather(job),
        sw_channel_loop(job, t.seg),
    )
}

/// The software kernel's channel loop over one position pair, shared by
/// the single-run and batch-major entry points: per channel on the
/// reference walk, one repeated block on the analytic walk. The bulk
/// tier computes through the lane sweep instead.
fn sw_channel_loop(
    job: &SparseConvJob,
    seg: u32,
) -> impl FnMut(&mut Core, &mut Ctx<'_>, usize, usize, u32) + '_ {
    let geom = job.conv.geom;
    let nz = job.nz_per_channel();
    move |core, ctx, pos, n_patches, buf| match ctx.path() {
        Ctx::Mem(_) => {
            for k in 0..geom.k {
                let wrow = job.conv.bufs.weights + (k * nz) as u32;
                let krow = job.conv.bufs.offsets + k as u32 * seg;
                channel_sparse_sw(core, ctx, job, pos, n_patches, buf, k, wrow, krow);
            }
        }
        _ => {
            // Uniform channels: one repeated block per pair.
            let block = channel_block(core.costs(), job, n_patches as u64);
            core.charge_block(&block.repeat(geom.k as u64));
        }
    }
}

/// The accounting block of one software-decimation conv channel over
/// `np` patches, loop scaffold included (the exact batched equivalent of
/// the reference arm's charge sequence).
fn channel_block(costs: &CostModel, job: &SparseConvJob, np: u64) -> InstrBlock {
    let nz = job.nz_per_channel();
    let (chunks, tail) = ((nz / 4) as u64, (nz % 4) as u64);
    let idx_alu = if job.nm.offset_bits() == 4 { 8 } else { 9 };
    let per_chunk = InstrBlock::new()
        .loads(2 + 4 * np)
        .alu(idx_alu + 2)
        .sdotp(np);
    loop_scaffold(costs, 3)
        .then(per_chunk.repeat(chunks))
        .then(InstrBlock::new().loads_unstalled(u64::from(tail > 0)))
        .then(InstrBlock::new().alu(3).loads(1 + np).mac(np).repeat(tail))
        .then(InstrBlock::new().alu(EPILOGUE_ALU).stores(1).repeat(np))
}

/// One output channel of the software sparse kernel behind its loop
/// scaffold. `wrow` / `seg` address the channel's packed non-zero values
/// and offset segment in L1 (unused in analytic mode) — passed
/// explicitly so the per-channel mixed kernel can address heterogeneous
/// rows.
#[allow(clippy::too_many_arguments)]
pub(crate) fn channel_sparse_sw(
    core: &mut Core,
    ctx: &mut Ctx<'_>,
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
    let m = job.nm.m();
    let bits = job.nm.offset_bits();
    let nz = job.nz_per_channel();
    let (chunks, tail) = (nz / 4, nz % 4);
    match ctx.path() {
        Ctx::MemBulk(mem) => {
            let mut outs = [0i8; 2];
            {
                let values = mem.slice(wrow, nz).expect("scratchpad is zero-copy");
                let offs = mem
                    .slice(seg, offsets_len(nz, bits))
                    .expect("scratchpad is zero-copy");
                for (p, out) in outs.iter_mut().enumerate().take(n_patches) {
                    let a = mem
                        .slice(buf + (p * plen) as u32, plen)
                        .expect("scratchpad is zero-copy");
                    *out = job
                        .conv
                        .requant
                        .apply(nm_gather_dot(values, a, offs, bits, m, 0, 1));
                }
            }
            for (p, &out) in outs.iter().enumerate().take(n_patches) {
                mem.store_i8(job.conv.bufs.output + ((pos + p) * geom.k + k) as u32, out);
            }
        }
        Ctx::Analytic => core.charge_block(&channel_block(core.costs(), job, n_patches as u64)),
        Ctx::Mem(mem) => {
            core.outer_loop_iter();
            core.alu_n(3);
            core.hwloop_setup();
            let vrow = wrow;
            let mut acc = [0i32; 2];
            for j in 0..chunks {
                // --- index computation ---
                let mut offs = [0usize; 4];
                if bits == 4 {
                    let word = core.lw(mem, seg + (2 * j) as u32); // 4 nibbles in the low half
                    for (i, o) in offs.iter_mut().enumerate() {
                        core.alu_n(2); // shift + mask
                        *o = ((word >> (4 * i)) & 0xF) as usize;
                    }
                } else {
                    let byte = core.lb(mem, seg + j as u32) as u8;
                    for (i, o) in offs.iter_mut().enumerate() {
                        core.alu_n(2);
                        *o = usize::from((byte >> (2 * i)) & 0x3);
                    }
                    core.alu_n(1); // extra masking (Sec. 4.1.2: "2 more maskings, one less load")
                }
                // --- decimated activation loads ---
                let mut vb = [0u32; 2];
                for (i, &o) in offs.iter().enumerate() {
                    for p in 0..n_patches {
                        let addr = buf + (p * plen + (4 * j + i) * m + o) as u32;
                        vb[p] = core.lb_lane(mem, addr, vb[p], i as u32);
                    }
                }
                core.alu_n(2); // im2col pointer updates
                               // --- weights + dot products ---
                let w = core.lw(mem, vrow + (4 * j) as u32);
                for p in 0..n_patches {
                    acc[p] = core.sdotp(w, vb[p], acc[p]);
                }
            }
            if tail > 0 {
                core.charge(InstrClass::Load, 1); // final (partial) offsets fetch
            }
            for t in 0..tail {
                let idx = chunks * 4 + t;
                core.alu_n(3);
                let o = read_offset(mem, seg, bits, idx);
                let wv = core.lb(mem, vrow + idx as u32);
                for (p, a) in acc.iter_mut().enumerate().take(n_patches) {
                    let byte = core.lb(mem, buf + (p * plen + idx * m + o) as u32);
                    *a = core.mac(i32::from(wv), i32::from(byte), *a);
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

/// Unpacks the `idx`-th offset from a packed segment in L1 (tail path;
/// charging is handled by the caller).
pub(crate) fn read_offset(mem: &Scratchpad, seg: u32, bits: usize, idx: usize) -> usize {
    let bitpos = idx * bits;
    let byte = mem.load_u8(seg + (bitpos / 8) as u32);
    ((byte >> (bitpos % 8)) & ((1 << bits) - 1) as u8) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::stage_conv_sparse;
    use crate::reference::conv_ref;
    use nm_core::format::NmMatrix;
    use nm_core::quant::Requant;
    use nm_core::ConvGeom;
    use nm_isa::{CostModel, Memory};

    use crate::testdata::random_data;

    fn check(geom: ConvGeom, nm: Nm) {
        let input = random_data(geom.input_elems(), 3);
        let dense = random_data(geom.weight_elems(), 11);
        let w =
            NmMatrix::prune_from_dense(&dense, geom.k, geom.patch_len(), nm, OffsetLayout::Plain)
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
            conv_sparse_sw(&mut ctx, &job, &cluster).unwrap()
        };
        let got: Vec<i8> = (0..geom.output_elems() as u32)
            .map(|i| l1.load_i8(bufs.output + i))
            .collect();
        assert_eq!(got, conv_ref(&geom, &input, &pruned, rq), "{nm} {geom:?}");

        let analytic = conv_sparse_sw(&mut Ctx::Analytic, &job, &cluster).unwrap();
        assert_eq!(stats.cycles(), analytic.cycles(), "{nm} {geom:?} cycles");
        assert_eq!(
            stats.cluster.total_instret(),
            analytic.cluster.total_instret()
        );
        assert_eq!(stats.cluster.total_macs(), analytic.cluster.total_macs());
    }

    #[test]
    fn matches_reference_all_patterns() {
        for nm in Nm::KERNEL_PATTERNS {
            check(ConvGeom::square(nm.m() * 2, 4, 6, 3, 1, 1).unwrap(), nm);
        }
    }

    #[test]
    fn handles_tails_and_strides() {
        // 1:8 with C=8: nz/channel = 9 -> 2 chunks + tail of 1.
        check(
            ConvGeom::square(8, 3, 5, 3, 1, 1).unwrap(),
            Nm::ONE_OF_EIGHT,
        );
        // strided, odd output count
        check(
            ConvGeom::square(16, 2, 7, 3, 2, 1).unwrap(),
            Nm::ONE_OF_FOUR,
        );
        // pointwise 1:16
        check(
            ConvGeom::square(16, 5, 3, 1, 1, 0).unwrap(),
            Nm::ONE_OF_SIXTEEN,
        );
    }

    #[test]
    fn rejects_unsupported_patterns() {
        let geom = ConvGeom::square(8, 2, 4, 3, 1, 1).unwrap();
        let job = SparseConvJob {
            conv: ConvJob {
                geom,
                requant: Requant::IDENTITY,
                bufs: Default::default(),
            },
            nm: Nm::new(2, 4).unwrap(),
        };
        assert!(matches!(
            conv_sparse_sw(
                &mut Ctx::Analytic,
                &job,
                &Cluster::new(1, CostModel::default())
            ),
            Err(Error::Unsupported(_))
        ));
    }

    #[test]
    fn rejects_non_multiple_patch_len() {
        let geom = ConvGeom::square(4, 2, 4, 3, 1, 1).unwrap(); // patch 36, M=8
        let job = SparseConvJob {
            conv: ConvJob {
                geom,
                requant: Requant::IDENTITY,
                bufs: Default::default(),
            },
            nm: Nm::ONE_OF_EIGHT,
        };
        assert!(matches!(
            conv_sparse_sw(
                &mut Ctx::Analytic,
                &job,
                &Cluster::new(1, CostModel::default())
            ),
            Err(Error::ShapeMismatch(_))
        ));
    }

    /// Guard test: the inner-loop instruction budget matches the paper
    /// (22 instructions for 1:8/1:16, 23 for 1:4, per 4-NZ chunk at two
    /// patches).
    #[test]
    fn inner_chunk_budget_matches_paper() {
        for (nm, expect) in [
            (Nm::ONE_OF_EIGHT, 22),
            (Nm::ONE_OF_SIXTEEN, 22),
            (Nm::ONE_OF_FOUR, 23),
        ] {
            // Two geometries differing by exactly one inner chunk
            // (pointwise, so im2col cost scales linearly with C and can
            // be subtracted).
            let g1 = ConvGeom::square(4 * nm.m(), 1, 2, 1, 1, 0).unwrap(); // 1 chunk
            let g2 = ConvGeom::square(8 * nm.m(), 1, 2, 1, 1, 0).unwrap(); // 2 chunks
            let cluster = Cluster::new(1, CostModel::default());
            let job = |g| SparseConvJob {
                conv: ConvJob {
                    geom: g,
                    requant: Requant::IDENTITY,
                    bufs: Default::default(),
                },
                nm,
            };
            let i1 = conv_sparse_sw(&mut Ctx::Analytic, &job(g1), &cluster)
                .unwrap()
                .cluster
                .total_instret();
            let i2 = conv_sparse_sw(&mut Ctx::Analytic, &job(g2), &cluster)
                .unwrap()
                .cluster
                .total_instret();
            // The difference per position pair: one extra chunk + the
            // extra im2col traffic (4m bytes per patch = m word
            // loads+stores per patch).
            let positions = (g1.oy() * g1.ox()) as u64; // 4 positions = 2 pairs
            let pairs = positions / 2;
            let im2col_extra = 2 * (nm.m() as u64) * 2; // 2 patches x m words x (lw+sw)
            let per_pair = (i2 - i1) / pairs;
            assert_eq!(per_pair - im2col_extra, expect, "{nm}");
        }
    }
}
