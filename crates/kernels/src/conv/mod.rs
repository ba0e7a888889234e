//! Convolution kernels (paper Sec. 4.1).
//!
//! All kernels share the output-stationary dataflow of Fig. 2/3: the
//! outer loops run over output spatial positions (parallelized across the
//! cluster cores), two positions are processed per iteration through the
//! partial im2col, and the inner loops produce all `K` output channels
//! for those positions.
//!
//! * [`dense::conv_dense_1x2`] — the 1×2-unrolled dense baseline
//!   (1 output channel × 2 patches; peak 1.6 MACs/instr/core).
//! * [`dense::conv_dense_4x2`] — the PULP-NN 4×2 baseline (4 channels ×
//!   2 patches; peak 2.28), falling back to 1×2 for leftover channels.
//! * [`sparse_sw::conv_sparse_sw`] — software-only N:M kernels
//!   (decimate-im2col; 22 or 23 inner instructions).
//! * [`sparse_isa::conv_sparse_isa`] — `xDecimate`-extended kernels
//!   (12 inner instructions).
//! * [`per_channel::conv_channel_mixed`] — per-channel variable patterns
//!   (the paper's future-work extension), dispatching each output channel
//!   to the matching inner loop.

pub mod dense;
pub mod per_channel;
pub mod sparse_isa;
pub mod sparse_sw;

use crate::bulk::decim_table;
use crate::im2col::{im2col_patches, Im2colCharges, PatchState};
use crate::layout::{copy_i8_to_bytes, ConvBufs};
use crate::stats::{BatchRun, Ctx, KernelStats};
use nm_core::format::{NmMatrix, OffsetLayout};
use nm_core::quant::Requant;
use nm_core::sparsity::Nm;
use nm_core::{ConvGeom, Error, Result};
use nm_isa::{Core, InstrBlock, Memory};
use nm_platform::{chunk_range, Cluster, ClusterStats};
use sparse_sw::SparseConvJob;
use std::sync::Arc;

/// One convolution invocation: geometry, requantization and L1 buffers.
///
/// In analytic mode ([`Ctx::Analytic`]) the buffer addresses are unused
/// and may be left default.
#[derive(Debug, Clone, Copy)]
pub struct ConvJob {
    /// Layer (or tile) geometry.
    pub geom: ConvGeom,
    /// Output requantization.
    pub requant: Requant,
    /// L1 buffer addresses.
    pub bufs: ConvBufs,
}

/// Instructions charged per produced output during requantization:
/// bias add, arithmetic shift, XpulpV2 `p.clip`, plus the byte store.
pub(crate) const EPILOGUE_ALU: u64 = 3;

/// A pre-decoded decimation table for a sparse convolution's packed
/// offsets — the compile-once artifact behind the bulk path's per-pair
/// gathers.
///
/// The bulk arms of [`sparse_sw::conv_sparse_sw`] and
/// [`sparse_isa::conv_sparse_isa`] decode every channel's offset stream
/// into patch-buffer indices once per invocation. That decode depends
/// only on the packed weights, so a compile-once executor can build the
/// table a single time ([`DecimProgram::from_matrix`]) and pass it to the
/// `_prepared` kernel entry points on every inference, paying zero decode
/// work per run. The table is identical to the one the kernels build
/// themselves (same stream walk), so outputs and charged cycles are
/// unchanged.
#[derive(Debug, Clone)]
pub struct DecimProgram {
    table: Vec<u32>,
    /// Whether every table entry is below the patch length — validated
    /// once here so the per-pair gathers can run unchecked forever after
    /// (see [`crate::bulk::table_below`]).
    in_range: bool,
    nm: Nm,
    rows: usize,
    cols: usize,
    layout: OffsetLayout,
}

impl DecimProgram {
    /// Pre-decodes the decimation table of a packed N:M conv weight
    /// matrix ([`OffsetLayout::Plain`] for the software kernel,
    /// [`OffsetLayout::Duplicated`] for the ISA kernel).
    ///
    /// # Errors
    /// [`Error::Unsupported`] for [`OffsetLayout::Interleaved`] (an FC
    /// layout; conv kernels never consume it).
    pub fn from_matrix(weights: &NmMatrix) -> Result<Self> {
        let (base, step) = match weights.layout() {
            OffsetLayout::Plain => (0, 1),
            OffsetLayout::Duplicated => (0, 2),
            OffsetLayout::Interleaved => {
                return Err(Error::Unsupported(
                    "interleaved offsets are an FC layout; no conv decimation table".into(),
                ))
            }
        };
        let nm = weights.nm();
        let table = decim_table(
            weights.offsets_bytes(),
            weights.rows(),
            weights.segment_bytes(),
            weights.nz_per_row(),
            nm.offset_bits(),
            nm.m(),
            base,
            step,
        );
        let in_range = crate::bulk::table_below(&table, weights.cols());
        Ok(DecimProgram {
            table,
            in_range,
            nm,
            rows: weights.rows(),
            cols: weights.cols(),
            layout: weights.layout(),
        })
    }

    /// The pre-decoded patch-buffer indices (entry `k * nz + b`).
    pub(crate) fn table(&self) -> &[u32] {
        &self.table
    }

    /// Host-resident bytes of the pre-decoded table — the memory a
    /// compile-once cache pays to keep this program warm (the serving
    /// layer's byte-budget accounting sums it per prepared model).
    pub fn table_bytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<u32>()
    }

    /// Whether the table passed bounds validation (entries below the
    /// patch length), enabling the unchecked gather loops.
    pub(crate) fn in_range(&self) -> bool {
        self.in_range
    }

    /// Validates that this program structurally matches `job`'s
    /// weights: same pattern, dimensions and the offset layout
    /// `expected` by the kernel family consuming it. The check is
    /// *structural only* — a program built from different weights of
    /// the identical shape/pattern/layout is indistinguishable here, so
    /// pairing the program with the weights it was built from is the
    /// caller's contract (the compile-once executor constructs both
    /// from the same [`NmMatrix`]).
    ///
    /// # Errors
    /// [`Error::ShapeMismatch`] on any structural disagreement — such a
    /// program would gather out of the wrong table geometry entirely.
    pub(crate) fn check(&self, job: &SparseConvJob, expected: OffsetLayout) -> Result<()> {
        let geom = &job.conv.geom;
        if self.nm != job.nm
            || self.rows != geom.k
            || self.cols != geom.patch_len()
            || self.layout != expected
        {
            return Err(Error::ShapeMismatch(format!(
                "decimation program for {}x{} {} ({:?}) used with a {}x{} {} ({expected:?}) job",
                self.rows,
                self.cols,
                self.nm,
                self.layout,
                geom.k,
                geom.patch_len(),
                job.nm,
            )));
        }
        Ok(())
    }
}

/// The shared spatial driver: splits output positions across cores,
/// performs the im2col for each pair and invokes the kernel-specific
/// channel loop. Channel loops read the patch buffers, so the bulk path
/// materializes every position ([`drive_conv`] with `patches_read`).
pub(crate) fn drive<F>(
    name: String,
    ctx: &mut Ctx<'_>,
    job: &ConvJob,
    cluster: &Cluster,
    channel_loop: F,
) -> KernelStats
where
    F: FnMut(&mut Core, &mut Ctx<'_>, usize, usize, u32, bool),
{
    drive_conv(name, ctx, job, cluster, true, true, channel_loop)
}

/// [`drive`] with an explicit patch-consumption policy.
///
/// On the reference path the im2col runs per position, instruction by
/// instruction. Every other path keeps a [`PatchState`] per core whose
/// charging is closed-form (memoized per padding class, shared across
/// cores via one [`Im2colCharges`]); the analytic path stops there. On
/// the bulk and native paths data movement is incremental on top of
/// that. With `patches_read` the buffers are materialized before
/// every `channel_loop` call (sliding from the previous pair's
/// contents); without it — the im2col-only engine workloads — only each
/// core's *final* patch buffers are written, preserving full-memory
/// parity with the reference at none of the intermediate traffic.
///
/// `charge` selects whether cycle accounting runs at all. With it false
/// — legal **only on the bulk and native paths**, where charging is a
/// closed-form side channel — the drive performs the data movement and
/// output computation but skips every [`Core`] charge and [`InstrBlock`]
/// construction, and the returned statistics are meaningless. Batch-major
/// sweeps use this for requests after the first: kernel charging depends
/// only on geometry and weights, so request 0's statistics are reused
/// verbatim (see [`drive_conv_batch`]). On the native path
/// ([`Ctx::MemNative`]) `charge` is forced off — statistics are undefined
/// on that tier and the returned stats are all-zero. On the reference
/// path charging is welded to the per-instruction execution and `charge`
/// must be true.
pub(crate) fn drive_conv<F>(
    name: String,
    ctx: &mut Ctx<'_>,
    job: &ConvJob,
    cluster: &Cluster,
    patches_read: bool,
    charge: bool,
    mut channel_loop: F,
) -> KernelStats
where
    F: FnMut(&mut Core, &mut Ctx<'_>, usize, usize, u32, bool),
{
    let native = ctx.is_native();
    let charge = charge && !native;
    debug_assert!(
        charge || matches!(ctx, Ctx::MemBulk(_) | Ctx::MemNative(_)),
        "uncharged drives are a bulk/native-path-only shortcut"
    );
    let geom = &job.geom;
    let n_pos = geom.oy() * geom.ox();
    let mut charges = Im2colCharges::new(cluster.costs());
    // The per-iteration scaffold (outer_loop_iter + patch-pointer ALU)
    // folded into the bulk and analytic paths' single per-pair charge.
    let scaffold = InstrBlock::new().outer_iter(&cluster.costs()).alu(4);
    let mut per_core = Vec::with_capacity(cluster.n_cores());
    for core_id in 0..cluster.n_cores() {
        let mut core = Core::new(cluster.costs());
        if charge {
            core.kernel_overhead();
        }
        let range = chunk_range(n_pos, cluster.n_cores(), core_id);
        let buf = job.bufs.im2col + (core_id * geom.im2col_bytes_per_core()) as u32;
        let mut patches = PatchState::new(job.bufs.input, buf);
        let mut pos = range.start;
        while pos < range.end {
            let n_patches = (range.end - pos).min(2);
            match ctx.path() {
                Ctx::MemBulk(mem) | Ctx::MemNative(mem) => {
                    if charge {
                        patches.fill(&mut core, &mut charges, geom, &scaffold, pos, n_patches);
                    } else {
                        patches.record(geom, pos, n_patches);
                    }
                    if patches_read {
                        patches.materialize(mem, geom);
                    }
                }
                Ctx::Analytic => {
                    patches.fill(&mut core, &mut charges, geom, &scaffold, pos, n_patches);
                }
                Ctx::Mem(mem) => {
                    core.outer_loop_iter();
                    core.alu_n(4); // patch pointers + position bookkeeping
                    im2col_patches(&mut core, mem, geom, job.bufs.input, buf, pos, n_patches);
                }
            }
            channel_loop(&mut core, ctx, pos, n_patches, buf, charge);
            pos += n_patches;
        }
        if let Ctx::MemBulk(mem) | Ctx::MemNative(mem) = ctx.path() {
            patches.finish(mem, geom);
        }
        per_core.push(core.stats());
    }
    let barrier = if native {
        0
    } else {
        cluster.costs().barrier_cycles
    };
    KernelStats {
        name,
        cluster: ClusterStats::from_cores(per_core, barrier),
        dense_macs: geom.macs() as u64,
    }
}

/// The per-request inputs of a batch-major sweep over one staged conv
/// tile (`drive_conv_batch`): the tile's weights, offsets and decoded
/// decimation table stay resident in L1 for the whole batch; between
/// requests only the input buffer is rewritten.
#[derive(Debug, Clone, Copy)]
pub struct ConvBatch<'a> {
    /// One tile input per request (HWC, `geom.input_elems()` bytes
    /// each). Request 0's slice must be the input the caller already
    /// staged at `bufs.input` — the sweep never rewrites it.
    pub inputs: &'a [&'a [i8]],
}

/// The kernel family's inner-compute shape, handed to
/// [`drive_conv_batch`] so the bulk path can run requests after the
/// first through the request-inner sweep
/// ([`crate::bulk::conv_sweep_sparse`] /
/// [`crate::bulk::conv_sweep_dense`]) instead of a per-request drive.
/// `None` (or a batch too small to amortize the transposed patch build)
/// falls back to per-request uncharged drives.
pub(crate) enum BatchInner<'a> {
    /// Gather through the pre-decoded decimation table (both sparse
    /// families — their bulk compute is the same [`crate::bulk`] walk).
    Sparse {
        /// Non-zeros per output channel.
        nz: usize,
        /// The decoded table (`k * nz` entries).
        table: &'a [u32],
        /// Whether every entry passed [`crate::bulk::table_below`].
        in_range: bool,
    },
    /// Dense dot over the full patch (the 1×2 and 4×2 baselines).
    Dense,
}

/// Batch-major sweep driver: one fully charged [`drive_conv`] for
/// request 0 over a tile whose weights are staged **once** for the whole
/// batch, then the remaining requests at full host speed.
///
/// Bit-identity argument: request 0 runs on the freshly staged state
/// exactly as a single run would. Requests after the first never touch
/// the modeled scratchpad at all on the bulk path — their outputs are
/// computed host-side from each request's own input bytes through the
/// same `row_split`-derived im2col decomposition
/// (`crate::im2col::patch_transposed`) and the same wrapping `i32`
/// product multiset the kernels execute (see
/// [`crate::bulk::conv_sweep_sparse`]), so every output byte equals a
/// freshly staged sequential run's. On the reference path every request
/// runs the full per-instruction drive (the input buffer rewritten
/// between requests; stale im2col/output regions are dead values —
/// every kernel rebuilds patches before reading and overwrites every
/// output element), serving as the oracle the batched kernel parity
/// tests compare against.
///
/// The sweep's speed comes from two places. Cycle accounting is
/// input-value-independent, so request 0 is the only one charged — the
/// rest reuse its [`KernelStats`] verbatim (on the analytic path, which
/// moves no data, they run nothing at all). And the bulk-path requests
/// after the first run *request-inner*: each weight byte and decimation
/// index is loaded once and feeds every remaining request's accumulator
/// through a transposed patch block, where a sequential loop re-walks
/// the index/weight streams per request. Batches too small to amortize
/// the transpose (or families without a [`BatchInner`]) fall back to
/// per-request uncharged drives ([`drive_conv`] with `charge == false`).
///
/// # Errors
/// [`Error::ShapeMismatch`] if any request's input length disagrees with
/// the tile geometry.
pub(crate) fn drive_conv_batch<F>(
    name: &str,
    ctx: &mut Ctx<'_>,
    job: &ConvJob,
    cluster: &Cluster,
    batch: &ConvBatch<'_>,
    inner: Option<BatchInner<'_>>,
    mut channel_loop: F,
) -> Result<BatchRun>
where
    F: FnMut(&mut Core, &mut Ctx<'_>, usize, usize, u32, bool),
{
    let in_elems = job.geom.input_elems();
    let out_elems = job.geom.output_elems();
    for (r, input) in batch.inputs.iter().enumerate() {
        if input.len() != in_elems {
            return Err(Error::ShapeMismatch(format!(
                "batch request {r}: tile input has {} elements, geometry wants {in_elems}",
                input.len()
            )));
        }
    }
    let b = batch.inputs.len();
    let mut stats = Vec::with_capacity(b);
    let mut outputs = Vec::with_capacity(if ctx.is_mem() { b * out_elems } else { 0 });
    // Request 0 always runs the fully charged drive on the freshly
    // staged state — it produces the statistics every bulk/analytic
    // request reuses.
    stats.push(Arc::new(drive_conv(
        name.to_string(),
        ctx,
        job,
        cluster,
        true,
        true,
        &mut channel_loop,
    )));
    if let Some(mem) = ctx.mem() {
        outputs.extend_from_slice(
            mem.slice(job.bufs.output, out_elems)
                .expect("staged output in range"),
        );
    }
    if b == 1 {
        return Ok(BatchRun { stats, outputs });
    }
    // Requests after the first: on the bulk path, as many
    // SWEEP_WIDTH-wide request-inner sweep chunks as the batch fills
    // (a short last chunk pads dead lanes, so remainders below
    // SWEEP_MIN live requests cost less through the per-request
    // fallback loop below).
    let mut tail = &batch.inputs[1..];
    if let Ctx::MemBulk(mem) | Ctx::MemNative(mem) = &mut *ctx {
        if let Some(inner) = &inner {
            let (swept, fallback) = tail.split_at(crate::bulk::sweep_len(tail.len()));
            if !swept.is_empty() {
                let base = outputs.len();
                outputs.resize(base + swept.len() * out_elems, 0);
                match inner {
                    BatchInner::Sparse {
                        nz,
                        table,
                        in_range,
                    } => crate::bulk::conv_sweep_sparse(
                        mem,
                        job,
                        *nz,
                        table,
                        *in_range,
                        swept,
                        &mut outputs[base..],
                    ),
                    BatchInner::Dense => {
                        crate::bulk::conv_sweep_dense(mem, job, swept, &mut outputs[base..])
                    }
                }
                stats.resize(1 + swept.len(), Arc::clone(&stats[0]));
            }
            tail = fallback;
        }
    }
    for input in tail {
        if let Some(mem) = ctx.mem() {
            let dst = mem
                .slice_mut(job.bufs.input, in_elems)
                .expect("staged input in range");
            copy_i8_to_bytes(dst, input);
        }
        match ctx {
            // The reference path stays fully charged per request — its
            // accounting is welded to per-instruction execution.
            Ctx::Mem(_) => stats.push(Arc::new(drive_conv(
                name.to_string(),
                ctx,
                job,
                cluster,
                true,
                true,
                &mut channel_loop,
            ))),
            Ctx::MemBulk(_) | Ctx::MemNative(_) => {
                drive_conv(
                    name.to_string(),
                    ctx,
                    job,
                    cluster,
                    true,
                    false,
                    &mut channel_loop,
                );
                stats.push(Arc::clone(&stats[0]));
            }
            // Analytic: no memory, no data movement — nothing to run.
            Ctx::Analytic => stats.push(Arc::clone(&stats[0])),
        }
        if let Some(mem) = ctx.mem() {
            outputs.extend_from_slice(
                mem.slice(job.bufs.output, out_elems)
                    .expect("staged output in range"),
            );
        }
    }
    Ok(BatchRun { stats, outputs })
}

/// The shared partial-im2col step as a standalone workload: charges (and
/// on the emulation paths performs) only the patch building over every
/// output position — no channel loops. This is the conv kernels' fixed
/// data-movement tax in isolation, used by the engine bench to track the
/// bulk path's incremental-im2col win; `dense_macs` is the layer's
/// dense-equivalent MAC count so throughput rows normalize like the full
/// kernels'.
///
/// On the bulk path nothing reads the intermediate patches, so only each
/// core's final patch buffers are materialized (see [`PatchState`]).
pub fn im2col_only(name: &str, ctx: &mut Ctx<'_>, job: &ConvJob, cluster: &Cluster) -> KernelStats {
    drive_conv(
        name.to_string(),
        ctx,
        job,
        cluster,
        false,
        true,
        |_, _, _, _, _, _| {},
    )
}

#[cfg(test)]
mod tests {
    use super::dense::{
        conv_dense_1x2, conv_dense_1x2_batch, conv_dense_4x2, conv_dense_4x2_batch,
    };
    use super::sparse_isa::{conv_sparse_isa_prepared, conv_sparse_isa_prepared_batch};
    use super::sparse_sw::{conv_sparse_sw_prepared, conv_sparse_sw_prepared_batch};
    use super::*;
    use crate::layout::{stage_conv_dense, stage_conv_sparse};
    use crate::testdata::random_data;
    use nm_isa::CostModel;
    use nm_platform::Scratchpad;

    /// A prepared decimation program must be a pure shortcut: identical
    /// outputs (whole scratchpad) and identical statistics to the kernel
    /// decoding its own table, on the bulk path, for both families.
    #[test]
    fn prepared_program_is_bit_and_cycle_exact() {
        for (layout, nm) in [
            (OffsetLayout::Plain, Nm::ONE_OF_EIGHT),
            (OffsetLayout::Plain, Nm::ONE_OF_FOUR),
            (OffsetLayout::Duplicated, Nm::ONE_OF_EIGHT),
            (OffsetLayout::Duplicated, Nm::ONE_OF_SIXTEEN),
        ] {
            let geom = ConvGeom::square(nm.m() * 2, 6, 7, 3, 1, 1).unwrap();
            let input = random_data(geom.input_elems(), 31);
            let dense = random_data(geom.weight_elems(), 37);
            let w =
                NmMatrix::prune_from_dense(&dense, geom.k, geom.patch_len(), nm, layout).unwrap();
            let program = DecimProgram::from_matrix(&w).unwrap();
            let cluster = Cluster::new(4, CostModel::default());
            let mut base = Scratchpad::new("l1", 256 * 1024);
            let bufs = stage_conv_sparse(&mut base, &geom, &input, &w, cluster.n_cores()).unwrap();
            let job = SparseConvJob {
                conv: ConvJob {
                    geom,
                    requant: Requant::for_dot_len(geom.patch_len() / nm.m()),
                    bufs,
                },
                nm,
            };
            let run = |mem: &mut Scratchpad, program: Option<&DecimProgram>| {
                let mut ctx = Ctx::MemBulk(mem);
                match layout {
                    OffsetLayout::Plain => {
                        conv_sparse_sw_prepared(&mut ctx, &job, &cluster, program).unwrap()
                    }
                    _ => conv_sparse_isa_prepared(&mut ctx, &job, &cluster, program).unwrap(),
                }
            };
            let mut own = base.clone();
            let own_stats = run(&mut own, None);
            let mut pre = base.clone();
            let pre_stats = run(&mut pre, Some(&program));
            assert_eq!(own.bytes(), pre.bytes(), "{layout:?} {nm} memory");
            assert_eq!(own_stats, pre_stats, "{layout:?} {nm} stats");
        }
    }

    // A batch-major sweep under held staging must be a pure scheduling
    // change: per-request outputs AND per-request kernel statistics
    // bit-identical to staging each request from scratch, and the
    // statistics input-value-independent (every request charges the
    // same cycles — the conv analogue of the FC per-token pin). Checked
    // for all four kernel families on the reference, bulk and analytic
    // paths.
    #[test]
    fn batch_major_sweep_is_bit_and_cycle_exact() {
        let nm = Nm::ONE_OF_EIGHT;
        let geom = ConvGeom::square(16, 6, 7, 3, 1, 1).unwrap();
        // 14 requests cover every sweep regime at once: batch 3 (all
        // fallback drives), 13 (one full 8-wide sweep chunk + 4-request
        // fallback tail), 14 (full chunk + padded 5-live chunk).
        let inputs: Vec<Vec<i8>> = (0..14u64)
            .map(|r| random_data(geom.input_elems(), 61 + r))
            .collect();
        let refs: Vec<&[i8]> = inputs.iter().map(|v| v.as_slice()).collect();
        let dense_w = random_data(geom.weight_elems(), 67);
        let sw =
            NmMatrix::prune_from_dense(&dense_w, geom.k, geom.patch_len(), nm, OffsetLayout::Plain)
                .unwrap();
        let isa = NmMatrix::prune_from_dense(
            &dense_w,
            geom.k,
            geom.patch_len(),
            nm,
            OffsetLayout::Duplicated,
        )
        .unwrap();
        let cluster = Cluster::new(4, CostModel::default());
        type Stage<'w> = Box<dyn Fn(&mut Scratchpad, &[i8]) -> ConvBufs + 'w>;
        type RunOne<'w> = Box<dyn Fn(&mut Ctx<'_>, &ConvBufs) -> KernelStats + 'w>;
        type RunBatch<'w> = Box<dyn Fn(&mut Ctx<'_>, &ConvBufs, &ConvBatch<'_>) -> BatchRun + 'w>;
        let dense_job = move |bufs: &ConvBufs| ConvJob {
            geom,
            requant: Requant::for_dot_len(geom.patch_len()),
            bufs: *bufs,
        };
        let sparse_job = move |bufs: &ConvBufs| SparseConvJob {
            conv: ConvJob {
                geom,
                requant: Requant::for_dot_len(geom.patch_len() / nm.m()),
                bufs: *bufs,
            },
            nm,
        };
        let families: Vec<(&str, Stage<'_>, RunOne<'_>, RunBatch<'_>)> = vec![
            (
                "dense-1x2",
                Box::new(|mem, x| {
                    stage_conv_dense(mem, &geom, x, &dense_w, cluster.n_cores()).unwrap()
                }),
                Box::new(move |ctx, bufs| conv_dense_1x2(ctx, &dense_job(bufs), &cluster).unwrap()),
                Box::new(move |ctx, bufs, batch| {
                    conv_dense_1x2_batch(ctx, &dense_job(bufs), &cluster, batch).unwrap()
                }),
            ),
            (
                "dense-4x2",
                Box::new(|mem, x| {
                    stage_conv_dense(mem, &geom, x, &dense_w, cluster.n_cores()).unwrap()
                }),
                Box::new(move |ctx, bufs| conv_dense_4x2(ctx, &dense_job(bufs), &cluster).unwrap()),
                Box::new(move |ctx, bufs, batch| {
                    conv_dense_4x2_batch(ctx, &dense_job(bufs), &cluster, batch).unwrap()
                }),
            ),
            (
                "sparse-sw",
                Box::new(|mem, x| {
                    stage_conv_sparse(mem, &geom, x, &sw, cluster.n_cores()).unwrap()
                }),
                Box::new(move |ctx, bufs| {
                    conv_sparse_sw_prepared(ctx, &sparse_job(bufs), &cluster, None).unwrap()
                }),
                Box::new(move |ctx, bufs, batch| {
                    conv_sparse_sw_prepared_batch(ctx, &sparse_job(bufs), &cluster, None, batch)
                        .unwrap()
                }),
            ),
            (
                "sparse-isa",
                Box::new(|mem, x| {
                    stage_conv_sparse(mem, &geom, x, &isa, cluster.n_cores()).unwrap()
                }),
                Box::new(move |ctx, bufs| {
                    conv_sparse_isa_prepared(ctx, &sparse_job(bufs), &cluster, None).unwrap()
                }),
                Box::new(move |ctx, bufs, batch| {
                    conv_sparse_isa_prepared_batch(ctx, &sparse_job(bufs), &cluster, None, batch)
                        .unwrap()
                }),
            ),
        ];
        for (label, stage, run_one, run_batch) in &families {
            for path in ["reference", "bulk", "native", "analytic"] {
                fn mk<'m>(path: &str, mem: &'m mut Scratchpad) -> Ctx<'m> {
                    match path {
                        "reference" => Ctx::Mem(mem),
                        "bulk" => Ctx::MemBulk(mem),
                        "native" => Ctx::MemNative(mem),
                        _ => Ctx::Analytic,
                    }
                }
                // Sequential baseline: every request staged from scratch.
                let mut seq_stats = Vec::new();
                let mut seq_outs: Vec<u8> = Vec::new();
                for input in &inputs {
                    let mut mem = Scratchpad::new("l1", 256 * 1024);
                    let bufs = stage(&mut mem, input);
                    let mut ctx = mk(path, &mut mem);
                    seq_stats.push(Arc::new(run_one(&mut ctx, &bufs)));
                    if path != "analytic" {
                        seq_outs.extend_from_slice(
                            mem.slice(bufs.output, geom.output_elems()).unwrap(),
                        );
                    }
                }
                // Batch-major: request 0 staged once, the rest swept
                // through the held staging.
                for b in [3usize, 13, 14] {
                    let mut mem = Scratchpad::new("l1", 256 * 1024);
                    let bufs = stage(&mut mem, &inputs[0]);
                    let mut ctx = mk(path, &mut mem);
                    let batch = ConvBatch { inputs: &refs[..b] };
                    let run = run_batch(&mut ctx, &bufs, &batch);
                    assert_eq!(
                        run.stats,
                        seq_stats[..b],
                        "{label} {path} b{b} per-request stats"
                    );
                    let want_outs = &seq_outs[..seq_outs.len().min(b * geom.output_elems())];
                    assert_eq!(
                        run.outputs, want_outs,
                        "{label} {path} b{b} per-request outputs"
                    );
                    for (r, s) in run.stats.iter().enumerate() {
                        assert_eq!(
                            s, &run.stats[0],
                            "{label} {path} b{b} request {r}: attribution must be input-value-independent"
                        );
                    }
                }
            }
        }
    }

    /// A program built for different weights must be rejected, not
    /// silently gather the wrong activations.
    #[test]
    fn mismatched_program_is_rejected() {
        let nm = Nm::ONE_OF_EIGHT;
        let geom = ConvGeom::square(16, 4, 6, 3, 1, 1).unwrap();
        let other = ConvGeom::square(16, 2, 6, 3, 1, 1).unwrap();
        let dense = random_data(other.weight_elems(), 41);
        let w =
            NmMatrix::prune_from_dense(&dense, other.k, other.patch_len(), nm, OffsetLayout::Plain)
                .unwrap();
        let program = DecimProgram::from_matrix(&w).unwrap();
        let cluster = Cluster::new(2, CostModel::default());
        let input = random_data(geom.input_elems(), 43);
        let wg = NmMatrix::prune_from_dense(
            &random_data(geom.weight_elems(), 47),
            geom.k,
            geom.patch_len(),
            nm,
            OffsetLayout::Plain,
        )
        .unwrap();
        let mut l1 = Scratchpad::new("l1", 256 * 1024);
        let bufs = stage_conv_sparse(&mut l1, &geom, &input, &wg, cluster.n_cores()).unwrap();
        let job = SparseConvJob {
            conv: ConvJob {
                geom,
                requant: Requant::IDENTITY,
                bufs,
            },
            nm,
        };
        let mut ctx = Ctx::MemBulk(&mut l1);
        let err = conv_sparse_sw_prepared(&mut ctx, &job, &cluster, Some(&program));
        assert!(matches!(err, Err(Error::ShapeMismatch(_))));
        // Wrong layout for the kernel family is rejected too.
        let mut ctx = Ctx::MemBulk(&mut l1);
        let err = conv_sparse_isa_prepared(&mut ctx, &job, &cluster, Some(&program));
        assert!(matches!(err, Err(Error::ShapeMismatch(_))));
        // The interleaved FC layout has no conv table at all.
        let fc = NmMatrix::prune_from_dense(
            &random_data(4 * 32, 51),
            4,
            32,
            nm,
            OffsetLayout::Interleaved,
        )
        .unwrap();
        assert!(matches!(
            DecimProgram::from_matrix(&fc),
            Err(Error::Unsupported(_))
        ));
    }

    #[test]
    #[ignore = "manual profiling aid"]
    fn profile_batch_components() {
        use std::time::Instant;
        let nm = Nm::ONE_OF_EIGHT;
        let geom = ConvGeom::square(32, 32, 18, 3, 1, 0).unwrap();
        let inputs: Vec<Vec<i8>> = (0..16u64)
            .map(|r| random_data(geom.input_elems(), 61 + r))
            .collect();
        let refs: Vec<&[i8]> = inputs.iter().map(|v| v.as_slice()).collect();
        let dense_w = random_data(geom.weight_elems(), 67);
        let w = NmMatrix::prune_from_dense(
            &dense_w,
            geom.k,
            geom.patch_len(),
            nm,
            OffsetLayout::Duplicated,
        )
        .unwrap();
        let program = DecimProgram::from_matrix(&w).unwrap();
        let cluster = Cluster::new(8, CostModel::default());
        let mut mem = Scratchpad::new("l1", 512 * 1024);
        let bufs = stage_conv_sparse(&mut mem, &geom, refs[0], &w, cluster.n_cores()).unwrap();
        let job = SparseConvJob {
            conv: ConvJob {
                geom,
                requant: Requant::for_dot_len(geom.patch_len() / nm.m()),
                bufs,
            },
            nm,
        };
        let reps = 200;
        let mut sink = 0u64;
        // (a) full batch-16 sweep
        let t = Instant::now();
        for _ in 0..reps {
            let mut ctx = Ctx::MemBulk(&mut mem);
            let run = conv_sparse_isa_prepared_batch(
                &mut ctx,
                &job,
                &cluster,
                Some(&program),
                &ConvBatch { inputs: &refs },
            )
            .unwrap();
            sink = sink.wrapping_add(run.stats[0].cycles());
        }
        let full = t.elapsed().as_secs_f64();
        // (b) same sweep, noop channel loop: input rewrite + im2col
        // materialization + output capture only
        let t = Instant::now();
        for _ in 0..reps {
            let mut ctx = Ctx::MemBulk(&mut mem);
            let run = drive_conv_batch(
                "noop",
                &mut ctx,
                &job.conv,
                &cluster,
                &ConvBatch { inputs: &refs },
                None,
                |_, _, _, _, _, _| {},
            )
            .unwrap();
            sink = sink.wrapping_add(run.stats[0].cycles());
        }
        let noop = t.elapsed().as_secs_f64();
        // (c) single charged run (request 0 cost)
        let t = Instant::now();
        for _ in 0..reps * 16 {
            let mut ctx = Ctx::MemBulk(&mut mem);
            let s = conv_sparse_isa_prepared(&mut ctx, &job, &cluster, Some(&program)).unwrap();
            sink = sink.wrapping_add(s.cycles());
        }
        let single = t.elapsed().as_secs_f64() / 16.0;
        // (d) transposed patch materialization alone (two 8-wide chunks
        // per position, matching the b16 sweep's chunking)
        let padded: [&[i8]; 8] = core::array::from_fn(|r| refs[r]);
        let mut patches = vec![0u8; job.conv.geom.patch_len() * 8];
        let t = Instant::now();
        for _ in 0..reps {
            for pos in 0..job.conv.geom.oy() * job.conv.geom.ox() {
                for _ in 0..2 {
                    crate::im2col::patch_transposed::<8>(
                        &job.conv.geom,
                        &padded,
                        pos,
                        &mut patches,
                    );
                    sink = sink.wrapping_add(u64::from(patches[0]));
                }
            }
        }
        let transpose = t.elapsed().as_secs_f64();
        // (e) the uncharged sweep alone (15 trailing requests)
        let mut out = vec![0u8; 15 * job.conv.geom.output_elems()];
        let t = Instant::now();
        for _ in 0..reps {
            crate::bulk::conv_sweep_sparse(
                &mem,
                &job.conv,
                job.nz_per_channel(),
                program.table(),
                program.in_range(),
                &refs[1..],
                &mut out,
            );
            sink = sink.wrapping_add(u64::from(out[0]));
        }
        let sweep = t.elapsed().as_secs_f64();
        println!("sink {sink}");
        println!(
            "transpose x2/pos   : {transpose:8.3} s  ({:.3} ms/req)",
            transpose / reps as f64 / 16.0 * 1e3
        );
        println!(
            "sweep 15 req       : {sweep:8.3} s  ({:.3} ms/req)",
            sweep / reps as f64 / 15.0 * 1e3
        );
        println!(
            "full batch-16      : {full:8.3} s  ({:.3} ms/req)",
            full / reps as f64 / 16.0 * 1e3
        );
        println!(
            "noop  batch-16     : {noop:8.3} s  ({:.3} ms/req)",
            noop / reps as f64 / 16.0 * 1e3
        );
        println!(
            "charged single x16 : {:8.3} s  ({:.3} ms/req)",
            single * 16.0,
            single / reps as f64 * 1e3
        );
    }
}
