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

use crate::bulk::{conv_sweep, decim_table, table_below, ChannelRow};
use crate::im2col::{build_patches, im2col_patches, Im2colCharges};
use crate::layout::{copy_i8_to_bytes, nm_segment_bytes, ConvBufs};
use crate::stats::{BatchRun, Ctx, KernelStats};
use nm_core::format::{NmMatrix, OffsetLayout};
use nm_core::quant::Requant;
use nm_core::sparsity::Nm;
use nm_core::{ConvGeom, Error, Result};
use nm_isa::{Core, InstrBlock, Memory};
use nm_platform::{chunk_range, Cluster, ClusterStats, Scratchpad};
use per_channel::{ChannelConvJob, ChannelEngine};
use sparse_sw::SparseConvJob;
use std::borrow::Cow;
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
/// offsets — the compile-once artifact behind the bulk path's lane
/// sweep.
///
/// On the bulk tier, [`sparse_sw::conv_sparse_sw`] and
/// [`sparse_isa::conv_sparse_isa`] decode every channel's staged offset
/// stream into patch-buffer indices once per invocation, before their
/// lane sweep. That decode depends only on the packed weights, so a
/// compile-once executor can build the table a single time
/// ([`DecimProgram::from_matrix`]) and pass it to the `_prepared` kernel
/// entry points on every inference, paying zero decode work per run. The
/// table is identical to the one the kernels build themselves (same
/// stream walk), so outputs and charged cycles are unchanged.
#[derive(Debug, Clone)]
pub struct DecimProgram {
    table: Vec<u32>,
    /// Whether every table entry is below the patch length — validated
    /// once here so the sweep can gather unchecked forever after (see
    /// [`table_below`]).
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
        let nm = weights.nm();
        let table = decim_table(
            weights.offsets_bytes(),
            weights.rows(),
            weights.segment_bytes(),
            weights.nz_per_row(),
            nm.offset_bits(),
            nm.m(),
            decode_step(weights.layout())?,
        );
        let in_range = table_below(&table, weights.cols());
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
    /// patch length), enabling the sweep's unchecked loop.
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

/// Offset-stream entries per weight block of a conv offset layout: 1
/// for [`OffsetLayout::Plain`], 2 for [`OffsetLayout::Duplicated`]
/// (entries `2b` and `2b + 1` both carry block `b`).
///
/// # Errors
/// [`Error::Unsupported`] for [`OffsetLayout::Interleaved`] (an FC
/// layout; conv kernels never consume it).
fn decode_step(layout: OffsetLayout) -> Result<usize> {
    match layout {
        OffsetLayout::Plain => Ok(1),
        OffsetLayout::Duplicated => Ok(2),
        OffsetLayout::Interleaved => Err(Error::Unsupported(
            "interleaved offsets are an FC layout; no conv decimation table".into(),
        )),
    }
}

/// How a sparse conv entry point addresses its packed offsets.
pub(crate) struct SparseTable<'p> {
    /// Per-channel offset segment stride in L1 (bytes).
    pub(crate) seg: u32,
    /// The decimation table on the bulk path, `None` off it.
    table: Option<Cow<'p, [u32]>>,
    /// Whether every entry passed [`crate::bulk::table_below`].
    in_range: bool,
}

impl SparseTable<'_> {
    /// The bulk tier's lane-sweep gather for `job` (`None` off the bulk
    /// tier, where no table is built).
    pub(crate) fn gather(&self, job: &SparseConvJob) -> Option<ConvGather<'_>> {
        self.table.as_deref().map(|table| ConvGather::Sparse {
            nz: job.nz_per_channel(),
            table,
            in_range: self.in_range,
        })
    }
}

/// The preamble of the sparse conv entry points, whose offsets are staged
/// in `layout`: validates the job, and `program` on every path (so a
/// stale program is rejected even on runs that would not consume it).
/// The bulk path's table is borrowed from `program` when one is passed,
/// else decoded from the staged offsets; every chunk of the lane sweep
/// (every request's positions) reuses it.
pub(crate) fn sparse_table<'p>(
    ctx: &mut Ctx<'_>,
    job: &SparseConvJob,
    layout: OffsetLayout,
    program: Option<&'p DecimProgram>,
) -> Result<SparseTable<'p>> {
    job.validate()?;
    let nz = job.nz_per_channel();
    let seg = nm_segment_bytes(job.nm, nz, layout);
    if let Some(p) = program {
        p.check(job, layout)?;
    }
    let (table, in_range) = match (ctx, program) {
        (Ctx::MemBulk(_), Some(p)) => (Some(Cow::Borrowed(p.table())), p.in_range()),
        (Ctx::MemBulk(mem), None) => {
            let geom = job.conv.geom;
            let offs = mem
                .slice(job.conv.bufs.offsets, geom.k * seg)
                .expect("scratchpad is zero-copy");
            let (bits, m) = (job.nm.offset_bits(), job.nm.m());
            let table = decim_table(offs, geom.k, seg, nz, bits, m, decode_step(layout)?);
            let in_range = table_below(&table, geom.patch_len());
            (Some(Cow::Owned(table)), in_range)
        }
        _ => (None, false),
    };
    Ok(SparseTable {
        seg: seg as u32,
        table,
        in_range,
    })
}

/// How the bulk tier's lane sweep ([`crate::bulk::conv_sweep`]) finds
/// each output channel's weights and the patch elements it gathers: the
/// kernel's [`ChannelRow`]s, resolved against the staged scratchpad.
pub(crate) enum ConvGather<'a> {
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
    /// A per-channel mixed job, every channel with its own row: an N:M
    /// channel gathers through a table decoded from its staged offset
    /// segment (in the engine's layout), a dense channel through the
    /// identity walk over the patch.
    Mixed(&'a ChannelConvJob, ChannelEngine),
}

impl ConvGather<'_> {
    /// Computes every output of `inputs` (one tile input per request)
    /// into `out`, request `r`'s tile at `out[r * output_elems()..]`.
    pub(crate) fn sweep(&self, mem: &Scratchpad, job: &ConvJob, inputs: &[&[i8]], out: &mut [u8]) {
        let (k, plen) = (job.geom.k, job.geom.patch_len());
        let weights = |nz: usize| {
            mem.slice(job.bufs.weights, k * nz)
                .expect("scratchpad is zero-copy")
        };
        match *self {
            ConvGather::Sparse {
                nz,
                table,
                in_range,
            } => {
                let rows: Vec<ChannelRow<'_>> = weights(nz)
                    .chunks_exact(nz)
                    .zip(table.chunks_exact(nz))
                    .collect();
                conv_sweep(job, &rows, in_range, inputs, out);
            }
            ConvGather::Dense => {
                // One identity walk for every channel: below the patch
                // length by construction, so the sweep gathers unchecked.
                let identity: Vec<u32> = (0..plen as u32).collect();
                let rows: Vec<ChannelRow<'_>> = weights(plen)
                    .chunks_exact(plen)
                    .map(|w| (w, &identity[..]))
                    .collect();
                conv_sweep(job, &rows, true, inputs, out);
            }
            ConvGather::Mixed(mixed, engine) => mixed.sweep(mem, engine, inputs, out),
        }
    }
}

/// The shared spatial driver: splits output positions across cores,
/// performs the im2col for each position pair and invokes the
/// kernel-specific channel loop, which reads the patch buffers.
///
/// On the reference path the im2col runs per pair, instruction by
/// instruction, and the channel loop charges as it computes. The bulk
/// path runs two walks. The compute walk moves the data and writes the
/// outputs: the lane sweep (`gather`, which every kernel passes on the
/// bulk tier) computes the staged input as a batch of one, and only each
/// core's final im2col buffers are built ([`final_patches`]), so the
/// scratchpad ends bit-identical to the reference's. Then the analytic
/// walk — the only one the analytic path runs — charges each position
/// pair's scaffold and closed-form im2col (memoized per padding class,
/// shared across cores via one [`Im2colCharges`]) plus the channel
/// loop's blocks, and its statistics are the result.
pub(crate) fn drive_conv<F>(
    name: String,
    ctx: &mut Ctx<'_>,
    job: &ConvJob,
    cluster: &Cluster,
    gather: Option<ConvGather<'_>>,
    mut channel_loop: F,
) -> KernelStats
where
    F: FnMut(&mut Core, &mut Ctx<'_>, usize, usize, u32),
{
    if let Ctx::MemBulk(mem) = ctx {
        let geom = &job.geom;
        let staged = mem.slice(job.bufs.input, geom.input_elems());
        let input: Vec<i8> = staged
            .expect("staged input")
            .iter()
            .map(|&b| b as i8)
            .collect();
        let mut out = vec![0u8; geom.output_elems()];
        let gather = gather.expect("the bulk tier sweeps every conv kernel");
        gather.sweep(mem, job, &[&input], &mut out);
        let dst = mem.slice_mut(job.bufs.output, out.len());
        dst.expect("staged output").copy_from_slice(&out);
        final_patches(mem, job, cluster);
    }
    let mut ctx = ctx.charging();
    let geom = &job.geom;
    let mut charges = Im2colCharges::new(cluster.costs());
    // The per-iteration scaffold (outer_loop_iter + patch-pointer ALU)
    // folded into the analytic walk's single per-pair charge.
    let scaffold = InstrBlock::new().outer_iter(&cluster.costs()).alu(4);
    let mut per_core = Vec::with_capacity(cluster.n_cores());
    for core_id in 0..cluster.n_cores() {
        let mut core = Core::new(cluster.costs());
        core.kernel_overhead();
        let buf = im2col_buf(job, core_id);
        for (pos, n_patches) in position_pairs(geom, cluster, core_id) {
            match ctx.path() {
                Ctx::Mem(mem) => {
                    core.outer_loop_iter();
                    core.alu_n(4); // patch pointers + position bookkeeping
                    im2col_patches(&mut core, mem, geom, job.bufs.input, buf, pos, n_patches);
                }
                _ => core.charge_block(&charges.pair(geom, &scaffold, pos, n_patches)),
            }
            channel_loop(&mut core, &mut ctx, pos, n_patches, buf);
        }
        per_core.push(core.stats());
    }
    KernelStats {
        name,
        cluster: ClusterStats::from_cores(per_core, cluster.costs().barrier_cycles),
        dense_macs: geom.macs() as u64,
    }
}

/// Builds, uncharged, only the im2col buffers the reference walk leaves
/// behind: per core, each slot's last position (slot 1 keeps the
/// previous pair's second patch when the last step holds one patch).
fn final_patches(mem: &mut Scratchpad, job: &ConvJob, cluster: &Cluster) {
    let (geom, input) = (&job.geom, job.bufs.input);
    for core_id in 0..cluster.n_cores() {
        let buf = im2col_buf(job, core_id);
        let Some((pos, n_patches)) = position_pairs(geom, cluster, core_id).last() else {
            continue;
        };
        build_patches(mem, geom, input, buf, pos, n_patches);
        let first = chunk_range(geom.oy() * geom.ox(), cluster.n_cores(), core_id).start;
        if n_patches == 1 && pos > first {
            let slot1 = buf + geom.patch_len() as u32;
            build_patches(mem, geom, input, slot1, pos - 1, 1);
        }
    }
}

/// Core `core_id`'s im2col region: two `patch_len()` buffers.
fn im2col_buf(job: &ConvJob, core_id: usize) -> u32 {
    job.bufs.im2col + (core_id * job.geom.im2col_bytes_per_core()) as u32
}

/// Core `core_id`'s share of the output positions in the kernels'
/// two-patch steps: `(first position, patches)`, the last step of an odd
/// share holding one patch.
fn position_pairs(
    geom: &ConvGeom,
    cluster: &Cluster,
    core_id: usize,
) -> impl Iterator<Item = (usize, usize)> {
    let range = chunk_range(geom.oy() * geom.ox(), cluster.n_cores(), core_id);
    let end = range.end;
    range.step_by(2).map(move |pos| (pos, (end - pos).min(2)))
}

/// Batch-major driver: runs every request of `inputs` (one tile input
/// per request, HWC, `geom.input_elems()` bytes each) over a tile whose
/// weights, offsets and decoded decimation table are staged **once** for
/// the whole batch.
///
/// On the bulk path no request touches the modeled scratchpad: the lane
/// sweep (`gather`, see [`crate::bulk::conv_sweep`]) computes
/// every request's outputs host-side from its own input bytes, with its
/// (request, position) lanes walked 16 at a time, through the same
/// `row_split`-derived im2col decomposition (`crate::im2col::patch_lanes`)
/// and the same wrapping `i32` product multiset the kernels execute, so
/// every output byte equals a freshly staged sequential run's. Each
/// weight byte and decimation index is loaded once per chunk and feeds
/// every lane's accumulator. Every batch size runs this one compute; the
/// four families always pass a `gather` on the bulk tier.
///
/// Cycle accounting is input-value-independent, so every request on the
/// bulk and analytic paths shares the tile's one analytic walk. The
/// reference path rewrites the input buffer and runs the full
/// per-instruction drive per request, serving as the oracle the batched
/// kernel parity tests compare against.
///
/// # Errors
/// [`Error::ShapeMismatch`] if any request's input length disagrees with
/// the tile geometry.
pub(crate) fn drive_conv_batch<F>(
    name: &str,
    ctx: &mut Ctx<'_>,
    job: &ConvJob,
    cluster: &Cluster,
    inputs: &[&[i8]],
    gather: Option<ConvGather<'_>>,
    mut channel_loop: F,
) -> Result<BatchRun>
where
    F: FnMut(&mut Core, &mut Ctx<'_>, usize, usize, u32),
{
    let in_elems = job.geom.input_elems();
    let out_elems = job.geom.output_elems();
    for (r, input) in inputs.iter().enumerate() {
        if input.len() != in_elems {
            return Err(Error::ShapeMismatch(format!(
                "batch request {r}: tile input has {} elements, geometry wants {in_elems}",
                input.len()
            )));
        }
    }
    let b = inputs.len();
    let mut outputs = Vec::with_capacity(if ctx.is_mem() { b * out_elems } else { 0 });
    match ctx {
        Ctx::Mem(mem) => {
            let mut stats = Vec::with_capacity(b);
            for input in inputs {
                let dst = mem.slice_mut(job.bufs.input, in_elems);
                copy_i8_to_bytes(dst.expect("staged input in range"), input);
                let mut ctx = Ctx::Mem(mem);
                let run = drive_conv(
                    name.to_string(),
                    &mut ctx,
                    job,
                    cluster,
                    None,
                    &mut channel_loop,
                );
                stats.push(Arc::new(run));
                let src = mem.slice(job.bufs.output, out_elems);
                outputs.extend_from_slice(src.expect("staged output in range"));
            }
            return Ok(BatchRun { stats, outputs });
        }
        Ctx::MemBulk(mem) => {
            outputs.resize(b * out_elems, 0);
            let gather = gather.expect("the bulk tier sweeps every conv batch");
            gather.sweep(mem, job, inputs, &mut outputs);
        }
        Ctx::Analytic => {}
    }
    let stats = drive_conv(
        name.to_string(),
        &mut Ctx::Analytic,
        job,
        cluster,
        None,
        &mut channel_loop,
    );
    Ok(BatchRun::shared(b, stats, outputs))
}

/// The shared partial-im2col step as a standalone workload: charges (and
/// on the emulation paths performs) only the patch building over every
/// output position — no channel loops. This is the conv kernels' fixed
/// data-movement tax in isolation, used by the engine bench to track the
/// bulk path's im2col cost; `dense_macs` is the layer's dense-equivalent
/// MAC count so throughput rows normalize like the full kernels'.
///
/// On the bulk path nothing reads the patches, so only the buffers the
/// reference leaves behind are built (`final_patches`, as a single conv
/// run does after its sweep). The statistics come from the shared
/// driver's charging walk (`drive_conv` on `Ctx::charging`), which is the
/// analytic pass on the bulk tier.
pub fn im2col_only(name: &str, ctx: &mut Ctx<'_>, job: &ConvJob, cluster: &Cluster) -> KernelStats {
    if let Ctx::MemBulk(mem) = ctx {
        final_patches(mem, job, cluster);
    }
    drive_conv(
        name.to_string(),
        &mut ctx.charging(),
        job,
        cluster,
        None,
        |_, _, _, _, _| {},
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
        // 49 output positions per request (49 = 3 * 16 + 1), so a batch
        // of B ends its 16-lane sweep on a chunk of B live lanes: the
        // 4-lane dot at B = 1 and 3, the 8-lane dot at 8 and the 16-lane
        // dot at 12, 13 and 14, with chunks spanning requests throughout.
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
        type RunBatch<'w> = Box<dyn Fn(&mut Ctx<'_>, &ConvBufs, &[&[i8]]) -> BatchRun + 'w>;
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
            for path in ["reference", "bulk", "analytic"] {
                fn mk<'m>(path: &str, mem: &'m mut Scratchpad) -> Ctx<'m> {
                    match path {
                        "reference" => Ctx::Mem(mem),
                        "bulk" => Ctx::MemBulk(mem),
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
                // Batch-major: the weights staged once, every request
                // swept through the held staging.
                for b in [1usize, 3, 8, 12, 13, 14] {
                    let mut mem = Scratchpad::new("l1", 256 * 1024);
                    let bufs = stage(&mut mem, &inputs[0]);
                    let mut ctx = mk(path, &mut mem);
                    let run = run_batch(&mut ctx, &bufs, &refs[..b]);
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

    // Tiles with fewer output positions than the sweep width, so chunks
    // span requests: output sizes P of 1, 3, 4, 7, 11 and 13 positions
    // over B in {1, 2, 3, 5, 16, 17} requests leave a last chunk with
    // every live-lane count from 1 to 16 (the 4-, 8- and 16-lane dots),
    // and K in {1, 7, 8, 9, 12, 64} puts channels before, at and past
    // the epilogue's multiples of 8. Pre-padded and padded (per-lane row)
    // geometries, all four families: bulk outputs and per-request
    // statistics must equal the reference's.
    #[test]
    fn small_tiles_sweep_across_requests() {
        let nm = Nm::ONE_OF_EIGHT;
        let cluster = Cluster::new(4, CostModel::default());
        let batches = [1usize, 2, 3, 5, 16, 17];
        let grid = [
            ConvGeom::new(8, 64, 3, 3, 3, 3, 1, 0).unwrap(), // P = 1
            ConvGeom::new(8, 12, 5, 3, 3, 3, 1, 0).unwrap(), // P = 3
            ConvGeom::square(8, 9, 4, 3, 1, 0).unwrap(),     // P = 4
            ConvGeom::new(8, 8, 9, 3, 3, 3, 1, 0).unwrap(),  // P = 7
            ConvGeom::new(8, 7, 13, 3, 3, 3, 1, 0).unwrap(), // P = 11
            ConvGeom::new(8, 1, 15, 3, 3, 3, 1, 0).unwrap(), // P = 13
            ConvGeom::square(8, 12, 2, 3, 1, 1).unwrap(),    // P = 4, padded
            ConvGeom::new(8, 9, 7, 1, 3, 3, 1, 1).unwrap(),  // P = 7, padded
        ];
        let lasts: std::collections::BTreeSet<usize> = grid
            .iter()
            .flat_map(|g| batches.map(|b| (b * g.oy() * g.ox() - 1) % 16 + 1))
            .collect();
        assert_eq!(lasts.len(), 16, "every live-lane count ends some sweep");
        for geom in grid {
            let inputs: Vec<Vec<i8>> = (0..17u64)
                .map(|r| random_data(geom.input_elems(), 7 + r))
                .collect();
            let refs: Vec<&[i8]> = inputs.iter().map(Vec::as_slice).collect();
            let dense_w = random_data(geom.weight_elems(), 11);
            let prune = |layout| {
                NmMatrix::prune_from_dense(&dense_w, geom.k, geom.patch_len(), nm, layout).unwrap()
            };
            let (sw, isa) = (prune(OffsetLayout::Plain), prune(OffsetLayout::Duplicated));
            let dense_job = |bufs| ConvJob {
                geom,
                requant: Requant::for_dot_len(geom.patch_len()),
                bufs,
            };
            let sparse_job = |bufs| SparseConvJob {
                conv: ConvJob {
                    geom,
                    requant: Requant::for_dot_len(geom.patch_len() / nm.m()),
                    bufs,
                },
                nm,
            };
            for family in ["dense-1x2", "dense-4x2", "sparse-sw", "sparse-isa"] {
                let mut base = Scratchpad::new("l1", 64 * 1024);
                let bufs = match family {
                    "sparse-sw" => stage_conv_sparse(&mut base, &geom, refs[0], &sw, 4),
                    "sparse-isa" => stage_conv_sparse(&mut base, &geom, refs[0], &isa, 4),
                    _ => stage_conv_dense(&mut base, &geom, refs[0], &dense_w, 4),
                }
                .unwrap();
                let run = |ctx: &mut Ctx<'_>, batch: &[&[i8]]| {
                    match family {
                        "dense-1x2" => conv_dense_1x2_batch(ctx, &dense_job(bufs), &cluster, batch),
                        "dense-4x2" => conv_dense_4x2_batch(ctx, &dense_job(bufs), &cluster, batch),
                        "sparse-sw" => {
                            let job = sparse_job(bufs);
                            conv_sparse_sw_prepared_batch(ctx, &job, &cluster, None, batch)
                        }
                        _ => {
                            let job = sparse_job(bufs);
                            conv_sparse_isa_prepared_batch(ctx, &job, &cluster, None, batch)
                        }
                    }
                    .unwrap()
                };
                for b in batches {
                    let want = run(&mut Ctx::Mem(&mut base.clone()), &refs[..b]);
                    let got = run(&mut Ctx::MemBulk(&mut base.clone()), &refs[..b]);
                    assert_eq!(got.outputs, want.outputs, "{family} {geom:?} b{b} outputs");
                    assert_eq!(got.stats, want.stats, "{family} {geom:?} b{b} stats");
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
            let run =
                conv_sparse_isa_prepared_batch(&mut ctx, &job, &cluster, Some(&program), &refs)
                    .unwrap();
            sink = sink.wrapping_add(run.stats[0].cycles());
        }
        let full = t.elapsed().as_secs_f64();
        // (b) single run: lane sweep of the staged input + final
        // patches + analytic walk
        let t = Instant::now();
        for _ in 0..reps * 16 {
            let mut ctx = Ctx::MemBulk(&mut mem);
            let s = conv_sparse_isa_prepared(&mut ctx, &job, &cluster, Some(&program)).unwrap();
            sink = sink.wrapping_add(s.cycles());
        }
        let single = t.elapsed().as_secs_f64() / 16.0;
        // (c) lane-transposed patch builds alone (the b16 sweep's chunks:
        // 16 consecutive lanes each)
        let (positions, width) = (geom.oy() * geom.ox(), crate::bulk::CONV_LANES);
        let mut patches = vec![0i16; geom.patch_len() * width];
        let t = Instant::now();
        for _ in 0..reps {
            for first in (0..16 * positions).step_by(width) {
                let lanes: [(&[i8], usize); crate::bulk::CONV_LANES] = core::array::from_fn(|j| {
                    let l = (first + j).min(16 * positions - 1);
                    (refs[l / positions], l % positions)
                });
                crate::im2col::patch_lanes(&geom, &lanes, &mut patches);
                sink = sink.wrapping_add(patches[0] as u64);
            }
        }
        let build = t.elapsed().as_secs_f64();
        // (d) the sweep alone (all 16 requests)
        let mut out = vec![0u8; 16 * job.conv.geom.output_elems()];
        let gather = ConvGather::Sparse {
            nz: job.nz_per_channel(),
            table: program.table(),
            in_range: program.in_range(),
        };
        let t = Instant::now();
        for _ in 0..reps {
            gather.sweep(&mem, &job.conv, &refs, &mut out);
            sink = sink.wrapping_add(u64::from(out[0]));
        }
        let sweep = t.elapsed().as_secs_f64();
        // (e) the analytic walk alone (the statistics every request
        // shares)
        let t = Instant::now();
        for _ in 0..reps {
            let s = conv_sparse_isa_prepared(&mut Ctx::Analytic, &job, &cluster, None).unwrap();
            sink = sink.wrapping_add(s.cycles());
        }
        let analytic = t.elapsed().as_secs_f64();
        println!("sink {sink}");
        println!(
            "patch_lanes b16    : {build:8.3} s  ({:.3} ms/req)",
            build / reps as f64 / 16.0 * 1e3
        );
        println!(
            "sweep 16 req       : {sweep:8.3} s  ({:.3} ms/req)",
            sweep / reps as f64 / 16.0 * 1e3
        );
        println!(
            "analytic walk      : {analytic:8.3} s  ({:.3} ms/batch)",
            analytic / reps as f64 * 1e3
        );
        println!(
            "full batch-16      : {full:8.3} s  ({:.3} ms/req)",
            full / reps as f64 / 16.0 * 1e3
        );
        println!(
            "single run x16     : {:8.3} s  ({:.3} ms/req)",
            single * 16.0,
            single / reps as f64 * 1e3
        );
    }
}
