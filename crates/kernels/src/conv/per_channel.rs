//! Per-channel variable-sparsity convolution — the paper's stated future
//! work ("variable sparsity patterns (e.g., per-layer or per-channel)").
//!
//! Each output channel carries its own pattern choice: dense channels run
//! the 1×2 dense inner loop, N:M channels run the decimate-im2col sparse
//! loop (software or `xDecimate`-extended). The im2col work is shared by
//! all channels of a spatial position pair, exactly as in the uniform
//! kernels, so mixing patterns costs nothing beyond each channel's own
//! inner loop. This works because the N:M format is *per-row* local: no
//! cross-channel state exists outside the im2col buffer.
//!
//! On the bulk tier the mixed kernel computes through the uniform
//! kernels' lane sweep, each channel with its own weight row and gather
//! indices: an N:M channel gathers through a table decoded from its
//! offset segment, a dense channel through the identity walk over the
//! patch. The charging comes from the analytic pass, each channel's
//! block plus the memoized closed-form im2col — the mixed kernel
//! inherits the exact-parity contract unchanged.
//!
//! Row payloads are heterogeneous (dense rows store `FY*FX*C` bytes,
//! 1:16 rows a sixteenth of that), so the kernel addresses rows through
//! an explicit per-row address table built by
//! [`crate::layout::stage_conv_channelwise`].

use super::dense::channel_1xn;
use super::sparse_isa::{channel_sparse_isa, decimate_mode};
use super::sparse_sw::channel_sparse_sw;
use super::{drive_conv, ConvGather, ConvJob};
use crate::bulk::{conv_sweep, decim_table, offsets_len, table_below, ChannelRow};
use crate::stats::{Ctx, KernelStats};
use nm_core::sparsity::Nm;
use nm_core::{Error, Result};
use nm_isa::Memory;
use nm_platform::{Cluster, Scratchpad};

/// Which kernel family serves the sparse channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ChannelEngine {
    /// Software-only decimation (offsets in [`nm_core::format::OffsetLayout::Plain`]).
    #[default]
    Software,
    /// `xDecimate`-extended (offsets in
    /// [`nm_core::format::OffsetLayout::Duplicated`]).
    Isa,
}

/// A per-channel mixed-sparsity convolution job.
///
/// `row_values[k]` / `row_offsets[k]` are the L1 addresses of channel
/// `k`'s weight payload and packed offset segment. Both tables need `K`
/// entries on the emulation paths; they may be left empty in analytic
/// mode ([`Ctx::Analytic`]), which addresses nothing.
#[derive(Debug, Clone)]
pub struct ChannelConvJob {
    /// Geometry, requantization and shared buffers.
    pub conv: ConvJob,
    /// Pattern per output channel (`None` = dense), length `K`.
    pub patterns: Vec<Option<Nm>>,
    /// Per-channel weight payload address (emulation only).
    pub row_values: Vec<u32>,
    /// Per-channel offset segment address (emulation only).
    pub row_offsets: Vec<u32>,
}

impl ChannelConvJob {
    /// Creates an analytic-mode job (no L1 addresses).
    pub fn new(conv: ConvJob, patterns: Vec<Option<Nm>>) -> Self {
        ChannelConvJob {
            conv,
            patterns,
            row_values: Vec::new(),
            row_offsets: Vec::new(),
        }
    }

    /// Dense-equivalent weights kept, as a fraction in `(0, 1]`.
    pub fn density(&self) -> f64 {
        let total: f64 = self
            .patterns
            .iter()
            .map(|p| p.map_or(1.0, |nm| nm.density()))
            .sum();
        total / self.patterns.len().max(1) as f64
    }

    /// `with_mem`: the run emulates against a scratchpad, so both row
    /// address tables must cover every channel.
    fn validate(&self, with_mem: bool) -> Result<()> {
        let geom = &self.conv.geom;
        if self.patterns.len() != geom.k {
            return Err(Error::ShapeMismatch(format!(
                "{} channel patterns for K={}",
                self.patterns.len(),
                geom.k
            )));
        }
        check_row_tables(with_mem, geom.k, &self.row_values, &self.row_offsets)?;
        for (k, &p) in self.patterns.iter().enumerate() {
            let Some(nm) = p else { continue };
            if !nm.is_kernel_supported() {
                return Err(Error::Unsupported(format!(
                    "channel {k}: kernel library implements 1:4, 1:8, 1:16; got {nm}"
                )));
            }
            if !geom.patch_len().is_multiple_of(nm.m()) {
                return Err(Error::ShapeMismatch(format!(
                    "channel {k}: patch length {} not a multiple of M={}",
                    geom.patch_len(),
                    nm.m()
                )));
            }
        }
        Ok(())
    }

    /// Channel `k`'s (weight payload, offset segment) addresses on the
    /// emulation paths; analytic runs address nothing.
    fn row_addr(&self, ctx: &Ctx<'_>, k: usize) -> (u32, u32) {
        match ctx {
            Ctx::Analytic => (0, 0),
            _ => (self.row_values[k], self.row_offsets[k]),
        }
    }

    /// The bulk tier's compute ([`ConvGather::Mixed`]): one lane sweep
    /// over `inputs` in which channel `k` reads its staged weight row and
    /// gathers through its own indices — entry `step * b` of its offset
    /// segment decodes block `b` (`step` 1 in the software engine's plain
    /// layout, 2 in the `xDecimate` engine's duplicated one), and a dense
    /// channel walks the whole patch.
    pub(crate) fn sweep(
        &self,
        mem: &Scratchpad,
        engine: ChannelEngine,
        inputs: &[&[i8]],
        out: &mut [u8],
    ) {
        let plen = self.conv.geom.patch_len();
        let step = match engine {
            ChannelEngine::Software => 1,
            ChannelEngine::Isa => 2,
        };
        let slice = |addr, len| mem.slice(addr, len).expect("scratchpad is zero-copy");
        let tables: Vec<Option<Vec<u32>>> = self
            .patterns
            .iter()
            .zip(&self.row_offsets)
            .map(|(p, &seg)| {
                p.map(|nm| {
                    let (nz, bits) = (plen / nm.m(), nm.offset_bits());
                    let offs = slice(seg, offsets_len(step * nz, bits));
                    decim_table(offs, 1, 0, nz, bits, nm.m(), step)
                })
            })
            .collect();
        let identity: Vec<u32> = (0..plen as u32).collect();
        let rows: Vec<ChannelRow<'_>> = tables
            .iter()
            .zip(&self.row_values)
            .map(|(t, &w)| {
                let t = t.as_deref().unwrap_or(&identity);
                (slice(w, t.len()), t)
            })
            .collect();
        // The identity is below the patch length by construction.
        let in_range = tables.iter().flatten().all(|t| table_below(t, plen));
        conv_sweep(&self.conv, &rows, in_range, inputs, out);
    }
}

/// Rejects a per-channel job whose row address tables do not cover its
/// `k` channels on a run that emulates against a scratchpad; analytic
/// runs accept empty tables.
pub(crate) fn check_row_tables(
    with_mem: bool,
    k: usize,
    row_values: &[u32],
    row_offsets: &[u32],
) -> Result<()> {
    if with_mem && (row_values.len() != k || row_offsets.len() != k) {
        return Err(Error::ShapeMismatch(format!(
            "{} row value and {} row offset addresses for K={k}",
            row_values.len(),
            row_offsets.len()
        )));
    }
    Ok(())
}

/// Runs the per-channel mixed-sparsity convolution.
///
/// With [`ChannelEngine::Software`] the sparse channels expect
/// plain-layout offsets; with [`ChannelEngine::Isa`] duplicated-layout
/// offsets (see [`crate::layout::stage_conv_channelwise`]).
///
/// # Errors
/// [`Error::ShapeMismatch`] if the pattern table length differs from `K`,
/// some pattern's M does not divide the patch length, or `ctx` carries
/// a scratchpad and a row address table lacks `K` entries;
/// [`Error::Unsupported`] for patterns outside {1:4, 1:8, 1:16}.
pub fn conv_channel_mixed(
    ctx: &mut Ctx<'_>,
    job: &ChannelConvJob,
    cluster: &Cluster,
    engine: ChannelEngine,
) -> Result<KernelStats> {
    job.validate(ctx.is_mem())?;
    let geom = job.conv.geom;
    let name = match engine {
        ChannelEngine::Software => "conv-channel-mixed-sw".to_string(),
        ChannelEngine::Isa => "conv-channel-mixed-isa".to_string(),
    };
    Ok(drive_conv(
        name,
        ctx,
        &job.conv,
        cluster,
        Some(ConvGather::Mixed(job, engine)),
        |core, ctx, pos, n_patches, buf| {
            for k in 0..geom.k {
                let (wrow, seg) = job.row_addr(ctx, k);
                let Some(nm) = job.patterns[k] else {
                    channel_1xn(core, ctx, &job.conv, pos, n_patches, buf, k, wrow);
                    continue;
                };
                let sparse = super::sparse_sw::SparseConvJob { conv: job.conv, nm };
                match engine {
                    ChannelEngine::Software => {
                        channel_sparse_sw(core, ctx, &sparse, pos, n_patches, buf, k, wrow, seg);
                    }
                    ChannelEngine::Isa => {
                        let mode = decimate_mode(nm);
                        channel_sparse_isa(
                            core, ctx, &sparse, mode, pos, n_patches, buf, k, wrow, seg,
                        );
                    }
                }
            }
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::dense::conv_dense_1x2;
    use crate::conv::sparse_isa::conv_sparse_isa;
    use crate::conv::sparse_sw::{conv_sparse_sw, SparseConvJob};
    use crate::layout::stage_conv_channelwise;
    use crate::reference::conv_ref;
    use nm_core::format::{ChannelNmMatrix, OffsetLayout};
    use nm_core::quant::Requant;
    use nm_core::ConvGeom;
    use nm_isa::{CostModel, Memory};
    use nm_platform::Scratchpad;

    use crate::testdata::random_data;

    /// Round-robin pattern assignment over the given ladder.
    fn cycle_patterns(k: usize, ladder: &[Option<Nm>]) -> Vec<Option<Nm>> {
        (0..k).map(|i| ladder[i % ladder.len()]).collect()
    }

    fn check(geom: ConvGeom, patterns: Vec<Option<Nm>>, engine: ChannelEngine) {
        let layout = match engine {
            ChannelEngine::Software => OffsetLayout::Plain,
            ChannelEngine::Isa => OffsetLayout::Duplicated,
        };
        let input = random_data(geom.input_elems(), 33);
        let dense = random_data(geom.weight_elems(), 17);
        let w =
            ChannelNmMatrix::prune_from_dense(&dense, geom.k, geom.patch_len(), &patterns, layout)
                .unwrap();
        let pruned = w.to_dense();
        let rq = Requant::for_dot_len(geom.patch_len() / 8);
        let cluster = Cluster::new(4, CostModel::default());
        let mut l1 = Scratchpad::new("l1", 512 * 1024);
        let (bufs, row_values, row_offsets) =
            stage_conv_channelwise(&mut l1, &geom, &input, &w, cluster.n_cores()).unwrap();
        let job = ChannelConvJob {
            conv: ConvJob {
                geom,
                requant: rq,
                bufs,
            },
            patterns,
            row_values,
            row_offsets,
        };

        let stats = {
            let mut ctx = Ctx::Mem(&mut l1);
            conv_channel_mixed(&mut ctx, &job, &cluster, engine).unwrap()
        };
        let got: Vec<i8> = (0..geom.output_elems() as u32)
            .map(|i| l1.load_i8(bufs.output + i))
            .collect();
        assert_eq!(
            got,
            conv_ref(&geom, &input, &pruned, rq),
            "{engine:?} {geom:?}"
        );

        let analytic = conv_channel_mixed(&mut Ctx::Analytic, &job, &cluster, engine).unwrap();
        assert_eq!(
            stats.cycles(),
            analytic.cycles(),
            "{engine:?} {geom:?} cycles"
        );
        assert_eq!(
            stats.cluster.total_instret(),
            analytic.cluster.total_instret()
        );
        assert_eq!(stats.cluster.total_macs(), analytic.cluster.total_macs());
    }

    #[test]
    fn mixed_rows_match_reference_sw() {
        let geom = ConvGeom::square(16, 8, 6, 3, 1, 1).unwrap();
        let ladder = [
            None,
            Some(Nm::ONE_OF_FOUR),
            Some(Nm::ONE_OF_EIGHT),
            Some(Nm::ONE_OF_SIXTEEN),
        ];
        check(
            geom,
            cycle_patterns(geom.k, &ladder),
            ChannelEngine::Software,
        );
    }

    #[test]
    fn mixed_rows_match_reference_isa() {
        let geom = ConvGeom::square(16, 8, 6, 3, 1, 1).unwrap();
        let ladder = [
            None,
            Some(Nm::ONE_OF_FOUR),
            Some(Nm::ONE_OF_EIGHT),
            Some(Nm::ONE_OF_SIXTEEN),
        ];
        check(geom, cycle_patterns(geom.k, &ladder), ChannelEngine::Isa);
    }

    #[test]
    fn handles_tails_odd_positions_and_strides() {
        // patch 72 (8x9): nz at 1:8 is 9 -> chunked with tail.
        let ladder = [None, Some(Nm::ONE_OF_EIGHT)];
        let geom = ConvGeom::square(8, 3, 5, 3, 1, 1).unwrap();
        check(
            geom,
            cycle_patterns(geom.k, &ladder),
            ChannelEngine::Software,
        );
        let geom = ConvGeom::square(8, 3, 7, 3, 2, 1).unwrap();
        check(geom, cycle_patterns(geom.k, &ladder), ChannelEngine::Isa);
    }

    #[test]
    fn all_dense_equals_dense_1x2() {
        let geom = ConvGeom::square(16, 6, 6, 3, 1, 1).unwrap();
        let cluster = Cluster::new(8, CostModel::default());
        let conv = ConvJob {
            geom,
            requant: Requant::IDENTITY,
            bufs: Default::default(),
        };
        let mixed = ChannelConvJob::new(conv, vec![None; geom.k]);
        let a = conv_channel_mixed(
            &mut Ctx::Analytic,
            &mixed,
            &cluster,
            ChannelEngine::Software,
        )
        .unwrap();
        let b = conv_dense_1x2(&mut Ctx::Analytic, &conv, &cluster).unwrap();
        assert_eq!(a.cycles(), b.cycles());
        assert_eq!(a.cluster.total_instret(), b.cluster.total_instret());
        assert!((mixed.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_uniform_equals_uniform_kernels() {
        for nm in Nm::KERNEL_PATTERNS {
            let geom = ConvGeom::square(nm.m() * 2, 6, 6, 3, 1, 1).unwrap();
            let cluster = Cluster::new(8, CostModel::default());
            let conv = ConvJob {
                geom,
                requant: Requant::IDENTITY,
                bufs: Default::default(),
            };
            let mixed = ChannelConvJob::new(conv, vec![Some(nm); geom.k]);
            let sparse = SparseConvJob { conv, nm };
            let a = conv_channel_mixed(
                &mut Ctx::Analytic,
                &mixed,
                &cluster,
                ChannelEngine::Software,
            )
            .unwrap();
            let b = conv_sparse_sw(&mut Ctx::Analytic, &sparse, &cluster).unwrap();
            assert_eq!(a.cycles(), b.cycles(), "{nm} sw");
            let a = conv_channel_mixed(&mut Ctx::Analytic, &mixed, &cluster, ChannelEngine::Isa)
                .unwrap();
            let b = conv_sparse_isa(&mut Ctx::Analytic, &sparse, &cluster).unwrap();
            assert_eq!(a.cycles(), b.cycles(), "{nm} isa");
            assert!((mixed.density() - nm.density()).abs() < 1e-12);
        }
    }

    #[test]
    fn sparser_assignments_are_faster() {
        let geom = ConvGeom::square(32, 16, 8, 3, 1, 1).unwrap();
        let cluster = Cluster::new(8, CostModel::default());
        let conv = ConvJob {
            geom,
            requant: Requant::IDENTITY,
            bufs: Default::default(),
        };
        let run = |patterns: Vec<Option<Nm>>| {
            conv_channel_mixed(
                &mut Ctx::Analytic,
                &ChannelConvJob::new(conv, patterns),
                &cluster,
                ChannelEngine::Isa,
            )
            .unwrap()
            .cycles()
        };
        let dense = run(vec![None; geom.k]);
        let half = run(cycle_patterns(geom.k, &[None, Some(Nm::ONE_OF_EIGHT)]));
        let full = run(vec![Some(Nm::ONE_OF_EIGHT); geom.k]);
        assert!(full < half && half < dense, "{full} < {half} < {dense}");
    }

    #[test]
    fn rejects_wrong_pattern_count() {
        let geom = ConvGeom::square(16, 4, 4, 3, 1, 1).unwrap();
        let conv = ConvJob {
            geom,
            requant: Requant::IDENTITY,
            bufs: Default::default(),
        };
        let job = ChannelConvJob::new(conv, vec![None; 3]);
        let cluster = Cluster::new(1, CostModel::default());
        assert!(matches!(
            conv_channel_mixed(&mut Ctx::Analytic, &job, &cluster, ChannelEngine::Software),
            Err(Error::ShapeMismatch(_))
        ));
    }

    #[test]
    fn rejects_unsupported_pattern() {
        let geom = ConvGeom::square(16, 2, 4, 3, 1, 1).unwrap();
        let conv = ConvJob {
            geom,
            requant: Requant::IDENTITY,
            bufs: Default::default(),
        };
        let job = ChannelConvJob::new(conv, vec![None, Some(Nm::new(2, 4).unwrap())]);
        let cluster = Cluster::new(1, CostModel::default());
        assert!(matches!(
            conv_channel_mixed(&mut Ctx::Analytic, &job, &cluster, ChannelEngine::Software),
            Err(Error::Unsupported(_))
        ));
    }

    #[test]
    fn rejects_indivisible_patch() {
        // patch 27 (3x3x3) is not a multiple of 4.
        let geom = ConvGeom::square(3, 2, 4, 3, 1, 1).unwrap();
        let conv = ConvJob {
            geom,
            requant: Requant::IDENTITY,
            bufs: Default::default(),
        };
        let job = ChannelConvJob::new(conv, vec![None, Some(Nm::ONE_OF_FOUR)]);
        let cluster = Cluster::new(1, CostModel::default());
        assert!(matches!(
            conv_channel_mixed(&mut Ctx::Analytic, &job, &cluster, ChannelEngine::Software),
            Err(Error::ShapeMismatch(_))
        ));
    }
}
