//! Per-channel variable-sparsity fully-connected kernel (paper future
//! work, the FC counterpart of
//! [`crate::conv::per_channel::conv_channel_mixed`]).
//!
//! Each output neuron carries its own pattern: dense channels run the
//! dense inner loop, N:M channels the software decimation loop. Two
//! *adjacent* dense channels still pair into the 1×2 dense unrolling —
//! their rows are contiguous in the per-channel format — so an all-dense
//! assignment is cycle-identical to [`crate::fc::dense::fc_dense`].
//!
//! Only the software engine is offered here: the `xDecimate` FC kernel
//! interleaves the offsets of a channel *pair* into one stream (Fig. 6),
//! which requires both channels of the pair to share a pattern — with
//! free per-channel patterns that guarantee disappears. A deployment
//! wanting ISA-speed FC layers should group same-pattern channels into
//! pairs offline instead (the compiler's per-layer `mixed` assignment
//! covers that case).

use super::dense::channels as dense_channels;
use super::sparse_sw::{channel as sparse_channel, SparseFcJob};
use super::{run_fc, FcJob};
use crate::stats::{Ctx, KernelStats};
use nm_core::sparsity::Nm;
use nm_core::{Error, Result};
use nm_platform::{chunk_range, Cluster};

/// A per-channel mixed-sparsity FC job.
///
/// `row_values[k]` / `row_offsets[k]` address channel `k`'s weight
/// payload and packed offset segment in L1; both may be empty in
/// analytic mode.
#[derive(Debug, Clone)]
pub struct ChannelFcJob {
    /// Geometry, requantization and shared buffers.
    pub fc: FcJob,
    /// Pattern per output channel (`None` = dense), length `K`.
    pub patterns: Vec<Option<Nm>>,
    /// Per-channel weight payload address (emulation only).
    pub row_values: Vec<u32>,
    /// Per-channel offset segment address (emulation only).
    pub row_offsets: Vec<u32>,
}

impl ChannelFcJob {
    /// Creates an analytic-mode job (no L1 addresses).
    pub fn new(fc: FcJob, patterns: Vec<Option<Nm>>) -> Self {
        ChannelFcJob {
            fc,
            patterns,
            row_values: Vec::new(),
            row_offsets: Vec::new(),
        }
    }

    fn validate(&self) -> Result<()> {
        let geom = &self.fc.geom;
        if self.patterns.len() != geom.k {
            return Err(Error::ShapeMismatch(format!(
                "{} channel patterns for K={}",
                self.patterns.len(),
                geom.k
            )));
        }
        for (k, &p) in self.patterns.iter().enumerate() {
            let Some(nm) = p else { continue };
            if !nm.is_kernel_supported() {
                return Err(Error::Unsupported(format!(
                    "channel {k}: kernel library implements 1:4, 1:8, 1:16; got {nm}"
                )));
            }
            if !geom.c.is_multiple_of(nm.m()) {
                return Err(Error::ShapeMismatch(format!(
                    "channel {k}: input features {} not a multiple of M={}",
                    geom.c,
                    nm.m()
                )));
            }
        }
        Ok(())
    }

    fn row_addr(&self, k: usize) -> (u32, u32) {
        (
            self.row_values.get(k).copied().unwrap_or(0),
            self.row_offsets.get(k).copied().unwrap_or(0),
        )
    }
}

/// Runs the per-channel mixed-sparsity FC kernel (software engine;
/// offsets in [`nm_core::format::OffsetLayout::Plain`] — see
/// [`crate::layout::stage_fc_channelwise`]).
///
/// # Errors
/// [`Error::ShapeMismatch`] if the pattern table length differs from `K`
/// or some pattern's M does not divide `C`; [`Error::Unsupported`] for
/// patterns outside {1:4, 1:8, 1:16}.
pub fn fc_channel_mixed(
    ctx: &mut Ctx<'_>,
    job: &ChannelFcJob,
    cluster: &Cluster,
) -> Result<KernelStats> {
    job.validate()?;
    let geom = job.fc.geom;
    Ok(run_fc(
        "fc-channel-mixed-sw".into(),
        &geom,
        cluster,
        |core_id, core| {
            let range = chunk_range(geom.k, cluster.n_cores(), core_id);
            let mut k = range.start;
            while k < range.end {
                match job.patterns[k] {
                    None => {
                        // Pair adjacent dense channels: their rows are
                        // contiguous, so the 1x2 dense loop applies.
                        let nk = if k + 1 < range.end && job.patterns[k + 1].is_none() {
                            2
                        } else {
                            1
                        };
                        core.outer_loop_iter();
                        core.alu_n(2);
                        core.hwloop_setup();
                        let (wrow, _) = job.row_addr(k);
                        dense_channels(core, ctx, &job.fc, k, wrow, nk);
                        k += nk;
                    }
                    Some(nm) => {
                        core.outer_loop_iter();
                        core.alu_n(3);
                        core.hwloop_setup();
                        let (wrow, seg) = job.row_addr(k);
                        let sparse = SparseFcJob { fc: job.fc, nm };
                        sparse_channel(core, ctx, &sparse, k, wrow, seg);
                        k += 1;
                    }
                }
            }
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fc::dense::fc_dense;
    use crate::fc::sparse_sw::fc_sparse_sw;
    use crate::layout::stage_fc_channelwise;
    use crate::reference::fc_ref;
    use nm_core::format::{ChannelNmMatrix, OffsetLayout};
    use nm_core::quant::Requant;
    use nm_core::FcGeom;
    use nm_isa::{CostModel, Memory};
    use nm_platform::Scratchpad;

    use crate::testdata::random_data;

    fn cycle_patterns(k: usize, ladder: &[Option<Nm>]) -> Vec<Option<Nm>> {
        (0..k).map(|i| ladder[i % ladder.len()]).collect()
    }

    fn check(geom: FcGeom, patterns: Vec<Option<Nm>>) {
        let input = random_data(geom.c, 13);
        let dense = random_data(geom.weight_elems(), 29);
        let w = ChannelNmMatrix::prune_from_dense(
            &dense,
            geom.k,
            geom.c,
            &patterns,
            OffsetLayout::Plain,
        )
        .unwrap();
        let pruned = w.to_dense();
        let rq = Requant::for_dot_len(geom.c / 8);
        let cluster = Cluster::new(4, CostModel::default());
        let mut l1 = Scratchpad::new("l1", 256 * 1024);
        let (bufs, row_values, row_offsets) =
            stage_fc_channelwise(&mut l1, &geom, &input, &w).unwrap();
        let job = ChannelFcJob {
            fc: FcJob {
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
            fc_channel_mixed(&mut ctx, &job, &cluster).unwrap()
        };
        let got: Vec<i8> = (0..geom.k as u32)
            .map(|i| l1.load_i8(bufs.output + i))
            .collect();
        assert_eq!(got, fc_ref(&geom, &input, &pruned, rq), "{geom:?}");

        let analytic = fc_channel_mixed(&mut Ctx::Analytic, &job, &cluster).unwrap();
        assert_eq!(stats.cycles(), analytic.cycles(), "{geom:?} cycles");
        assert_eq!(
            stats.cluster.total_instret(),
            analytic.cluster.total_instret()
        );
    }

    #[test]
    fn mixed_rows_match_reference() {
        let ladder = [
            None,
            Some(Nm::ONE_OF_FOUR),
            None,
            Some(Nm::ONE_OF_EIGHT),
            Some(Nm::ONE_OF_SIXTEEN),
        ];
        check(FcGeom::new(64, 10).unwrap(), cycle_patterns(10, &ladder));
        // Tails: c = 80 gives nz with remainders at every pattern.
        check(FcGeom::new(80, 7).unwrap(), cycle_patterns(7, &ladder));
    }

    #[test]
    fn all_dense_equals_dense_kernel() {
        let geom = FcGeom::new(64, 11).unwrap(); // odd K exercises the 1-wide tail
        let cluster = Cluster::new(4, CostModel::default());
        let fc = FcJob {
            geom,
            requant: Requant::IDENTITY,
            bufs: Default::default(),
        };
        let mixed = ChannelFcJob::new(fc, vec![None; geom.k]);
        let a = fc_channel_mixed(&mut Ctx::Analytic, &mixed, &cluster).unwrap();
        let b = fc_dense(&mut Ctx::Analytic, &fc, &cluster).unwrap();
        assert_eq!(a.cycles(), b.cycles());
        assert_eq!(a.cluster.total_instret(), b.cluster.total_instret());
    }

    #[test]
    fn all_uniform_equals_uniform_sparse_kernel() {
        for nm in Nm::KERNEL_PATTERNS {
            let geom = FcGeom::new(nm.m() * 8, 9).unwrap();
            let cluster = Cluster::new(4, CostModel::default());
            let fc = FcJob {
                geom,
                requant: Requant::IDENTITY,
                bufs: Default::default(),
            };
            let mixed = ChannelFcJob::new(fc, vec![Some(nm); geom.k]);
            let a = fc_channel_mixed(&mut Ctx::Analytic, &mixed, &cluster).unwrap();
            let b = fc_sparse_sw(&mut Ctx::Analytic, &SparseFcJob { fc, nm }, &cluster).unwrap();
            assert_eq!(a.cycles(), b.cycles(), "{nm}");
        }
    }

    #[test]
    fn rejects_wrong_pattern_count_and_bad_shapes() {
        let geom = FcGeom::new(32, 4).unwrap();
        let fc = FcJob {
            geom,
            requant: Requant::IDENTITY,
            bufs: Default::default(),
        };
        let cluster = Cluster::new(1, CostModel::default());
        let short = ChannelFcJob::new(fc, vec![None; 3]);
        assert!(matches!(
            fc_channel_mixed(&mut Ctx::Analytic, &short, &cluster),
            Err(Error::ShapeMismatch(_))
        ));
        let geom = FcGeom::new(12, 2).unwrap(); // 12 % 8 != 0
        let fc = FcJob {
            geom,
            requant: Requant::IDENTITY,
            bufs: Default::default(),
        };
        let bad = ChannelFcJob::new(fc, vec![None, Some(Nm::ONE_OF_EIGHT)]);
        assert!(matches!(
            fc_channel_mixed(&mut Ctx::Analytic, &bad, &cluster),
            Err(Error::ShapeMismatch(_))
        ));
    }
}
