//! Delta-compressed CSR (dCSR) sparse FC kernel — the executable
//! Trommer et al. 2021 comparator (related work, Sec. 3 / Table 3).
//!
//! The nibble-packed delta stream makes indices cheap to *store* but
//! expensive to *decode*: per non-zero the kernel pays an extract
//! (shift + mask), an escape test, a column accumulate, and — every
//! other non-zero — a stream byte fetch; escaped deltas pay five more
//! ALU operations. This is exactly the "large decoding overhead" the
//! paper cites when contrasting unstructured formats against N:M's
//! fixed-width offsets, reproduced here as a measurable baseline.

use super::super::fc::{run_fc, FcJob, EPILOGUE_ALU};
use crate::bulk::{dcsr_gather_dot, loop_scaffold, write_out};
use crate::stats::{Ctx, KernelStats};
use nm_core::format::DcsrMatrix;
use nm_core::{Error, Result};
use nm_isa::{CostModel, InstrBlock, InstrClass, Memory};
use nm_platform::{chunk_range, Cluster, Scratchpad};
use std::ops::Range;

/// L1 addresses for the dCSR kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct DcsrBufs {
    /// Input vector.
    pub input: u32,
    /// Non-zero weight values.
    pub values: u32,
    /// Nibble-packed delta stream.
    pub deltas: u32,
    /// Output vector.
    pub output: u32,
}

/// A dCSR sparse FC job.
#[derive(Debug, Clone)]
pub struct DcsrFcJob {
    /// Dense job description (geometry, requant; `bufs` unused).
    pub fc: FcJob,
    /// Per-row non-zero counts.
    pub row_nnz: Vec<usize>,
    /// Per-row escaped-delta counts.
    pub row_escapes: Vec<usize>,
    /// Per-row value start offsets (elements).
    pub value_starts: Vec<usize>,
    /// Per-row delta-segment byte starts.
    pub delta_starts: Vec<usize>,
    /// Buffers staged by [`stage_dcsr_fc`].
    pub bufs: DcsrBufs,
}

impl DcsrFcJob {
    /// Builds the job metadata from a packed matrix, with default
    /// (unstaged) buffers — enough for analytic runs; emulation requires
    /// the buffers from [`stage_dcsr_fc`].
    pub fn from_matrix(fc: FcJob, w: &DcsrMatrix) -> Self {
        DcsrFcJob {
            fc,
            row_nnz: (0..w.rows()).map(|k| w.row_nnz(k)).collect(),
            row_escapes: (0..w.rows()).map(|k| w.row_escapes(k)).collect(),
            value_starts: (0..w.rows()).map(|k| w.value_start(k)).collect(),
            delta_starts: (0..w.rows()).map(|k| w.delta_start(k)).collect(),
            bufs: DcsrBufs::default(),
        }
    }
}

/// Stages a [`DcsrMatrix`] and input vector into L1.
///
/// # Errors
/// [`Error::ShapeMismatch`] on dimension disagreement;
/// [`Error::OutOfMemory`] if L1 is too small.
pub fn stage_dcsr_fc(
    l1: &mut Scratchpad,
    fc: &FcJob,
    input: &[i8],
    w: &DcsrMatrix,
) -> Result<DcsrFcJob> {
    if input.len() != fc.geom.c || w.rows() != fc.geom.k || w.cols() != fc.geom.c {
        return Err(Error::ShapeMismatch(
            "dCSR staging dimension mismatch".into(),
        ));
    }
    let bufs = DcsrBufs {
        input: l1.alloc(input.len(), 4)?,
        values: l1.alloc(w.values().len().max(1), 4)?,
        deltas: l1.alloc(w.deltas_bytes().len().max(1), 4)?,
        output: l1.alloc(fc.geom.k, 4)?,
    };
    for (i, &v) in input.iter().enumerate() {
        l1.store_i8(bufs.input + i as u32, v);
    }
    for (i, &v) in w.values().iter().enumerate() {
        l1.store_i8(bufs.values + i as u32, v);
    }
    l1.write_bytes(bufs.deltas, w.deltas_bytes());
    Ok(DcsrFcJob {
        bufs,
        ..DcsrFcJob::from_matrix(*fc, w)
    })
}

/// A stateful nibble reader over the staged delta stream, charging one
/// byte load per two nibbles consumed.
struct NibbleStream {
    base: u32,
    nibble: usize,
    byte: u8,
}

impl NibbleStream {
    fn new(base: u32) -> Self {
        NibbleStream {
            base,
            nibble: 0,
            byte: 0,
        }
    }

    fn next(&mut self, core: &mut nm_isa::Core, mem: &Scratchpad) -> u8 {
        if self.nibble.is_multiple_of(2) {
            self.byte = core.lb(mem, self.base + (self.nibble / 2) as u32) as u8;
        }
        let v = if self.nibble.is_multiple_of(2) {
            self.byte & 0xF
        } else {
            self.byte >> 4
        };
        self.nibble += 1;
        v
    }
}

/// Runs the dCSR FC kernel.
///
/// # Errors
/// [`Error::ShapeMismatch`] if the per-row metadata does not have K
/// entries.
pub fn fc_dcsr(ctx: &mut Ctx<'_>, job: &DcsrFcJob, cluster: &Cluster) -> Result<KernelStats> {
    let geom = job.fc.geom;
    if job.row_nnz.len() != geom.k || job.row_escapes.len() != geom.k {
        return Err(Error::ShapeMismatch(format!(
            "row metadata has {}/{} entries, K={}",
            job.row_nnz.len(),
            job.row_escapes.len(),
            geom.k
        )));
    }
    // One core's worth of dCSR rows on the bulk path: each row's nibble
    // stream decodes host-side from a zero-copy slice of its delta
    // segment. The per-row metadata already carries the exact
    // load/ALU/branch mix, so the analytic pass charges the whole range
    // as one aggregated block.
    fn core_body(mem: &mut Scratchpad, job: &DcsrFcJob, range: Range<usize>) {
        // As in the CSR/blockwise arms, the activation window
        // extends to the end of the scratchpad: a decoded column
        // past the logical input vector then reads the same
        // in-scratchpad byte the reference path's raw load would
        // (and past the scratchpad, both paths bus-error).
        let win = mem.size() - job.bufs.input as usize;
        let input = mem
            .slice(job.bufs.input, win)
            .expect("scratchpad is zero-copy");
        let outs: Vec<i8> = range
            .clone()
            .map(|k| {
                let (nnz, esc) = (job.row_nnz[k] as u64, job.row_escapes[k] as u64);
                let nibbles = nnz + 2 * esc;
                let values = mem
                    .slice(job.bufs.values + job.value_starts[k] as u32, nnz as usize)
                    .expect("scratchpad is zero-copy");
                let deltas = mem
                    .slice(
                        job.bufs.deltas + job.delta_starts[k] as u32,
                        nibbles.div_ceil(2) as usize,
                    )
                    .expect("scratchpad is zero-copy");
                job.fc
                    .requant
                    .apply(dcsr_gather_dot(values, deltas, esc as usize, input))
            })
            .collect();
        write_out(mem, job.bufs.output + range.start as u32, &outs);
    }

    let name = "fc-dcsr".to_string();
    Ok(run_fc(name, &geom, ctx, cluster, |core_id, core, ctx| {
        let range = chunk_range(geom.k, cluster.n_cores(), core_id);
        match ctx.path() {
            Ctx::MemBulk(mem) => core_body(mem, job, range),
            Ctx::Analytic => core.charge_block(&core_block(core.costs(), job, range)),
            Ctx::Mem(mem) => {
                for k in range {
                    core.outer_loop_iter();
                    core.alu_n(3);
                    core.hwloop_setup();
                    let nnz = job.row_nnz[k];
                    let mut stream =
                        NibbleStream::new(job.bufs.deltas + job.delta_starts[k] as u32);
                    let mut col: i64 = -1;
                    let mut acc = 0i32;
                    for i in 0..nnz {
                        core.alu_n(2); // nibble extract (shift + mask)
                        let field = stream.next(core, mem);
                        let d = if field == 0 {
                            core.branch(true); // escape path
                            core.alu_n(5); // two more extracts + combine
                            let lo = stream.next(core, mem);
                            let hi = stream.next(core, mem);
                            16 + i64::from(lo) + (i64::from(hi) << 4)
                        } else {
                            core.branch(false);
                            i64::from(field)
                        };
                        core.alu(); // col += d
                        col += d;
                        let a = core.lb(mem, job.bufs.input + col as u32);
                        let w = core.lb(mem, job.bufs.values + (job.value_starts[k] + i) as u32);
                        acc = core.mac(i32::from(w), i32::from(a), acc);
                    }
                    core.alu_n(EPILOGUE_ALU);
                    let out = job.fc.requant.apply(acc);
                    core.sb(mem, job.bufs.output + k as u32, out);
                }
            }
        }
    }))
}

/// The accounting block of one core's range of dCSR rows: the loop
/// scaffold and epilogue per row plus the decode and MAC work of every
/// non-zero (block charging is order-independent, so the ragged rows
/// simply sum).
fn core_block(costs: &CostModel, job: &DcsrFcJob, range: Range<usize>) -> InstrBlock {
    let (mut nnz, mut esc, mut stream_bytes) = (0u64, 0u64, 0u64);
    for k in range.clone() {
        let (n, e) = (job.row_nnz[k] as u64, job.row_escapes[k] as u64);
        nnz += n;
        esc += e;
        stream_bytes += (n + 2 * e).div_ceil(2);
    }
    loop_scaffold(costs, 3)
        .then(InstrBlock::new().alu(EPILOGUE_ALU).stores(1))
        .repeat(range.len() as u64)
        .then(
            InstrBlock::new()
                .loads(stream_bytes) // stream byte fetches
                .alu(3 * nnz + 5 * esc) // extracts + col accumulate
                .op(InstrClass::Branch, nnz - esc) // escape tests, not taken
                .branches_taken(esc) // escape paths
                .loads(2 * nnz) // activation + weight
                .mac(nnz),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::csr::{fc_csr, CsrFcJob};
    use crate::fc::sparse_sw::{fc_sparse_sw, SparseFcJob};
    use crate::reference::fc_ref;
    use crate::testdata::random_sparse_data;
    use nm_core::format::{CsrMatrix, NmMatrix, OffsetLayout};
    use nm_core::quant::Requant;
    use nm_core::sparsity::Nm;
    use nm_core::FcGeom;
    use nm_isa::CostModel;

    #[test]
    fn matches_reference_and_analytic() {
        for keep in [4, 10, 17] {
            let geom = FcGeom::new(96, 7).unwrap();
            let input: Vec<i8> = (0..96).map(|i| (i * 5 % 120) as i8 - 60).collect();
            let dense = random_sparse_data(geom.weight_elems(), keep, 31);
            let w = DcsrMatrix::from_dense(&dense, geom.k, geom.c).unwrap();
            let rq = Requant::for_dot_len(12);
            let fc = FcJob {
                geom,
                requant: rq,
                bufs: Default::default(),
            };
            let mut l1 = Scratchpad::new("l1", 64 * 1024);
            let job = stage_dcsr_fc(&mut l1, &fc, &input, &w).unwrap();
            let cluster = Cluster::new(4, CostModel::default());
            let stats = {
                let mut ctx = Ctx::Mem(&mut l1);
                fc_dcsr(&mut ctx, &job, &cluster).unwrap()
            };
            let got: Vec<i8> = (0..geom.k as u32)
                .map(|i| l1.load_i8(job.bufs.output + i))
                .collect();
            assert_eq!(got, fc_ref(&geom, &input, &dense, rq), "keep={keep}");

            let analytic = fc_dcsr(&mut Ctx::Analytic, &job, &cluster).unwrap();
            assert_eq!(stats.cycles(), analytic.cycles(), "keep={keep}");
            assert_eq!(
                stats.cluster.total_instret(),
                analytic.cluster.total_instret()
            );
        }
    }

    #[test]
    fn decode_overhead_loses_to_nm_at_iso_sparsity() {
        let geom = FcGeom::new(512, 64).unwrap();
        let nm = Nm::ONE_OF_EIGHT;
        let dense = random_sparse_data(geom.weight_elems(), nm.m(), 5);
        let cluster = Cluster::new(8, CostModel::default());
        let fc = FcJob {
            geom,
            requant: Requant::IDENTITY,
            bufs: Default::default(),
        };

        let d = DcsrMatrix::from_dense(&dense, geom.k, geom.c).unwrap();
        let job = DcsrFcJob::from_matrix(fc, &d);
        let dcsr_stats = fc_dcsr(&mut Ctx::Analytic, &job, &cluster).unwrap();

        let packed = NmMatrix::from_dense(&dense, geom.k, geom.c, nm, OffsetLayout::Plain).unwrap();
        let nm_stats = fc_sparse_sw(&mut Ctx::Analytic, &SparseFcJob { fc, nm }, &cluster).unwrap();
        assert!(
            nm_stats.cycles() < dcsr_stats.cycles(),
            "N:M {} vs dCSR {}",
            nm_stats.cycles(),
            dcsr_stats.cycles()
        );
        // ... but dCSR stores fewer index bytes than 16-bit CSR.
        let c = CsrMatrix::from_dense(&dense, geom.k, geom.c).unwrap();
        assert!(d.memory_bytes() < c.memory_bytes());
        let _ = packed;
    }

    #[test]
    fn dcsr_decodes_slower_than_plain_csr_but_stores_less() {
        let geom = FcGeom::new(512, 32).unwrap();
        let dense = random_sparse_data(geom.weight_elems(), 10, 41);
        let cluster = Cluster::new(8, CostModel::default());
        let fc = FcJob {
            geom,
            requant: Requant::IDENTITY,
            bufs: Default::default(),
        };

        let d = DcsrMatrix::from_dense(&dense, geom.k, geom.c).unwrap();
        let dj = DcsrFcJob::from_matrix(fc, &d);
        let c = CsrMatrix::from_dense(&dense, geom.k, geom.c).unwrap();
        let cj = CsrFcJob::from_matrix(fc, &c);
        let dcyc = fc_dcsr(&mut Ctx::Analytic, &dj, &cluster).unwrap().cycles();
        let ccyc = fc_csr(&mut Ctx::Analytic, &cj, &cluster).unwrap().cycles();
        assert!(dcyc > ccyc, "dcsr {dcyc} vs csr {ccyc}");
        assert!(d.memory_bytes() < c.memory_bytes());
    }

    #[test]
    fn rejects_bad_metadata() {
        let fc = FcJob {
            geom: FcGeom::new(16, 4).unwrap(),
            requant: Requant::IDENTITY,
            bufs: Default::default(),
        };
        let job = DcsrFcJob {
            fc,
            row_nnz: vec![1; 3],
            row_escapes: vec![0; 4],
            value_starts: vec![0; 4],
            delta_starts: vec![0; 4],
            bufs: Default::default(),
        };
        assert!(matches!(
            fc_dcsr(
                &mut Ctx::Analytic,
                &job,
                &Cluster::new(1, CostModel::default())
            ),
            Err(Error::ShapeMismatch(_))
        ));
    }
}
