//! FC token-sweep parity: a multi-token FC tile runs its tokens through
//! the token-inner sweep (a short remainder through per-token compute
//! passes), every token sharing the tile's one analytic pass for its
//! statistics. Every token's output and statistics must equal
//! that token staged and run alone on the reference tier — for the
//! dense, software-N:M and `xDecimate` kernels at every kernel pattern,
//! at token counts on both sides of every sweep-chunk edge (1, 2, 5, 7,
//! 8, 9, 13, 16, 17: a lone token, remainders below and above
//! `SWEEP_MIN`, exact chunks), directly at the kernel layer and through
//! the compiled executor with K-tiled layers and 1 or 3 host threads.
//! The kernel layer also covers output widths K of 2, 6, 10, 12 and 16,
//! so channels fall before, at and past the multiples of 8 the sweep's
//! requantize epilogue stores as one block. Inputs include rows pinned
//! at -128 and 127, so the sweep's `i16` lanes and wrapping sums are
//! exercised at their extremes.

use nm_compiler::patterns::select_kernel;
use nm_compiler::tiling::tile_fc;
use nm_compiler::{Options, PreparedGraph, Target};
use nm_core::format::{NmMatrix, OffsetLayout};
use nm_core::quant::Requant;
use nm_core::sparsity::Nm;
use nm_core::{FcGeom, Tensor};
use nm_integration::{make_exact_nm, random_i8};
use nm_isa::{CostModel, Memory};
use nm_kernels::fc::dense::{fc_dense, fc_dense_batch};
use nm_kernels::fc::sparse_isa::{fc_sparse_isa, fc_sparse_isa_batch};
use nm_kernels::fc::sparse_sw::{fc_sparse_sw, fc_sparse_sw_batch, SparseFcJob};
use nm_kernels::fc::FcJob;
use nm_kernels::layout::{stage_fc_dense, stage_fc_sparse, FcBufs};
use nm_kernels::{BatchRun, Ctx, ExecTier, KernelStats};
use nm_nn::graph::GraphBuilder;
use nm_nn::layer::LinearLayer;
use nm_platform::{Cluster, Scratchpad};

const TOKEN_COUNTS: [usize; 9] = [1, 2, 5, 7, 8, 9, 13, 16, 17];

#[derive(Debug, Clone, Copy)]
enum Kind {
    Dense,
    Sw(Nm),
    Isa(Nm),
}

fn kinds() -> Vec<Kind> {
    let mut all = vec![Kind::Dense];
    for nm in Nm::KERNEL_PATTERNS {
        all.push(Kind::Sw(nm));
        all.push(Kind::Isa(nm));
    }
    all
}

/// `n` tokens of `c` inputs; every third token has its first inputs
/// pinned to the int8 extremes.
fn tokens(n: usize, c: usize, seed: u64) -> Vec<Vec<i8>> {
    (0..n)
        .map(|t| {
            let mut x = random_i8(c, seed + t as u64);
            if t % 3 == 1 {
                for (i, v) in x.iter_mut().take(c / 2).enumerate() {
                    *v = if i % 2 == 0 { i8::MIN } else { i8::MAX };
                }
            }
            x
        })
        .collect()
}

/// One FC tile of `kind`: dense weights (N:M-exact for the sparse kinds)
/// and their packed form.
struct Tile {
    kind: Kind,
    geom: FcGeom,
    dense: Vec<i8>,
    packed: Option<NmMatrix>,
    requant: Requant,
}

impl Tile {
    fn new(kind: Kind, geom: FcGeom, seed: u64) -> Tile {
        let mut dense = random_i8(geom.weight_elems(), seed);
        // Extreme weights too: the largest products in every lane.
        dense[0] = i8::MIN;
        dense[1] = i8::MAX;
        let packed = match kind {
            Kind::Dense => None,
            Kind::Sw(nm) | Kind::Isa(nm) => {
                make_exact_nm(&mut dense, geom.k, geom.c, nm);
                let layout = match kind {
                    Kind::Isa(_) => OffsetLayout::Interleaved,
                    _ => OffsetLayout::Plain,
                };
                Some(NmMatrix::from_dense(&dense, geom.k, geom.c, nm, layout).unwrap())
            }
        };
        Tile {
            kind,
            geom,
            dense,
            packed,
            requant: Requant::new(3, 6).unwrap(),
        }
    }

    fn stage(&self, mem: &mut Scratchpad, x: &[i8]) -> FcBufs {
        match &self.packed {
            None => stage_fc_dense(mem, &self.geom, x, &self.dense).unwrap(),
            Some(w) => stage_fc_sparse(mem, &self.geom, x, w).unwrap(),
        }
    }

    fn job(&self, bufs: FcBufs) -> FcJob {
        FcJob {
            geom: self.geom,
            requant: self.requant,
            bufs,
        }
    }

    fn sparse(&self, bufs: FcBufs, nm: Nm) -> SparseFcJob {
        SparseFcJob {
            fc: self.job(bufs),
            nm,
        }
    }

    fn run_one(&self, ctx: &mut Ctx<'_>, bufs: FcBufs, cluster: &Cluster) -> KernelStats {
        match self.kind {
            Kind::Dense => fc_dense(ctx, &self.job(bufs), cluster),
            Kind::Sw(nm) => fc_sparse_sw(ctx, &self.sparse(bufs, nm), cluster),
            Kind::Isa(nm) => fc_sparse_isa(ctx, &self.sparse(bufs, nm), cluster),
        }
        .unwrap()
    }

    fn run_batch(
        &self,
        ctx: &mut Ctx<'_>,
        bufs: FcBufs,
        cluster: &Cluster,
        xs: &[&[i8]],
    ) -> BatchRun {
        match self.kind {
            Kind::Dense => fc_dense_batch(ctx, &self.job(bufs), cluster, xs),
            Kind::Sw(nm) => fc_sparse_sw_batch(ctx, &self.sparse(bufs, nm), cluster, xs),
            Kind::Isa(nm) => fc_sparse_isa_batch(ctx, &self.sparse(bufs, nm), cluster, xs),
        }
        .unwrap()
    }
}

#[test]
fn kernel_token_sweep_matches_per_token_reference() {
    let cluster = Cluster::new(8, CostModel::default());
    // C = 48 gives 1:16 an odd non-zero count (3); C = 128 a long walk.
    for (c, k) in [(48, 10), (128, 6), (32, 2), (32, 12), (48, 16)] {
        let geom = FcGeom::new(c, k).unwrap();
        for kind in kinds() {
            let tile = Tile::new(kind, geom, 101 + c as u64);
            let all = tokens(*TOKEN_COUNTS.iter().max().unwrap(), c, 7);
            // The oracle: each token staged alone on the reference tier.
            let oracle: Vec<(Vec<u8>, KernelStats)> = all
                .iter()
                .map(|x| {
                    let mut mem = Scratchpad::new("l1", 64 * 1024);
                    let bufs = tile.stage(&mut mem, x);
                    let stats = tile.run_one(&mut Ctx::Mem(&mut mem), bufs, &cluster);
                    (mem.slice(bufs.output, k).unwrap().to_vec(), stats)
                })
                .collect();
            for tier in [ExecTier::Reference, ExecTier::Bulk] {
                for n in TOKEN_COUNTS {
                    let xs: Vec<&[i8]> = all[..n].iter().map(Vec::as_slice).collect();
                    let mut mem = Scratchpad::new("l1", 64 * 1024);
                    let bufs = tile.stage(&mut mem, xs[0]);
                    let run = tile.run_batch(&mut Ctx::tiered(tier, &mut mem), bufs, &cluster, &xs);
                    let label = format!("{kind:?} {c}x{k} {tier:?} T={n}");
                    assert_eq!(run.stats.len(), n, "{label}");
                    for (t, (out, stats)) in oracle[..n].iter().enumerate() {
                        assert_eq!(&run.outputs[t * k..(t + 1) * k], out, "{label} token {t}");
                        assert_eq!(*run.stats[t], *stats, "{label} token {t} stats");
                    }
                }
            }
        }
    }
}

#[test]
fn token_sweep_rejects_a_token_of_the_wrong_length() {
    let cluster = Cluster::new(2, CostModel::default());
    let tile = Tile::new(Kind::Sw(Nm::ONE_OF_EIGHT), FcGeom::new(32, 4).unwrap(), 3);
    let good = random_i8(32, 5);
    let short = random_i8(31, 6);
    let mut mem = Scratchpad::new("l1", 16 * 1024);
    let bufs = tile.stage(&mut mem, &good);
    let job = tile.sparse(bufs, Nm::ONE_OF_EIGHT);
    let xs: Vec<&[i8]> = vec![&good, &good, &short];
    assert!(matches!(
        fc_sparse_sw_batch(&mut Ctx::MemBulk(&mut mem), &job, &cluster, &xs),
        Err(nm_core::Error::ShapeMismatch(_))
    ));
}

/// A graph holding one Linear of `tile`'s weights over `shape`.
fn linear_graph(tile: &Tile, shape: &[usize]) -> nm_nn::graph::Graph {
    let layer = LinearLayer::new(tile.geom, tile.dense.clone(), tile.requant).unwrap();
    let mut b = GraphBuilder::new(shape);
    let out = b.linear(b.input(), layer).unwrap();
    b.finish(out).unwrap()
}

#[test]
fn prepared_token_sweep_matches_per_token_reference() {
    let (c, k) = (64, 24);
    let geom = FcGeom::new(c, k).unwrap();
    for kind in kinds() {
        let tile = Tile::new(kind, geom, 211);
        let target = match kind {
            Kind::Dense => Target::DensePulpNn,
            Kind::Sw(_) => Target::SparseSw,
            Kind::Isa(_) => Target::SparseIsa,
        };
        let single = linear_graph(&tile, &[c]);
        let mut opts = Options::new(target);
        // One byte short of the untiled layer: K splits into tiles.
        let choice = select_kernel(target, &single.node(1).op).unwrap();
        opts.l1_budget = tile_fc(&geom, &choice, usize::MAX).unwrap().l1_bytes - 1;
        let all = tokens(*TOKEN_COUNTS.iter().max().unwrap(), c, 31);
        // The oracle: each token alone, as a `[C]` input, on the
        // reference tier.
        let reference = PreparedGraph::prepare(
            &single,
            &Options {
                tier: ExecTier::Reference,
                host_threads: 1,
                ..opts
            },
        )
        .unwrap();
        assert!(
            nm_compiler::compile(&single, &opts).unwrap().layers[0].n_tiles > 1,
            "{kind:?}: the layer must be K-tiled"
        );
        let oracle: Vec<_> = all
            .iter()
            .map(|x| {
                reference
                    .run(&Tensor::from_vec(&[c], x.clone()).unwrap())
                    .unwrap()
            })
            .collect();
        for n in TOKEN_COUNTS {
            let g = linear_graph(&tile, &[n, c]);
            let input = Tensor::from_vec(&[n, c], all[..n].concat()).unwrap();
            for host_threads in [1, 3] {
                let prepared = PreparedGraph::prepare(
                    &g,
                    &Options {
                        host_threads,
                        ..opts
                    },
                )
                .unwrap();
                let run = prepared.run(&input).unwrap();
                let label = format!("{kind:?} T={n} threads={host_threads}");
                for (t, want) in oracle[..n].iter().enumerate() {
                    assert_eq!(
                        &run.output.data()[t * k..(t + 1) * k],
                        want.output.data(),
                        "{label} token {t}"
                    );
                }
                let cycles: u64 = oracle[..n].iter().map(|r| r.matmul_compute_cycles).sum();
                assert_eq!(run.matmul_compute_cycles, cycles, "{label} cycles");
            }
        }
    }
}
