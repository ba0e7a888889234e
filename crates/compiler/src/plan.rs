//! Layer planning: tile schedules, DMA accounting and end-to-end latency.

use crate::opcost::{attention_cycles, elementwise_cycles};
use crate::patterns::{select_kernel, KernelChoice, Target};
use crate::tiling::{
    tile_conv, tile_fc, weight_memory_bits, weight_tile_parts, ConvTiling, FcTiling,
};
use nm_core::quant::Requant;
use nm_core::{ConvGeom, Error, FcGeom, Result};
use nm_isa::CostModel;
use nm_kernels::conv::dense::{conv_dense_1x2, conv_dense_4x2};
use nm_kernels::conv::sparse_isa::conv_sparse_isa;
use nm_kernels::conv::sparse_sw::{conv_sparse_sw, SparseConvJob};
use nm_kernels::conv::ConvJob;
use nm_kernels::fc::dense::fc_dense;
use nm_kernels::fc::sparse_isa::fc_sparse_isa;
use nm_kernels::fc::sparse_sw::{fc_sparse_sw, SparseFcJob};
use nm_kernels::fc::FcJob;
use nm_kernels::{Ctx, ExecTier};
use nm_nn::graph::{Graph, NodeId, OpKind};
use nm_platform::pipeline::{double_buffered_cycles, TileCost};
use nm_platform::soc::L1_BYTES;
use nm_platform::Cluster;

/// Compilation options.
///
/// `PartialEq`/`Eq` compare every field — the serving layer's model
/// cache uses this to key prepared graphs by (model, format, options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Options {
    /// Target kernel library.
    pub target: Target,
    /// Interleave weight values and offsets in L2 so one DMA transaction
    /// fetches both (Sec. 4.4(3)); `false` issues two transactions.
    pub interleaved_weights: bool,
    /// L1 budget in bytes.
    pub l1_budget: usize,
    /// Cluster cores.
    pub cores: usize,
    /// Cycle-cost model.
    pub costs: CostModel,
    /// Execution tier for emulated tiles ([`ExecTier::Bulk`] is the
    /// default). `Reference` charges per instruction; `Bulk` charges
    /// batched blocks, bit- and cycle-exact with `Reference` and several
    /// times faster. Both tiers report cycles.
    pub tier: ExecTier,
    /// Host worker threads for the compiled executor's parallel tile
    /// execution ([`crate::prepack::PreparedGraph`]): `0` (the default)
    /// sizes to the host's available parallelism, `1` forces sequential
    /// execution. Tiles are independent — each owns its scratchpad and
    /// its cycle total is summed in schedule order — so every thread
    /// count produces identical outputs and statistics.
    pub host_threads: usize,
}

impl Options {
    /// Default options for a target on the Vega platform.
    pub fn new(target: Target) -> Self {
        Options {
            target,
            interleaved_weights: true,
            l1_budget: L1_BYTES,
            cores: 8,
            costs: CostModel::default(),
            tier: ExecTier::Bulk,
            host_threads: 0,
        }
    }

    /// The cluster implied by the options.
    ///
    /// # Panics
    /// Panics if `cores` is zero; [`compile`] and
    /// [`crate::prepack::PreparedGraph::prepare`] reject such options
    /// with [`Error::Unsupported`] before building a cluster.
    pub fn cluster(&self) -> Cluster {
        Cluster::new(self.cores, self.costs)
    }

    /// Rejects options no cluster can run, where options enter
    /// ([`compile`], [`crate::prepack::PreparedGraph::prepare`] and the
    /// entry points built on them).
    ///
    /// # Errors
    /// [`Error::Unsupported`] if `cores` is zero.
    pub(crate) fn check(&self) -> Result<()> {
        if self.cores == 0 {
            return Err(Error::Unsupported(
                "options ask for a cluster of 0 cores; at least one is needed".into(),
            ));
        }
        Ok(())
    }
}

/// One tile of a tiled convolution schedule.
#[derive(Debug, Clone, Copy)]
pub struct ConvTileSpec {
    /// The tile's kernel geometry (halo materialized, pad 0).
    pub geom: ConvGeom,
    /// First output channel of the tile.
    pub k0: usize,
    /// First output row of the tile.
    pub oy0: usize,
    /// Whether this is the first K-tile of its spatial tile.
    pub first_k: bool,
    /// Whether this is the first spatial tile.
    pub first_s: bool,
    /// Input tile bytes DMA'd from L2 (with halo).
    pub input_bytes: usize,
    /// Output tile bytes DMA'd back to L2.
    pub output_bytes: usize,
}

/// Enumerates the tile schedule of a convolution (spatial-major, K-minor,
/// matching the interleaved L2 layout).
pub fn conv_tile_specs(geom: &ConvGeom, t: &ConvTiling) -> Vec<ConvTileSpec> {
    let mut specs = Vec::new();
    let n_s = geom.oy().div_ceil(t.oy_tile);
    let n_k = geom.k.div_ceil(t.k_tile);
    for s in 0..n_s {
        let oy0 = s * t.oy_tile;
        let oy_t = t.oy_tile.min(geom.oy() - oy0);
        let tile_iy = (oy_t - 1) * geom.stride + geom.fy;
        let tile_ix = geom.ix + 2 * geom.pad;
        for ki in 0..n_k {
            let k0 = ki * t.k_tile;
            let k_t = t.k_tile.min(geom.k - k0);
            let tile_geom = ConvGeom {
                c: geom.c,
                k: k_t,
                ix: tile_ix,
                iy: tile_iy,
                fx: geom.fx,
                fy: geom.fy,
                stride: geom.stride,
                pad: 0,
            };
            specs.push(ConvTileSpec {
                geom: tile_geom,
                k0,
                oy0,
                first_k: ki == 0,
                first_s: s == 0,
                input_bytes: tile_iy * tile_ix * geom.c,
                output_bytes: oy_t * geom.ox() * k_t,
            });
        }
    }
    specs
}

/// One tile of a tiled fully-connected schedule (per `t` tokens).
#[derive(Debug, Clone, Copy)]
pub struct FcTileSpec {
    /// The tile's kernel geometry.
    pub geom: FcGeom,
    /// First output channel of the tile.
    pub k0: usize,
    /// Whether this is the first tile (inputs DMA'd here).
    pub first: bool,
}

/// Enumerates the K-tile schedule of a fully-connected layer.
pub fn fc_tile_specs(geom: &FcGeom, t: &FcTiling) -> Vec<FcTileSpec> {
    let n_k = geom.k.div_ceil(t.k_tile);
    (0..n_k)
        .map(|ki| {
            let k0 = ki * t.k_tile;
            let k_t = t.k_tile.min(geom.k - k0);
            FcTileSpec {
                geom: FcGeom { c: geom.c, k: k_t },
                k0,
                first: ki == 0,
            }
        })
        .collect()
}

/// Analytic compute cycles of one conv tile under a kernel choice.
pub fn conv_tile_compute(choice: &KernelChoice, geom: &ConvGeom, cluster: &Cluster) -> Result<u64> {
    let job = ConvJob {
        geom: *geom,
        requant: Requant::IDENTITY,
        bufs: Default::default(),
    };
    let stats = match choice {
        KernelChoice::ConvDense1x2 => conv_dense_1x2(&mut Ctx::Analytic, &job, cluster)?,
        KernelChoice::ConvDensePulpNn => conv_dense_4x2(&mut Ctx::Analytic, &job, cluster)?,
        KernelChoice::ConvSparseSw(nm) => conv_sparse_sw(
            &mut Ctx::Analytic,
            &SparseConvJob { conv: job, nm: *nm },
            cluster,
        )?,
        KernelChoice::ConvSparseIsa(nm) => conv_sparse_isa(
            &mut Ctx::Analytic,
            &SparseConvJob { conv: job, nm: *nm },
            cluster,
        )?,
        _ => unreachable!("conv tile with FC kernel"),
    };
    Ok(stats.cycles())
}

/// Analytic compute cycles of one FC tile under a kernel choice.
pub fn fc_tile_compute(choice: &KernelChoice, geom: &FcGeom, cluster: &Cluster) -> Result<u64> {
    let job = FcJob {
        geom: *geom,
        requant: Requant::IDENTITY,
        bufs: Default::default(),
    };
    let stats = match choice {
        KernelChoice::FcDense => fc_dense(&mut Ctx::Analytic, &job, cluster)?,
        KernelChoice::FcSparseSw(nm) => fc_sparse_sw(
            &mut Ctx::Analytic,
            &SparseFcJob { fc: job, nm: *nm },
            cluster,
        )?,
        KernelChoice::FcSparseIsa(nm) => fc_sparse_isa(
            &mut Ctx::Analytic,
            &SparseFcJob { fc: job, nm: *nm },
            cluster,
        )?,
        _ => unreachable!("fc tile with conv kernel"),
    };
    Ok(stats.cycles())
}

/// The plan and cost of one graph node.
#[derive(Debug, Clone)]
pub struct LayerPlan {
    /// The planned node.
    pub node: NodeId,
    /// Operator name.
    pub op_name: &'static str,
    /// Selected kernel, for Conv/Linear nodes.
    pub choice: Option<KernelChoice>,
    /// Total layer cycles (compute + exposed DMA, double-buffered).
    pub cycles: u64,
    /// Sum of tile compute cycles.
    pub compute_cycles: u64,
    /// Sum of DMA cycles (overlappable and not).
    pub dma_cycles: u64,
    /// Number of DMA transactions issued for weights+offsets.
    pub weight_dma_transactions: u64,
    /// Nominal L2 weight storage (paper bit accounting).
    pub weight_mem_bytes: usize,
    /// Dense-equivalent MACs.
    pub dense_macs: u64,
    /// Number of tiles in the schedule.
    pub n_tiles: usize,
}

/// The compiled model: per-layer plans plus totals.
#[derive(Debug, Clone)]
pub struct ModelReport {
    /// The target the model was compiled for.
    pub target: Target,
    /// Per-layer plans (Input node excluded).
    pub layers: Vec<LayerPlan>,
}

impl ModelReport {
    /// Total cycles.
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.cycles).sum()
    }

    /// Total weight memory in bytes (nominal).
    pub fn total_weight_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.weight_mem_bytes).sum()
    }

    /// Total dense-equivalent MACs.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.dense_macs).sum()
    }

    /// Dense-equivalent MACs per cycle — the Table 2 metric.
    pub fn macs_per_cycle(&self) -> f64 {
        self.total_macs() as f64 / self.total_cycles() as f64
    }
}

fn weight_dma(opts: &Options, choice: &KernelChoice, k_tile: usize, row_len: usize) -> (u64, u64) {
    let (v, o) = weight_tile_parts(choice, k_tile, row_len);
    if opts.interleaved_weights || o == 0 {
        (opts.costs.dma_cycles(v + o), 1)
    } else {
        (opts.costs.dma_cycles(v) + opts.costs.dma_cycles(o), 2)
    }
}

/// Plans one convolution layer with the tiling engine's choice.
pub fn plan_conv(
    node: NodeId,
    geom: &ConvGeom,
    choice: KernelChoice,
    opts: &Options,
) -> Result<LayerPlan> {
    let tiling = tile_conv(geom, &choice, opts.l1_budget, opts.cores)?;
    plan_conv_with_tiling(node, geom, choice, opts, tiling)
}

/// Builds the per-tile DMA/compute costs of a convolution schedule,
/// returning them with the weight-DMA transaction count. Shared by the
/// planner and the tile-level profiler ([`crate::profile`]).
///
/// # Errors
/// Propagates kernel validation failures.
pub fn conv_tile_costs(
    geom: &ConvGeom,
    choice: &KernelChoice,
    opts: &Options,
    tiling: &ConvTiling,
) -> Result<(Vec<TileCost>, u64)> {
    let cluster = opts.cluster();
    let specs = conv_tile_specs(geom, tiling);
    let n_k_tiles = geom.k.div_ceil(tiling.k_tile);
    let mut tiles = Vec::with_capacity(specs.len());
    let mut weight_txn = 0;
    for spec in &specs {
        let compute = conv_tile_compute(choice, &spec.geom, &cluster)?;
        let mut dma_in = 0;
        if spec.first_k {
            dma_in += opts.costs.dma_cycles(spec.input_bytes);
        }
        if n_k_tiles > 1 || spec.first_s {
            let (w_cycles, txn) = weight_dma(opts, choice, spec.geom.k, geom.patch_len());
            dma_in += w_cycles;
            weight_txn += txn;
        }
        let dma_out = opts.costs.dma_cycles(spec.output_bytes);
        tiles.push(TileCost {
            dma_in,
            compute,
            dma_out,
        });
    }
    Ok((tiles, weight_txn))
}

/// Plans one convolution layer with an explicit tiling (used by the
/// tiling-awareness ablation to force dense-bits tile sizes onto sparse
/// kernels).
pub fn plan_conv_with_tiling(
    node: NodeId,
    geom: &ConvGeom,
    choice: KernelChoice,
    opts: &Options,
    tiling: ConvTiling,
) -> Result<LayerPlan> {
    let (tiles, weight_txn) = conv_tile_costs(geom, &choice, opts, &tiling)?;
    Ok(LayerPlan {
        node,
        op_name: "conv2d",
        choice: Some(choice),
        cycles: double_buffered_cycles(&tiles),
        compute_cycles: tiles.iter().map(|t| t.compute).sum(),
        dma_cycles: tiles.iter().map(|t| t.dma_in + t.dma_out).sum(),
        weight_dma_transactions: weight_txn,
        weight_mem_bytes: weight_memory_bits(&choice, geom.k, geom.patch_len()).div_ceil(8),
        dense_macs: geom.macs() as u64,
        n_tiles: tiles.len(),
    })
}

/// Builds the per-tile DMA/compute costs of a fully-connected schedule
/// applied to `tokens` input rows, returning them with the weight-DMA
/// transaction count.
///
/// # Errors
/// Propagates kernel validation failures.
pub fn fc_tile_costs(
    geom: &FcGeom,
    tokens: usize,
    choice: &KernelChoice,
    opts: &Options,
    tiling: &FcTiling,
) -> Result<(Vec<TileCost>, u64)> {
    let cluster = opts.cluster();
    let specs = fc_tile_specs(geom, tiling);
    let mut tiles = Vec::with_capacity(specs.len());
    let mut weight_txn = 0;
    for spec in &specs {
        let compute = tokens as u64 * fc_tile_compute(choice, &spec.geom, &cluster)?;
        let (w_cycles, txn) = weight_dma(opts, choice, spec.geom.k, geom.c);
        let mut dma_in = w_cycles;
        weight_txn += txn;
        if spec.first {
            dma_in += opts.costs.dma_cycles(tokens * geom.c);
        }
        let dma_out = opts.costs.dma_cycles(tokens * spec.geom.k);
        tiles.push(TileCost {
            dma_in,
            compute,
            dma_out,
        });
    }
    Ok((tiles, weight_txn))
}

/// Plans one linear layer applied to `tokens` rows.
pub fn plan_fc(
    node: NodeId,
    geom: &FcGeom,
    tokens: usize,
    choice: KernelChoice,
    opts: &Options,
) -> Result<LayerPlan> {
    let tiling = tile_fc(geom, &choice, opts.l1_budget)?;
    let (tiles, weight_txn) = fc_tile_costs(geom, tokens, &choice, opts, &tiling)?;
    Ok(LayerPlan {
        node,
        op_name: "linear",
        choice: Some(choice),
        cycles: double_buffered_cycles(&tiles),
        compute_cycles: tiles.iter().map(|t| t.compute).sum(),
        dma_cycles: tiles.iter().map(|t| t.dma_in + t.dma_out).sum(),
        weight_dma_transactions: weight_txn,
        weight_mem_bytes: weight_memory_bits(&choice, geom.k, geom.c).div_ceil(8),
        dense_macs: (tokens * geom.macs()) as u64,
        n_tiles: tiles.len(),
    })
}

/// Compiles a graph: selects kernels, tiles layers, and assembles the
/// model latency/memory report.
///
/// # Errors
/// [`Error::Unsupported`] for options with zero cores; propagates tiling
/// failures (a layer that cannot fit L1 even at the smallest tile) and
/// kernel validation errors.
pub fn compile(graph: &Graph, opts: &Options) -> Result<ModelReport> {
    opts.check()?;
    let cluster = opts.cluster();
    let mut layers = Vec::new();
    for (id, node) in graph.nodes().iter().enumerate() {
        let plan = match &node.op {
            OpKind::Input => continue,
            OpKind::Conv2d(l) => {
                let choice = select_kernel(opts.target, &node.op).expect("conv has a kernel");
                plan_conv(id, &l.geom, choice, opts)?
            }
            OpKind::Linear(l) => {
                let tokens = if node.out_shape.len() == 2 {
                    node.out_shape[0]
                } else {
                    1
                };
                let choice = select_kernel(opts.target, &node.op).expect("linear has a kernel");
                plan_fc(id, &l.geom, tokens, choice, opts)?
            }
            OpKind::Attention(a) => {
                let t = node.out_shape[0];
                let act_bytes = t * a.dim;
                LayerPlan {
                    node: id,
                    op_name: "attention",
                    choice: None,
                    cycles: attention_cycles(a, t, &cluster) + opts.costs.dma_cycles(2 * act_bytes),
                    compute_cycles: attention_cycles(a, t, &cluster),
                    dma_cycles: opts.costs.dma_cycles(2 * act_bytes),
                    weight_dma_transactions: 1,
                    weight_mem_bytes: a.qkv.weights.len() + a.proj.weights.len(),
                    dense_macs: a.macs(t) as u64,
                    n_tiles: 1,
                }
            }
            op => {
                let in_elems: usize = graph.node(node.inputs[0]).out_shape.iter().product();
                let out_elems: usize = node.out_shape.iter().product();
                let compute =
                    elementwise_cycles(op, in_elems, out_elems, &cluster).expect("element-wise op");
                let dma = opts.costs.dma_cycles(in_elems) + opts.costs.dma_cycles(out_elems);
                LayerPlan {
                    node: id,
                    op_name: op.name(),
                    choice: None,
                    cycles: compute + dma,
                    compute_cycles: compute,
                    dma_cycles: dma,
                    weight_dma_transactions: 0,
                    weight_mem_bytes: 0,
                    dense_macs: 0,
                    n_tiles: 1,
                }
            }
        };
        layers.push(plan);
    }
    Ok(ModelReport {
        target: opts.target,
        layers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_core::sparsity::{prune_magnitude, Nm};
    use nm_nn::graph::GraphBuilder;
    use nm_nn::layer::{ConvLayer, LinearLayer};
    use nm_nn::rng::XorShift;

    fn toy_graph(nm: Option<Nm>) -> Graph {
        let mut rng = XorShift::new(17);
        let geom = ConvGeom::square(32, 16, 8, 3, 1, 1).unwrap();
        let mut w = rng.fill_weights(geom.weight_elems(), 30);
        if let Some(nm) = nm {
            prune_magnitude(&mut w, geom.k, geom.patch_len(), nm).unwrap();
            // keep the pattern tight (avoid accidental higher sparsity)
            for r in 0..geom.k {
                let row = &mut w[r * geom.patch_len()..(r + 1) * geom.patch_len()];
                for b in row.chunks_mut(nm.m()) {
                    if b.iter().all(|&v| v == 0) {
                        b[0] = 1;
                    }
                }
            }
        }
        let conv = ConvLayer::new(geom, w, Requant::IDENTITY).unwrap();
        let mut wfc = rng.fill_weights(16 * 32, 30);
        if let Some(nm) = nm {
            prune_magnitude(&mut wfc, 32, 16, nm).unwrap();
            for r in 0..32 {
                let row = &mut wfc[r * 16..(r + 1) * 16];
                for b in row.chunks_mut(nm.m()) {
                    if b.iter().all(|&v| v == 0) {
                        b[0] = 1;
                    }
                }
            }
        }
        let fc = LinearLayer::new(FcGeom::new(16, 32).unwrap(), wfc, Requant::IDENTITY).unwrap();
        let mut b = GraphBuilder::new(&[8, 8, 32]);
        let x = b.conv(b.input(), conv).unwrap();
        let x = b.relu(x).unwrap();
        let x = b.global_avg_pool(x).unwrap();
        let x = b.linear(x, fc).unwrap();
        b.finish(x).unwrap()
    }

    #[test]
    fn compile_produces_plans_for_all_layers() {
        let g = toy_graph(None);
        let report = compile(&g, &Options::new(Target::DensePulpNn)).unwrap();
        assert_eq!(report.layers.len(), g.nodes().len() - 1);
        assert!(report.total_cycles() > 0);
        assert!(report.macs_per_cycle() > 0.0);
    }

    #[test]
    fn sparse_targets_beat_dense_on_sparse_models() {
        let nm = Nm::ONE_OF_SIXTEEN;
        let g = toy_graph(Some(nm));
        let dense = compile(&g, &Options::new(Target::Dense1x2)).unwrap();
        let sw = compile(&g, &Options::new(Target::SparseSw)).unwrap();
        let isa = compile(&g, &Options::new(Target::SparseIsa)).unwrap();
        assert!(sw.total_cycles() < dense.total_cycles());
        assert!(isa.total_cycles() < sw.total_cycles());
        assert!(isa.total_weight_bytes() < dense.total_weight_bytes());
    }

    #[test]
    fn interleaved_layout_halves_weight_transactions() {
        let nm = Nm::ONE_OF_EIGHT;
        let g = toy_graph(Some(nm));
        let mut opts = Options::new(Target::SparseIsa);
        let inter = compile(&g, &opts).unwrap();
        opts.interleaved_weights = false;
        let split = compile(&g, &opts).unwrap();
        let t_inter: u64 = inter.layers.iter().map(|l| l.weight_dma_transactions).sum();
        let t_split: u64 = split.layers.iter().map(|l| l.weight_dma_transactions).sum();
        assert_eq!(t_split, 2 * t_inter);
        assert!(split.total_cycles() >= inter.total_cycles());
    }

    #[test]
    fn tile_specs_cover_the_iteration_space() {
        let geom = ConvGeom::square(16, 24, 10, 3, 1, 1).unwrap();
        let tiling = ConvTiling {
            oy_tile: 4,
            k_tile: 16,
            l1_bytes: 0,
        };
        let specs = conv_tile_specs(&geom, &tiling);
        let mut outputs = 0usize;
        for s in &specs {
            outputs += s.geom.oy() * s.geom.ox() * s.geom.k;
            assert!(s.geom.oy() <= 4);
        }
        assert_eq!(outputs, geom.output_elems());
    }
}
