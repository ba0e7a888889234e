//! Compile-once network executor: pack every tile's weights and
//! precompute its kernel program a single time, then run inference after
//! inference with zero packing work.
//!
//! [`crate::exec::run_emulated`] used to re-pack each Conv/Linear tile's
//! weights from dense on every invocation — and for multi-token FC
//! layers once per *token* — exactly the work a deployment flow does at
//! compile time. [`PreparedGraph`] performs that split: [`prepare`]
//! selects kernels, tiles layers, packs each tile into its target format
//! ([`NmMatrix`] values + offsets for the sparse kernels, dense row
//! ranges otherwise) and pre-decodes the conv kernels' decimation tables
//! ([`DecimProgram`]); [`run`] then executes the network on the
//! simulated cluster with only data movement per inference: bulk
//! row-wise staging and scatter, a reusable scratchpad arena
//! ([`Scratchpad::reset`] between tiles instead of a fresh allocation),
//! and parallel tile execution across host threads.
//!
//! Parallelism never changes results: tiles are independent (each owns a
//! scratchpad from the pool and writes a disjoint output region), their
//! emulated statistics are computed per tile exactly as in sequential
//! order, and the cycle total is a sum of per-tile `u64`s — associative
//! and commutative, so any schedule produces the identical
//! [`EmulatedRun`]. The parity tests pin prepared execution against
//! fresh [`crate::exec::run_emulated`] runs, the per-instruction
//! reference path and the analytic plan.
//!
//! Serving layers build on two extra entry points: [`prepare_shared`]
//! co-owns the graph through an [`Arc`] (no borrow lifetime, so one
//! prepared model is shared across worker threads), and [`run_batch`]
//! executes a batch of independent requests. [`run`] and [`run_batch`]
//! are one walk: the graph is visited layer-major over the call's B
//! requests (B = 1 for [`run`]), every Conv/Linear tile's packed
//! weights are staged **once per call** and all B requests sweep
//! through the held staging, and every other op runs per request.
//! [`batch_plan`] reports what that walk shares across a batch
//! ([`BatchPlan`]); it selects nothing. Every request's output and cycle
//! total stay bit-identical to a sequential [`run`] loop.
//!
//! [`prepare`]: PreparedGraph::prepare
//! [`run`]: PreparedGraph::run
//! [`prepare_shared`]: PreparedGraph::prepare_shared
//! [`run_batch`]: PreparedGraph::run_batch
//! [`batch_plan`]: PreparedGraph::batch_plan

use crate::exec::EmulatedRun;
use crate::patterns::{select_kernel, KernelChoice};
use crate::plan::{conv_tile_specs, fc_tile_specs, ConvTileSpec, FcTileSpec, Options};
use crate::tiling::{tile_conv, tile_fc};
use nm_core::format::NmMatrix;
use nm_core::{Error, Result, Tensor};
use nm_kernels::conv::dense::{conv_dense_1x2_batch, conv_dense_4x2_batch};
use nm_kernels::conv::sparse_isa::conv_sparse_isa_prepared_batch;
use nm_kernels::conv::sparse_sw::{conv_sparse_sw_prepared_batch, SparseConvJob};
use nm_kernels::conv::{ConvBatch, ConvJob, DecimProgram};
use nm_kernels::fc::dense::fc_dense_batch;
use nm_kernels::fc::sparse_isa::fc_sparse_isa_batch;
use nm_kernels::fc::sparse_sw::{fc_sparse_sw_batch, SparseFcJob};
use nm_kernels::fc::FcJob;
use nm_kernels::layout::{
    copy_bytes_to_i8, stage_conv_dense, stage_conv_sparse, stage_fc_dense, stage_fc_sparse,
};
use nm_nn::exec as nnexec;
use nm_nn::graph::{Graph, OpKind};
use nm_nn::layer::{ConvLayer, LinearLayer};
use nm_platform::{Scratchpad, ScratchpadPool};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A tile's weights in the exact form its kernel consumes.
#[derive(Debug)]
enum TileWeights {
    /// Dense rows: a range into the layer's weight vector (no packing
    /// needed, staged as-is).
    Dense(Range<usize>),
    /// N:M-packed values + offsets, with the conv kernels' pre-decoded
    /// decimation table when the bulk path will consume it.
    Sparse {
        weights: NmMatrix,
        program: Option<DecimProgram>,
    },
}

/// A convolution layer's compiled tile program.
#[derive(Debug)]
struct PreparedConv {
    choice: KernelChoice,
    specs: Vec<ConvTileSpec>,
    tiles: Vec<TileWeights>,
}

/// A linear layer's compiled tile program.
#[derive(Debug)]
struct PreparedFc {
    choice: KernelChoice,
    specs: Vec<FcTileSpec>,
    tiles: Vec<TileWeights>,
}

/// The per-node compiled artifact (None for non-matmul nodes).
#[derive(Debug)]
enum PreparedMatmul {
    Conv(PreparedConv),
    Fc(PreparedFc),
}

/// How a [`PreparedGraph`] holds its graph: borrowed for the classic
/// `prepare(&graph)` flow, reference-counted for serving layers that
/// need `'static` prepared models shared across worker threads
/// ([`PreparedGraph::prepare_shared`]).
#[derive(Debug)]
enum GraphRef<'g> {
    Borrowed(&'g Graph),
    Shared(Arc<Graph>),
}

impl GraphRef<'_> {
    fn get(&self) -> &Graph {
        match self {
            GraphRef::Borrowed(g) => g,
            GraphRef::Shared(g) => g,
        }
    }
}

/// What [`PreparedGraph::run_batch`] shares across a batch of
/// independent requests — the first-class answer to "will batching
/// share any work here, and if not, why not". It is a report, not a
/// switch: every batch runs the same layer-major walk.
///
/// The plan is a property of the prepared graph alone
/// ([`PreparedGraph::batch_plan`]); [`executed`](Self::executed)
/// additionally folds in the batch size, since a batch of one never
/// shares work regardless of the graph. Whatever the plan, request
/// `i`'s output and cycle total are bit-identical to `run(inputs[i])`
/// in a sequential loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPlan {
    /// No work is shared across the batch. `reason` says why the graph
    /// (or the batch size) forces this.
    Sequential {
        /// Human-readable explanation, surfaced by serving and bench
        /// summaries so a sequential batch is never silent.
        reason: &'static str,
    },
    /// The graph's matmuls are all Linear layers: the batch's tokens run
    /// through each Linear tile as one token stream, so its weights
    /// stage once per batch, not once per request.
    TokenCoalesced,
    /// The graph has Conv2d layers: each conv tile's packed weights (and
    /// pre-decoded decimation table) stage into the scratchpad once per
    /// batch and all B requests sweep through the held staging; Linear
    /// layers share staging as under [`TokenCoalesced`](Self::TokenCoalesced).
    ConvBatchMajor,
}

impl BatchPlan {
    /// Short stable label for logs and bench summaries.
    pub fn label(self) -> &'static str {
        match self {
            BatchPlan::Sequential { .. } => "sequential",
            BatchPlan::TokenCoalesced => "token-coalesced",
            BatchPlan::ConvBatchMajor => "conv-batch-major",
        }
    }

    /// Whether this plan shares any staging work across requests.
    pub fn shares_work(self) -> bool {
        !matches!(self, BatchPlan::Sequential { .. })
    }

    /// The plan actually executed for a batch of `batch` requests: a
    /// batch of zero or one degenerates to [`Sequential`]
    /// (there is nothing to share work across), any larger batch keeps
    /// the graph's plan.
    ///
    /// [`Sequential`]: Self::Sequential
    #[must_use]
    pub fn executed(self, batch: usize) -> BatchPlan {
        if batch <= 1 {
            BatchPlan::Sequential {
                reason: "batch of one shares no work",
            }
        } else {
            self
        }
    }
}

/// A graph compiled for repeated emulated execution: weights packed and
/// kernel programs precomputed once, scratchpads pooled across runs.
///
/// # Example
/// ```no_run
/// # use nm_compiler::prepack::PreparedGraph;
/// # use nm_compiler::{Options, Target};
/// # fn demo(graph: &nm_nn::graph::Graph, inputs: &[nm_core::Tensor<i8>]) {
/// let opts = Options::new(Target::SparseIsa);
/// let prepared = PreparedGraph::prepare(graph, &opts).unwrap();
/// for input in inputs {
///     let run = prepared.run(input).unwrap(); // zero packing work here
///     println!("cycles {}", run.matmul_compute_cycles);
/// }
/// # }
/// ```
#[derive(Debug)]
pub struct PreparedGraph<'g> {
    graph: GraphRef<'g>,
    opts: Options,
    layers: Vec<Option<PreparedMatmul>>,
    /// Scratchpads reused across tiles, layers and runs; workers check
    /// one out for the duration of their item batch and the pool resets
    /// it on checkin, so every checkout observes the fresh state.
    pool: ScratchpadPool,
}

/// The emulation context selected by [`Options::tier`].
pub(crate) fn tile_ctx<'a>(mem: &'a mut Scratchpad, opts: &Options) -> nm_kernels::Ctx<'a> {
    nm_kernels::Ctx::tiered(opts.tier, mem)
}

impl<'g> PreparedGraph<'g> {
    /// Compiles `graph` for the target in `opts`: selects kernels, tiles
    /// every Conv/Linear layer, packs each tile's weights into its
    /// kernel's format exactly once and pre-decodes the sparse conv
    /// decimation programs.
    ///
    /// # Errors
    /// [`Error::Unsupported`] for options with zero cores; propagates
    /// tiling failures (a layer that cannot fit L1 even at the smallest
    /// tile) and weight-packing errors.
    pub fn prepare(graph: &'g Graph, opts: &Options) -> Result<Self> {
        Ok(PreparedGraph {
            layers: prepare_layers(graph, opts)?,
            graph: GraphRef::Borrowed(graph),
            opts: *opts,
            pool: ScratchpadPool::new("L1", opts.l1_budget),
        })
    }

    /// [`prepare`](Self::prepare) for a reference-counted graph: the
    /// prepared artifact co-owns the graph, so it has no borrow lifetime
    /// (`PreparedGraph<'static>`) and can itself be put behind an [`Arc`]
    /// and shared across serving worker threads. Sharing is cheap — the
    /// graph is not cloned, and a service cache can hand the same
    /// prepared model to every request that needs it.
    ///
    /// # Errors
    /// Exactly as [`prepare`](Self::prepare).
    pub fn prepare_shared(graph: Arc<Graph>, opts: &Options) -> Result<PreparedGraph<'static>> {
        Ok(PreparedGraph {
            layers: prepare_layers(&graph, opts)?,
            graph: GraphRef::Shared(graph),
            opts: *opts,
            pool: ScratchpadPool::new("L1", opts.l1_budget),
        })
    }

    /// The options the graph was prepared with.
    pub fn options(&self) -> &Options {
        &self.opts
    }

    /// The graph this artifact was compiled from.
    pub fn graph(&self) -> &Graph {
        self.graph.get()
    }

    /// Host-resident footprint of this compiled artifact in bytes:
    /// every tile's packed weights (N:M values + offsets for sparse
    /// tiles, the staged dense row range otherwise), the pre-decoded
    /// conv decimation tables, and the scratchpad pool's pad size (its
    /// steady-state high-water — pads are checked out at full size and
    /// reused, so one pad per concurrent runner is the resident cost).
    ///
    /// This is a pure function of `(graph, opts)`: preparing the same
    /// graph with the same options always reports the same bytes, which
    /// is what lets a byte-budgeted model cache make deterministic
    /// eviction decisions.
    pub fn resident_bytes(&self) -> usize {
        let tile_bytes = |tiles: &[TileWeights]| -> usize {
            tiles
                .iter()
                .map(|t| match t {
                    TileWeights::Dense(range) => range.len(),
                    TileWeights::Sparse { weights, program } => {
                        weights.memory_bytes()
                            + program.as_ref().map_or(0, DecimProgram::table_bytes)
                    }
                })
                .sum()
        };
        let weights: usize = self
            .layers
            .iter()
            .flatten()
            .map(|m| match m {
                PreparedMatmul::Conv(p) => tile_bytes(&p.tiles),
                PreparedMatmul::Fc(p) => tile_bytes(&p.tiles),
            })
            .sum();
        weights + self.pool.pad_size()
    }

    /// Executes one inference with the precompiled tile programs — the
    /// walk of [`run_batch`](Self::run_batch) over a batch of one:
    /// Conv/Linear tiles run (in parallel) on the simulated cluster from
    /// the prepacked weights, everything else uses the reference
    /// implementations. Identical outputs and cycle totals to
    /// [`crate::exec::run_emulated`] with the same options — just
    /// without the per-invocation packing work.
    ///
    /// # Errors
    /// [`Error::ShapeMismatch`] if `input` does not match the graph's
    /// input shape; otherwise propagates staging and kernel errors.
    pub fn run(&self, input: &Tensor<i8>) -> Result<EmulatedRun> {
        let graph = self.graph();
        if input.shape() != graph.input_shape() {
            return Err(Error::ShapeMismatch(format!(
                "input shape {:?} != graph input {:?}",
                input.shape(),
                graph.input_shape()
            )));
        }
        let mut runs = self.walk(&[input])?;
        Ok(runs.pop().expect("one run per request"))
    }

    /// What [`run_batch`](Self::run_batch) shares across a batch of this
    /// graph — a report read off the graph's layers, not a choice of
    /// execution path (every batch runs the same walk):
    ///
    /// * [`BatchPlan::ConvBatchMajor`] if the graph has a Conv2d node;
    /// * otherwise [`BatchPlan::TokenCoalesced`] if it has a Linear
    ///   node;
    /// * otherwise [`BatchPlan::Sequential`], with the reason: without
    ///   matmul layers there are no staged weights to share.
    pub fn batch_plan(&self) -> BatchPlan {
        let layers = || self.layers.iter().flatten();
        if layers().any(|m| matches!(m, PreparedMatmul::Conv(_))) {
            BatchPlan::ConvBatchMajor
        } else if layers().next().is_some() {
            BatchPlan::TokenCoalesced
        } else {
            BatchPlan::Sequential {
                reason: "graph has no Conv2d or Linear layers",
            }
        }
    }

    /// Executes a batch of independent requests in one layer-major walk
    /// of the graph: each Conv/Linear tile's packed weights are staged
    /// **once per batch** and all requests sweep through the held
    /// staging — conv tiles request by request, Linear tiles as one
    /// stream of every request's tokens — while every other op runs per
    /// request. [`batch_plan`](Self::batch_plan) reports what this
    /// shares for the graph.
    ///
    /// Batching is an amortization, never a semantic change: request
    /// `i`'s output and cycle total are bit-identical to
    /// `self.run(inputs[i])` — each request is a separate kernel
    /// invocation on the same staged tile weights, and kernel cycle
    /// counts depend only on geometry and weights, not on the activation
    /// values. The serving layer's differential tests pin this contract
    /// for every batch size.
    ///
    /// # Errors
    /// [`Error::ShapeMismatch`] if any input does not match the graph's
    /// input shape (the message names the failing request index);
    /// otherwise propagates staging and kernel errors.
    pub fn run_batch(&self, inputs: &[&Tensor<i8>]) -> Result<Vec<EmulatedRun>> {
        let graph = self.graph();
        for (i, input) in inputs.iter().enumerate() {
            if input.shape() != graph.input_shape() {
                return Err(Error::ShapeMismatch(format!(
                    "batch request {i}: input shape {:?} != graph input {:?}",
                    input.shape(),
                    graph.input_shape()
                )));
            }
        }
        if inputs.is_empty() {
            // Nothing to walk; the walk stages every tile from request 0.
            return Ok(Vec::new());
        }
        self.walk(inputs)
    }

    /// The one graph walk behind [`run`](Self::run) and
    /// [`run_batch`](Self::run_batch): nodes in topological order, each
    /// over all of the (non-empty, shape-checked) requests before the
    /// next. Every request keeps its own value table, so any DAG wiring
    /// (residual Adds, fan-out, dead branches) needs no special casing.
    /// The tables are request-major on purpose: one flat node-major
    /// table measured ~10 % slower per request on batches of 16 DS-CNN
    /// requests (2-vCPU x86-64 host).
    fn walk(&self, inputs: &[&Tensor<i8>]) -> Result<Vec<EmulatedRun>> {
        let graph = self.graph();
        let nodes = graph.nodes();
        let mut values: Vec<Vec<Option<Tensor<i8>>>> = inputs
            .iter()
            .map(|&input| {
                let mut v = vec![None; nodes.len()];
                v[0] = Some(input.clone());
                v
            })
            .collect();
        let mut cycles = vec![0u64; inputs.len()];
        for (id, node) in nodes.iter().enumerate().skip(1) {
            let ins = || -> Vec<&Tensor<i8>> {
                values
                    .iter()
                    .map(|v| v[node.inputs[0]].as_ref().expect("topological order"))
                    .collect()
            };
            let (outs, layer_cycles) = match (&node.op, &self.layers[id]) {
                (OpKind::Conv2d(l), Some(PreparedMatmul::Conv(p))) => {
                    self.run_conv(l, p, &ins())?
                }
                (OpKind::Linear(l), Some(PreparedMatmul::Fc(p))) => self.run_fc(l, p, &ins())?,
                _ => {
                    // Reference ops run per request on the host and
                    // charge no cycles.
                    for v in &mut values {
                        let out = nnexec::eval(node, |i| {
                            v[node.inputs[i]].as_ref().expect("topological order")
                        })?;
                        v[id] = Some(out);
                    }
                    continue;
                }
            };
            for (r, (out, c)) in outs.into_iter().zip(layer_cycles).enumerate() {
                values[r][id] = Some(out);
                cycles[r] += c;
            }
        }
        let output = graph.output();
        Ok(values
            .into_iter()
            .zip(cycles)
            .map(|(mut v, matmul_compute_cycles)| EmulatedRun {
                output: v[output].take().expect("output computed"),
                matmul_compute_cycles,
            })
            .collect())
    }

    /// Runs one prepared Conv2d layer batch-major over `inputs` (one
    /// tensor per request), returning per-request outputs and
    /// per-request emulated compute cycles. Each tile's packed weights
    /// (and pre-decoded decimation table) are staged into the
    /// scratchpad **once per batch** and all requests sweep through the
    /// held staging, only the tile input buffer rewritten between
    /// requests — the conv analogue of [`run_fc`](Self::run_fc)'s
    /// token stream. A single [`run`](Self::run) is the B = 1 case of
    /// the same code path.
    fn run_conv(
        &self,
        layer: &ConvLayer,
        p: &PreparedConv,
        inputs: &[&Tensor<i8>],
    ) -> Result<(Vec<Tensor<i8>>, Vec<u64>)> {
        let geom = &layer.geom;
        let cluster = self.opts.cluster();
        let b = inputs.len();
        // Materialize each request's zero-padded input once per layer,
        // row-wise (the 2-D DMA does this on the real platform when
        // fetching halo tiles). Padding is inherently per-request work;
        // the weight staging below is not.
        let px = geom.ix + 2 * geom.pad;
        let row = geom.ix * geom.c;
        let padded: Vec<Vec<i8>> = inputs
            .iter()
            .map(|input| {
                let mut pad = vec![0i8; (geom.iy + 2 * geom.pad) * px * geom.c];
                for y in 0..geom.iy {
                    let dst = ((y + geom.pad) * px + geom.pad) * geom.c;
                    pad[dst..dst + row].copy_from_slice(&input.data()[y * row..(y + 1) * row]);
                }
                pad
            })
            .collect();

        let exec_tile = |mem: &mut Scratchpad, i: usize| -> Result<(Vec<u64>, Vec<u8>)> {
            let spec = &p.specs[i];
            let tg = spec.geom;
            let row0 = spec.oy0 * geom.stride;
            let tile_inputs: Vec<&[i8]> = padded
                .iter()
                .map(|pad| &pad[row0 * px * geom.c..(row0 + tg.iy) * px * geom.c])
                .collect();
            let batch = ConvBatch {
                inputs: &tile_inputs,
            };
            mem.reset();
            let run = match &p.tiles[i] {
                TileWeights::Dense(range) => {
                    let bufs = stage_conv_dense(
                        mem,
                        &tg,
                        tile_inputs[0],
                        &layer.weights[range.clone()],
                        self.opts.cores,
                    )?;
                    let job = ConvJob {
                        geom: tg,
                        requant: layer.requant,
                        bufs,
                    };
                    let mut ctx = tile_ctx(mem, &self.opts);
                    match p.choice {
                        KernelChoice::ConvDense1x2 => {
                            conv_dense_1x2_batch(&mut ctx, &job, &cluster, &batch)?
                        }
                        _ => conv_dense_4x2_batch(&mut ctx, &job, &cluster, &batch)?,
                    }
                }
                TileWeights::Sparse { weights, program } => {
                    let bufs =
                        stage_conv_sparse(mem, &tg, tile_inputs[0], weights, self.opts.cores)?;
                    let job = SparseConvJob {
                        conv: ConvJob {
                            geom: tg,
                            requant: layer.requant,
                            bufs,
                        },
                        nm: weights.nm(),
                    };
                    let mut ctx = tile_ctx(mem, &self.opts);
                    match p.choice {
                        KernelChoice::ConvSparseSw(_) => conv_sparse_sw_prepared_batch(
                            &mut ctx,
                            &job,
                            &cluster,
                            program.as_ref(),
                            &batch,
                        )?,
                        _ => conv_sparse_isa_prepared_batch(
                            &mut ctx,
                            &job,
                            &cluster,
                            program.as_ref(),
                            &batch,
                        )?,
                    }
                }
            };
            Ok((run.stats.iter().map(|s| s.cycles()).collect(), run.outputs))
        };
        let results = self.run_items(p.specs.len(), exec_tile)?;

        // Scatter every tile's per-request HWC output into each
        // request's full tensor, row-wise.
        let mut outs = vec![vec![0i8; geom.output_elems()]; b];
        let mut cycles = vec![0u64; b];
        for (spec, (cycs, bytes)) in p.specs.iter().zip(results) {
            let tg = spec.geom;
            let out_elems = tg.output_elems();
            for (r, out) in outs.iter_mut().enumerate() {
                cycles[r] += cycs[r];
                let bytes = &bytes[r * out_elems..(r + 1) * out_elems];
                if spec.k0 == 0 && tg.k == geom.k {
                    // K-untiled: the tile rows are contiguous in the output.
                    let dst = spec.oy0 * geom.ox() * geom.k;
                    copy_bytes_to_i8(&mut out[dst..dst + bytes.len()], bytes);
                } else {
                    for y in 0..tg.oy() {
                        for x in 0..tg.ox() {
                            let src = &bytes[(y * tg.ox() + x) * tg.k..][..tg.k];
                            let dst = ((spec.oy0 + y) * geom.ox() + x) * geom.k + spec.k0;
                            copy_bytes_to_i8(&mut out[dst..dst + tg.k], src);
                        }
                    }
                }
            }
        }
        let tensors = outs
            .into_iter()
            .map(|o| Tensor::from_vec(&[geom.oy(), geom.ox(), geom.k], o))
            .collect::<Result<Vec<_>>>()?;
        Ok((tensors, cycles))
    }

    /// Runs one prepared Linear layer over `inputs` (one `[C]` or
    /// `[T, C]` tensor per request, all of one shape), returning
    /// per-request outputs and per-request emulated compute cycles. The
    /// B×T rows run as one token stream, so each tile's weights stage
    /// once per call and every token of every request reuses them. Each
    /// (tile, token chunk) item is one kernel-layer batch call
    /// ([`fc_dense_batch`] and its sparse twins): the chunk's first token
    /// runs the charged kernel and the rest take the token sweep, each
    /// token charged its own kernel invocation's cycles, which depend
    /// only on geometry and weights — so a request is charged exactly
    /// what a batch of one would charge it.
    fn run_fc(
        &self,
        layer: &LinearLayer,
        p: &PreparedFc,
        inputs: &[&Tensor<i8>],
    ) -> Result<(Vec<Tensor<i8>>, Vec<u64>)> {
        let geom = &layer.geom;
        let cluster = self.opts.cluster();
        let shape = inputs[0].shape();
        let (rows, c) = match shape {
            [c] => (1, *c),
            [t, c] => (*t, *c),
            s => return Err(Error::ShapeMismatch(format!("linear over {s:?}"))),
        };
        // Token `t` of the stream is row `t % rows` of request `t / rows`.
        let tokens = inputs.len() * rows;
        // Work items are (K-tile, token chunk): weights are staged once
        // per item and every token of the chunk reuses them, so a
        // multi-token layer never restages (let alone repacks) weights
        // per token. Chunking exists purely to feed idle workers when
        // there are fewer tiles than threads; boundaries are
        // deterministic, and per-token outputs/cycles don't depend on
        // which chunk ran them.
        let n_tiles = p.specs.len();
        let n_chunks = if tokens <= 1 {
            1
        } else {
            self.threads().div_ceil(n_tiles).clamp(1, tokens)
        };
        // `max(1)` keeps the zero-token degenerate case (an empty `[0,
        // C]` input) on the normal path: one item per tile with an
        // empty token range, which stages and runs nothing.
        let chunk = tokens.div_ceil(n_chunks).max(1);
        // Re-derive the chunk count from the chosen size so no trailing
        // chunk is empty (e.g. 5 tokens over 4 chunks of 2 -> 3 chunks).
        let n_chunks = tokens.div_ceil(chunk).max(1);
        let nm = p.choice.nm();

        let run_item = |mem: &mut Scratchpad, item: usize| -> Result<(Vec<u64>, Vec<u8>)> {
            let (ti, ci) = (item / n_chunks, item % n_chunks);
            let tg = p.specs[ti].geom;
            let (t0, t1) = (ci * chunk, ((ci + 1) * chunk).min(tokens));
            let xs: Vec<&[i8]> = (t0..t1)
                .map(|t| &inputs[t / rows].data()[(t % rows) * c..][..c])
                .collect();
            let Some(&x0) = xs.first() else {
                return Ok((Vec::new(), Vec::new()));
            };
            mem.reset();
            // Weights (and offsets) stage once with token 0's input and
            // stay resident for every token of the item.
            let bufs = match &p.tiles[ti] {
                TileWeights::Dense(range) => {
                    stage_fc_dense(mem, &tg, x0, &layer.weights[range.clone()])?
                }
                TileWeights::Sparse { weights, .. } => stage_fc_sparse(mem, &tg, x0, weights)?,
            };
            let job = FcJob {
                geom: tg,
                requant: layer.requant,
                bufs,
            };
            let mut ctx = tile_ctx(mem, &self.opts);
            let sparse = || SparseFcJob {
                fc: job,
                nm: nm.expect("sparse choice has a pattern"),
            };
            let run = match p.choice {
                KernelChoice::FcSparseSw(_) => {
                    fc_sparse_sw_batch(&mut ctx, &sparse(), &cluster, &xs)?
                }
                KernelChoice::FcSparseIsa(_) => {
                    fc_sparse_isa_batch(&mut ctx, &sparse(), &cluster, &xs)?
                }
                _ => fc_dense_batch(&mut ctx, &job, &cluster, &xs)?,
            };
            Ok((run.stats.iter().map(|s| s.cycles()).collect(), run.outputs))
        };
        let results = self.run_items(n_tiles * n_chunks, run_item)?;

        let b = inputs.len();
        let mut outs = vec![vec![0i8; rows * geom.k]; b];
        let mut cycles = vec![0u64; b];
        for (item, (cyc, bytes)) in results.into_iter().enumerate() {
            let (ti, ci) = (item / n_chunks, item % n_chunks);
            let spec = &p.specs[ti];
            let tg = spec.geom;
            let (t0, t1) = (ci * chunk, ((ci + 1) * chunk).min(tokens));
            for (j, t) in (t0..t1).enumerate() {
                cycles[t / rows] += cyc[j];
                let dst = (t % rows) * geom.k + spec.k0;
                copy_bytes_to_i8(
                    &mut outs[t / rows][dst..dst + tg.k],
                    &bytes[j * tg.k..(j + 1) * tg.k],
                );
            }
        }
        let mut out_shape = shape.to_vec();
        *out_shape.last_mut().expect("rank 1 or 2") = geom.k;
        let tensors = outs
            .into_iter()
            .map(|o| Tensor::from_vec(&out_shape, o))
            .collect::<Result<Vec<_>>>()?;
        Ok((tensors, cycles))
    }

    /// Worker threads to use (resolving `0` to the host parallelism).
    fn threads(&self) -> usize {
        match self.opts.host_threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }

    /// Runs `f` for every item index in `0..n`, in parallel when the
    /// options allow more than one worker and there is more than one
    /// item. Results come back in item order; with multiple failures the
    /// lowest-indexed error is returned, so outcomes are independent of
    /// scheduling.
    fn run_items<R, F>(&self, n: usize, f: F) -> Result<Vec<R>>
    where
        R: Send,
        F: Fn(&mut Scratchpad, usize) -> Result<R> + Sync,
    {
        let threads = self.threads().min(n);
        if threads <= 1 {
            let mut mem = self.checkout();
            let mut out = Vec::with_capacity(n);
            let mut failed = None;
            for i in 0..n {
                match f(&mut mem, i) {
                    Ok(r) => out.push(r),
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                }
            }
            self.checkin(mem);
            return match failed {
                Some(e) => Err(e),
                None => Ok(out),
            };
        }
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<Result<R>>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let (next, f) = (&next, &f);
                    scope.spawn(move || {
                        let mut mem = self.checkout();
                        let mut got = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let r = f(&mut mem, i);
                            let stop = r.is_err();
                            got.push((i, r));
                            if stop {
                                break;
                            }
                        }
                        self.checkin(mem);
                        got
                    })
                })
                .collect();
            for h in handles {
                for (i, r) in h.join().expect("tile worker panicked") {
                    slots[i] = Some(r);
                }
            }
        });
        // Deterministic error selection: iterating in item order, the
        // lowest-indexed failure wins regardless of which worker hit it
        // first. (An unexecuted slot can only exist when a worker
        // stopped on an error, so one is always found in that case.)
        let mut results = Vec::with_capacity(n);
        let mut first_err = None;
        for slot in slots {
            match slot {
                Some(Ok(r)) if first_err.is_none() => results.push(r),
                Some(Err(e)) if first_err.is_none() => first_err = Some(e),
                _ => {}
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        assert_eq!(results.len(), n, "unexecuted item without a recorded error");
        Ok(results)
    }

    fn checkout(&self) -> Scratchpad {
        self.pool.checkout()
    }

    fn checkin(&self, mem: Scratchpad) {
        self.pool.checkin(mem);
    }
}

/// Compiles every Conv/Linear node of `graph` into its tile program —
/// the shared body of [`PreparedGraph::prepare`] and
/// [`PreparedGraph::prepare_shared`].
fn prepare_layers(graph: &Graph, opts: &Options) -> Result<Vec<Option<PreparedMatmul>>> {
    opts.check()?;
    let mut layers = Vec::with_capacity(graph.nodes().len());
    for node in graph.nodes() {
        let prepared = match &node.op {
            OpKind::Conv2d(l) => {
                let choice = select_kernel(opts.target, &node.op).expect("conv has a kernel");
                Some(PreparedMatmul::Conv(prepare_conv(l, choice, opts)?))
            }
            OpKind::Linear(l) => {
                let choice = select_kernel(opts.target, &node.op).expect("linear has a kernel");
                Some(PreparedMatmul::Fc(prepare_fc(l, choice, opts)?))
            }
            _ => None,
        };
        layers.push(prepared);
    }
    Ok(layers)
}

fn prepare_conv(layer: &ConvLayer, choice: KernelChoice, opts: &Options) -> Result<PreparedConv> {
    let geom = &layer.geom;
    let tiling = tile_conv(geom, &choice, opts.l1_budget, opts.cores)?;
    let specs = conv_tile_specs(geom, &tiling);
    let tiles = specs
        .iter()
        .map(|spec| {
            let range = spec.k0 * geom.patch_len()..(spec.k0 + spec.geom.k) * geom.patch_len();
            pack_tile(
                &layer.weights[range.clone()],
                range,
                spec.geom.k,
                geom.patch_len(),
                &choice,
                opts,
                true,
            )
        })
        .collect::<Result<_>>()?;
    Ok(PreparedConv {
        choice,
        specs,
        tiles,
    })
}

fn prepare_fc(layer: &LinearLayer, choice: KernelChoice, opts: &Options) -> Result<PreparedFc> {
    let geom = &layer.geom;
    let tiling = tile_fc(geom, &choice, opts.l1_budget)?;
    let specs = fc_tile_specs(geom, &tiling);
    let tiles = specs
        .iter()
        .map(|spec| {
            let range = spec.k0 * geom.c..(spec.k0 + spec.geom.k) * geom.c;
            pack_tile(
                &layer.weights[range.clone()],
                range,
                spec.geom.k,
                geom.c,
                &choice,
                opts,
                false,
            )
        })
        .collect::<Result<_>>()?;
    Ok(PreparedFc {
        choice,
        specs,
        tiles,
    })
}

/// Packs one tile's weight rows into the chosen kernel's format —
/// the single place packing happens, exactly once per tile.
fn pack_tile(
    w_rows: &[i8],
    range: Range<usize>,
    k: usize,
    row_len: usize,
    choice: &KernelChoice,
    opts: &Options,
    conv: bool,
) -> Result<TileWeights> {
    match choice.offset_layout() {
        Some(layout) => {
            let nm = choice.nm().expect("sparse choice has a pattern");
            let weights = NmMatrix::from_dense(w_rows, k, row_len, nm, layout)?;
            // The decimation program only exists for the conv kernels'
            // bulk and native paths; reference-path runs decode per
            // instruction.
            let program = (conv && opts.tier != nm_kernels::ExecTier::Reference)
                .then(|| DecimProgram::from_matrix(&weights))
                .transpose()?;
            Ok(TileWeights::Sparse { weights, program })
        }
        None => Ok(TileWeights::Dense(range)),
    }
}
