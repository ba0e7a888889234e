//! The traced run's layer replays. Outside the timed loop, every node of
//! each model runs on its own, on recorded inputs: Conv/Linear nodes as
//! single-node `PreparedGraph`s (nm-compiler over nm-kernels), the other
//! nodes as direct `nm_nn` calls. Each replayed inference is a `replay`
//! span whose children are the node calls, so a layer's time per
//! inference is the sum of its children's self times.

use crate::stats::median;
use crate::trace::{child_ms_per_parent, Tracer};
use crate::workloads::{Oracle, Res, POOL};
use nm_compiler::{Options, PreparedGraph};
use nm_core::Tensor;
use nm_nn::exec as nnexec;
use nm_nn::graph::{Graph, GraphBuilder, Node, OpKind};
use nm_nn::ops;
use std::sync::Arc;

/// Recorded inputs the node replays cycle through.
const RECORDED: usize = 8;
/// Replayed inferences (node by node) per model.
const NODE_ROUNDS: usize = 201;
/// Whole-graph `run` replays per model and thread count.
const RUN_ROUNDS: usize = 201;
/// `run_batch` replays per model.
const BATCH_ROUNDS: usize = 41;

/// Replay span names, one per layer a node belongs to.
pub const CONV: &str = "kernels.conv";
pub const LINEAR: &str = "kernels.linear";
pub const ATTENTION: &str = "nn.attention";
pub const GELU: &str = "nn.gelu";
pub const LAYER_NORM: &str = "nn.layer_norm";
pub const OTHER: &str = "nn.other";
pub const NODE_LAYERS: [&str; 6] = [CONV, LINEAR, ATTENTION, GELU, LAYER_NORM, OTHER];

fn node_layer(op: &OpKind) -> &'static str {
    match op {
        OpKind::Conv2d(_) => CONV,
        OpKind::Linear(_) => LINEAR,
        OpKind::Attention(_) => ATTENTION,
        OpKind::Gelu => GELU,
        OpKind::LayerNorm => LAYER_NORM,
        _ => OTHER,
    }
}

/// Evaluates one node with the `nm_nn` reference operators.
fn nn_eval<'v>(node: &Node, get: impl Fn(usize) -> &'v Tensor<i8>) -> Res<Tensor<i8>> {
    Ok(match &node.op {
        OpKind::Input => get(0).clone(),
        OpKind::Conv2d(l) => nnexec::conv2d(get(0), l),
        OpKind::Linear(l) => nnexec::linear(get(0), l),
        OpKind::Attention(a) => nnexec::attention(get(0), a),
        OpKind::Relu => ops::relu(get(0)),
        OpKind::Gelu => ops::gelu(get(0)),
        OpKind::LayerNorm => ops::layer_norm(get(0)),
        OpKind::MaxPool { k, s } => ops::max_pool(get(0), *k, *s),
        OpKind::AvgPool { k, s } => ops::avg_pool(get(0), *k, *s),
        OpKind::GlobalAvgPool => ops::global_avg_pool(get(0)),
        OpKind::Add => ops::add(get(0), get(1)),
        OpKind::Flatten => {
            let t = get(0).clone();
            let len = t.len();
            t.reshape(&[len])?
        }
        OpKind::Tokens => get(0).clone().reshape(&node.out_shape)?,
    })
}

/// Every node's value for `input`, in node order.
fn record(graph: &Graph, input: &Tensor<i8>) -> Res<Vec<Tensor<i8>>> {
    let mut values: Vec<Tensor<i8>> = Vec::with_capacity(graph.nodes().len());
    for node in graph.nodes() {
        let out = if matches!(node.op, OpKind::Input) {
            input.clone()
        } else {
            nn_eval(node, |i| &values[node.inputs[i]])?
        };
        values.push(out);
    }
    Ok(values)
}

/// A graph holding only `node`, fed by an input of `in_shape`.
fn single_node_graph(node: &Node, in_shape: &[usize]) -> Res<Graph> {
    let mut b = GraphBuilder::new(in_shape);
    let x = b.input();
    let y = match &node.op {
        OpKind::Conv2d(l) => b.conv(x, l.clone())?,
        OpKind::Linear(l) => b.linear(x, l.clone())?,
        op => return Err(format!("{} is not a matmul node", op.name()).into()),
    };
    Ok(b.finish(y)?)
}

/// One model's replayed per-inference numbers.
#[derive(Debug, Clone, Default)]
pub struct ModelLayers {
    /// p50 self time (ms) per inference of each of [`NODE_LAYERS`].
    pub node_ms: Vec<f64>,
    /// p50 of a whole `run` at the workload's options (one host thread).
    pub run_ms: f64,
    /// p50 of a whole `run` prepared with `host_threads` = the host's
    /// available parallelism (what `host_threads` 0 resolves to).
    pub run_threads_ms: f64,
    /// p50 of one `run_batch` at the observed batch size, per request.
    pub run_batch_ms_per_req: f64,
    /// Simulated cycles of the replayed nodes of one inference.
    pub sim_cycles: u64,
}

/// Replays `model` of the oracle; `batch` is the batch size the service
/// was observed to run it at (served workloads only), `threads` the
/// host's available parallelism.
pub fn replay_model(
    tracer: &mut Tracer,
    oracle: &Oracle,
    model: usize,
    pool: &[Tensor<i8>],
    batch: Option<usize>,
    threads: usize,
) -> Res<ModelLayers> {
    let prepared = &oracle.prepared[model];
    let graph = prepared.graph();
    let opts: Options = *prepared.options();
    let want_cycles = oracle.cycles(model)?;
    let recorded = pool[..RECORDED]
        .iter()
        .map(|input| record(graph, input))
        .collect::<Res<Vec<_>>>()?;
    for (i, values) in recorded.iter().enumerate() {
        if values[graph.output()] != oracle.runs[model][i].output {
            return Err(format!("model {model} input {i}: recorded output != oracle").into());
        }
    }
    let singles = graph
        .nodes()
        .iter()
        .map(|node| match node.op {
            OpKind::Conv2d(_) | OpKind::Linear(_) => {
                let g = single_node_graph(node, &graph.node(node.inputs[0]).out_shape)?;
                Ok(Some(PreparedGraph::prepare_shared(Arc::new(g), &opts)?))
            }
            _ => Ok(None),
        })
        .collect::<Res<Vec<_>>>()?;

    let begin = tracer.spans().len();
    for round in 0..NODE_ROUNDS {
        let i = round % RECORDED;
        let values = &recorded[i];
        let parent = tracer.open("replay", None, i as u64);
        let mut cycles = 0;
        for (id, node) in graph.nodes().iter().enumerate().skip(1) {
            let span = tracer.open(node_layer(&node.op), parent, i as u64);
            let out = match &singles[id] {
                Some(single) => {
                    let run = single.run(&values[node.inputs[0]])?;
                    cycles += run.matmul_compute_cycles;
                    run.output
                }
                None => nn_eval(node, |k| &values[node.inputs[k]])?,
            };
            tracer.close(span);
            if out != values[id] {
                return Err(format!("model {model} node {id}: replay output differs").into());
            }
        }
        tracer.close(parent);
        if cycles != want_cycles {
            return Err(
                format!("model {model}: replayed {cycles} cycles, run {want_cycles}").into(),
            );
        }
    }

    let threaded = PreparedGraph::prepare_shared(
        Arc::new(graph.clone()),
        &Options {
            host_threads: threads,
            ..opts
        },
    )?;
    for round in 0..RUN_ROUNDS {
        let i = round % POOL;
        // Alternate the two thread counts so both see the same host.
        for (name, p) in [
            ("compiler.run", prepared),
            ("compiler.run_threads", &threaded),
        ] {
            let run = tracer.time(name, None, i as u64, || p.run(&pool[i]))?;
            if run.output != oracle.runs[model][i].output {
                return Err(format!("model {model} input {i}: {name} replay differs").into());
            }
        }
    }

    if let Some(b) = batch {
        for round in 0..BATCH_ROUNDS {
            let first = round * b;
            let inputs: Vec<&Tensor<i8>> = (first..first + b).map(|k| &pool[k % POOL]).collect();
            let runs = tracer.time("compiler.run_batch", None, b as u64, || {
                prepared.run_batch(&inputs)
            })?;
            for (k, run) in (first..first + b).zip(&runs) {
                if run.output != oracle.runs[model][k % POOL].output {
                    return Err(format!("model {model}: run_batch replay differs").into());
                }
            }
        }
    }

    let spans = &tracer.spans()[begin..];
    let per_replay: Vec<_> = child_ms_per_parent(tracer.spans(), "replay")
        .into_iter()
        .filter(|(id, _)| *id >= begin)
        .map(|(_, by_layer)| by_layer)
        .collect();
    let node_ms = NODE_LAYERS
        .iter()
        .map(|layer| {
            let per: Vec<f64> = per_replay
                .iter()
                .map(|m| m.get(layer).copied().unwrap_or(0.0))
                .collect();
            median(&per).unwrap_or(0.0)
        })
        .collect();
    // Whole-graph replays have no child spans: self time is duration.
    let leaf_ms = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    };
    Ok(ModelLayers {
        node_ms,
        run_ms: median(&leaf_ms("compiler.run")).unwrap_or(0.0),
        run_threads_ms: median(&leaf_ms("compiler.run_threads")).unwrap_or(0.0),
        run_batch_ms_per_req: batch.map_or(0.0, |b| {
            median(&leaf_ms("compiler.run_batch")).unwrap_or(0.0) / b as f64
        }),
        sim_cycles: want_cycles,
    })
}
