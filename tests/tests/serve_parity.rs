//! Differential property tests for the batched inference service: for
//! any request interleaving, worker count, batch limit and execution
//! tier, every request's output through `nm_serve::Service` must be
//! bit-identical to a sequential `PreparedGraph::run` loop over the
//! same requests — and on the cycle-accurate tiers the simulated cycle
//! totals too. This is the determinism contract documented at the top
//! of `nm-serve`.

use nm_compiler::plan::compile;
use nm_compiler::{BatchPlan, ExecTier, KernelChoice, Options, PreparedGraph, Target};
use nm_core::quant::Requant;
use nm_core::sparsity::Nm;
use nm_core::{FcGeom, Tensor};
use nm_integration::{make_exact_nm, random_i8, sparse_conv_fc_graph};
use nm_models::vit::vit_tiny_sparse_for_tests;
use nm_models::{mlp_serve_sparse, resnet18_cifar_serve_sparse, vit_small, VitConfig};
use nm_nn::graph::Graph;
use nm_nn::layer::LinearLayer;
use nm_nn::prune::{prune_graph, vit_ff_policy};
use nm_nn::rng::XorShift;
use nm_nn::GraphBuilder;
use nm_serve::{Service, ServiceConfig};
use std::sync::Arc;

/// A small conv+fc graph — its batch plan reports the conv-batch-major
/// sharing (conv tiles staged once per batch).
fn conv_fc_graph(nm: Nm) -> Arc<Graph> {
    Arc::new(sparse_conv_fc_graph(10, 6, nm, 3))
}

/// A sparse MLP with no conv layers — the token-coalesced plan's
/// subject.
fn mlp_graph(nm: Nm) -> Arc<Graph> {
    Arc::new(mlp_serve_sparse(&[64, 48, 32], nm, 5).unwrap())
}

fn random_inputs(shape: &[usize], n: usize, seed: u64) -> Vec<Tensor<i8>> {
    let elems: usize = shape.iter().product();
    let mut rng = XorShift::new(seed);
    (0..n)
        .map(|_| Tensor::from_vec(shape, rng.fill_weights(elems, 50)).unwrap())
        .collect()
}

/// A deterministic pseudo-random interleaving of `counts.len()` request
/// streams: returns a sequence of model indices, each appearing exactly
/// `counts[i]` times, shuffled by `seed`.
fn interleaving(counts: &[usize], seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(m, &n)| std::iter::repeat_n(m, n))
        .collect();
    let mut rng = XorShift::new(seed);
    // Fisher–Yates with the test RNG.
    for i in (1..order.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// The full differential sweep: two models (one coalescible, one not)
/// served concurrently under every worker count / batch limit /
/// cycle-accurate tier combination, with a different pseudo-random
/// interleaving per configuration, compared request-by-request against
/// sequential `PreparedGraph::run` baselines.
#[test]
fn service_matches_sequential_runs_for_any_configuration() {
    let nm = Nm::ONE_OF_EIGHT;
    let graphs = [mlp_graph(nm), conv_fc_graph(nm)];
    let per_model = 8;
    for tier in [ExecTier::Bulk, ExecTier::Reference] {
        let mut opts = Options::new(Target::SparseIsa);
        opts.tier = tier;
        // Sequential ground truth, one prepared model per graph.
        let inputs: Vec<Vec<Tensor<i8>>> = graphs
            .iter()
            .enumerate()
            .map(|(m, g)| random_inputs(g.input_shape(), per_model, 100 + m as u64))
            .collect();
        let expected: Vec<Vec<_>> = graphs
            .iter()
            .zip(&inputs)
            .map(|(g, xs)| {
                let prepared = PreparedGraph::prepare(g, &opts).unwrap();
                xs.iter().map(|x| prepared.run(x).unwrap()).collect()
            })
            .collect();

        for workers in [1, 2, 3, 8] {
            for max_batch in [1, 4, 16] {
                let service = Service::start(ServiceConfig {
                    queue_capacity: 2 * graphs.len() * per_model,
                    max_batch,
                    workers,
                    tier,
                    ..ServiceConfig::default()
                });
                let ids: Vec<_> = graphs
                    .iter()
                    .enumerate()
                    .map(|(m, g)| service.register(&format!("model-{m}"), g, &opts).unwrap())
                    .collect();
                // A configuration-specific interleaving of the two
                // request streams.
                let seed = 1000
                    + workers as u64 * 100
                    + max_batch as u64 * 10
                    + u64::from(tier == ExecTier::Bulk);
                let mut next = vec![0usize; graphs.len()];
                let mut tickets = Vec::new();
                for m in interleaving(&[per_model; 2], seed) {
                    let x = inputs[m][next[m]].clone();
                    tickets.push((m, next[m], service.submit(ids[m], x).unwrap()));
                    next[m] += 1;
                }
                for (m, i, ticket) in tickets {
                    let got = ticket.wait().unwrap();
                    let want = &expected[m][i];
                    assert_eq!(
                        got.output, want.output,
                        "output diverged: model {m} req {i} workers={workers} \
                         max_batch={max_batch} {tier:?}"
                    );
                    assert_eq!(
                        got.sim_cycles,
                        Some(want.matmul_compute_cycles),
                        "cycles diverged: model {m} req {i} workers={workers} \
                         max_batch={max_batch} {tier:?}"
                    );
                }
                let stats = service.shutdown();
                assert_eq!(stats.completed, (graphs.len() * per_model) as u64);
                assert_eq!(stats.shed, 0, "queue was sized to admit everything");
            }
        }
    }
}

/// The determinism contract across priority classes: priority-band /
/// earliest-deadline-first dispatch reorders *when* a request runs,
/// never *what* it computes. A wave mixing all three [`Priority`]
/// classes with assorted (far-future or absent) deadlines — enqueued
/// against a paused pool so the EDF sort sees the whole wave at once —
/// must complete every request with outputs and cycle totals
/// bit-identical to the sequential baseline, across worker counts and
/// batch limits. The queue admits the entire wave, so no shed class is
/// exercised: scheduling policy alone is under test.
#[test]
fn priority_mixes_preserve_bit_and_cycle_determinism() {
    use nm_serve::Priority;
    use std::time::{Duration, Instant};

    let nm = Nm::ONE_OF_EIGHT;
    let graphs = [mlp_graph(nm), conv_fc_graph(nm)];
    let per_model = 9;
    let mut opts = Options::new(Target::SparseIsa);
    opts.tier = ExecTier::Bulk;
    let inputs: Vec<Vec<Tensor<i8>>> = graphs
        .iter()
        .enumerate()
        .map(|(m, g)| random_inputs(g.input_shape(), per_model, 500 + m as u64))
        .collect();
    let expected: Vec<Vec<_>> = graphs
        .iter()
        .zip(&inputs)
        .map(|(g, xs)| {
            let prepared = PreparedGraph::prepare(g, &opts).unwrap();
            xs.iter().map(|x| prepared.run(x).unwrap()).collect()
        })
        .collect();

    for workers in [1, 2] {
        for max_batch in [1, 4] {
            let service = Service::start(ServiceConfig {
                queue_capacity: 2 * graphs.len() * per_model,
                max_batch,
                workers,
                tier: ExecTier::Bulk,
                ..ServiceConfig::default()
            });
            let ids: Vec<_> = graphs
                .iter()
                .enumerate()
                .map(|(m, g)| service.register(&format!("model-{m}"), g, &opts).unwrap())
                .collect();
            // Pause so the whole mixed wave is queued before dispatch:
            // the priority/deadline sort then reorders maximally.
            service.pause();
            let far = Instant::now() + Duration::from_secs(3600);
            let farther = Instant::now() + Duration::from_secs(7200);
            let mut next = vec![0usize; graphs.len()];
            let mut tickets = Vec::new();
            for m in interleaving(
                &[per_model; 2],
                4242 + workers as u64 * 10 + max_batch as u64,
            ) {
                let i = next[m];
                next[m] += 1;
                let priority = Priority::ALL[(m + i) % Priority::ALL.len()];
                // Deadlines are generous or absent: ordering hints, not
                // shed triggers.
                let deadline = match i % 3 {
                    0 => Some(far),
                    1 => Some(farther),
                    _ => None,
                };
                let x = inputs[m][i].clone();
                let ticket = service
                    .submit_with_deadline(ids[m], x, deadline, priority)
                    .unwrap();
                tickets.push((m, i, ticket));
            }
            service.resume();
            for (m, i, ticket) in tickets {
                let got = ticket.wait().unwrap();
                let want = &expected[m][i];
                assert_eq!(
                    got.output, want.output,
                    "output diverged: model {m} req {i} workers={workers} \
                     max_batch={max_batch}"
                );
                assert_eq!(
                    got.sim_cycles,
                    Some(want.matmul_compute_cycles),
                    "cycles diverged: model {m} req {i} workers={workers} \
                     max_batch={max_batch}"
                );
            }
            let stats = service.shutdown();
            assert_eq!(stats.completed, (graphs.len() * per_model) as u64);
            assert_eq!(stats.shed, 0, "the queue admits the whole wave");
            assert_eq!(stats.shed_preempted, 0, "nothing was displaced");
            assert_eq!(stats.shed_expired, 0, "deadlines were generous");
        }
    }
}

/// The coalesced multi-token path with K-tiling forced (small L1
/// budget): batched execution through the service must still match the
/// sequential loop exactly — this is the configuration where weights
/// genuinely stage once per batch across several K-tiles.
#[test]
fn coalesced_k_tiled_mlp_matches_sequential() {
    let nm = Nm::ONE_OF_EIGHT;
    let graph = mlp_graph(nm);
    for tier in [ExecTier::Bulk, ExecTier::Reference] {
        let mut opts = Options::new(Target::SparseIsa);
        opts.tier = tier;
        opts.l1_budget = 512; // forces K-tiling of every layer
        let prepared = PreparedGraph::prepare(&graph, &opts).unwrap();
        assert_eq!(prepared.batch_plan(), BatchPlan::TokenCoalesced);
        let xs = random_inputs(graph.input_shape(), 16, 33);
        let expected: Vec<_> = xs.iter().map(|x| prepared.run(x).unwrap()).collect();

        let service = Service::start(ServiceConfig {
            queue_capacity: 32,
            max_batch: 16,
            workers: 1,
            tier,
            ..ServiceConfig::default()
        });
        let model = service.register("mlp-ktiled", &graph, &opts).unwrap();
        // Deterministic batch shaping: the paused queue accumulates the
        // whole wave, so resuming hands the worker exactly one
        // 16-request batch — the configuration where tile weights stage
        // once for all sixteen requests.
        service.pause();
        let tickets: Vec<_> = xs
            .iter()
            .map(|x| service.submit(model, x.clone()).unwrap())
            .collect();
        service.resume();
        for (ticket, want) in tickets.into_iter().zip(&expected) {
            let got = ticket.wait().unwrap();
            assert_eq!(got.output, want.output, "{tier:?}");
            assert_eq!(got.sim_cycles, Some(want.matmul_compute_cycles), "{tier:?}");
            assert_eq!(got.batch_size, 16, "{tier:?}: one full coalesced batch");
        }
        service.shutdown();
    }
}

/// `run_batch` itself (no service): the batched entry point must equal
/// per-request `run` calls under both work-sharing plans at batch sizes
/// 0, 1 and 5, and reject shape mismatches atomically — naming the
/// failing request.
#[test]
fn run_batch_matches_individual_runs() {
    let nm = Nm::ONE_OF_EIGHT;
    for (graph, plan) in [
        (mlp_graph(nm), BatchPlan::TokenCoalesced),
        (conv_fc_graph(nm), BatchPlan::ConvBatchMajor),
    ] {
        let opts = Options::new(Target::SparseIsa);
        let prepared = PreparedGraph::prepare(&graph, &opts).unwrap();
        assert_eq!(prepared.batch_plan(), plan);
        let label = plan.label();
        let xs = random_inputs(graph.input_shape(), 5, 77);
        let refs: Vec<&Tensor<i8>> = xs.iter().collect();
        for n in [0, 1, 5] {
            let batched = prepared.run_batch(&refs[..n]).unwrap();
            assert_eq!(batched.len(), n);
            for (x, b) in xs.iter().zip(&batched) {
                let solo = prepared.run(x).unwrap();
                assert_eq!(b.output, solo.output, "plan={label} n={n}");
                assert_eq!(
                    b.matmul_compute_cycles, solo.matmul_compute_cycles,
                    "plan={label} n={n}"
                );
            }
        }
        // A wrong-shaped rider poisons the whole batch up front, and
        // the error names which request it was.
        let bad = Tensor::from_vec(&[3], vec![0i8; 3]).unwrap();
        let mut with_bad = refs.clone();
        with_bad.push(&bad);
        let err = prepared.run_batch(&with_bad).unwrap_err();
        assert!(
            err.to_string().contains("batch request 5"),
            "error must name the failing request: {err}"
        );
    }
}

/// A Linear DAG shares staging like a chain does: a graph of pure
/// Linear nodes that is not a chain (here: two linears both reading the
/// input node, one of them dead) keeps per-request values per node in
/// the one graph walk, so its Linear tiles stage once per batch and
/// every request still gets exactly its sequential result.
#[test]
fn linear_dag_is_token_coalesced_and_batches_correctly() {
    let nm = Nm::ONE_OF_EIGHT;
    let (c, k) = (64, 32);
    let mut w1 = random_i8(k * c, 41);
    make_exact_nm(&mut w1, k, c, nm);
    let l1 = LinearLayer::new(FcGeom::new(c, k).unwrap(), w1, Requant::for_dot_len(c)).unwrap();
    let mut w2 = random_i8(k * c, 43);
    make_exact_nm(&mut w2, k, c, nm);
    let l2 = LinearLayer::new(FcGeom::new(c, k).unwrap(), w2, Requant::for_dot_len(c)).unwrap();
    let mut b = GraphBuilder::new(&[c]);
    let _dead = b.linear(b.input(), l1).unwrap();
    let out = b.linear(b.input(), l2).unwrap();
    let graph = b.finish(out).unwrap();
    let opts = Options::new(Target::SparseIsa);
    let prepared = PreparedGraph::prepare(&graph, &opts).unwrap();
    assert_eq!(prepared.batch_plan(), BatchPlan::TokenCoalesced);
    let xs = random_inputs(&[c], 4, 47);
    let refs: Vec<&Tensor<i8>> = xs.iter().collect();
    for (x, run) in xs.iter().zip(prepared.run_batch(&refs).unwrap()) {
        let solo = prepared.run(x).unwrap();
        assert_eq!(run.output, solo.output);
        assert_eq!(run.matmul_compute_cycles, solo.matmul_compute_cycles);
    }
}

/// An L1 budget that K-tiles [`wide_vit`]'s feed-forward Linears while
/// its conv patch embedding still fits (asserted in the test).
const VIT_K_TILING_BUDGET: usize = 1536;

/// A one-block ViT with `vit_tiny_sparse_for_tests`'s structure but
/// wider feed-forward Linears and a smaller patch embedding: the tiny
/// ViT's embedding needs more L1 than its largest Linear does untiled,
/// so no budget K-tiles that model's Linears.
fn wide_vit(nm: Nm) -> Graph {
    let cfg = VitConfig {
        image: 8,
        patch: 4,
        dim: 64,
        depth: 1,
        heads: 2,
        mlp_ratio: 2,
        classes: 4,
    };
    let mut g = vit_small(&cfg, 6).unwrap();
    prune_graph(&mut g, nm, vit_ff_policy(nm, 16)).unwrap();
    g
}

/// `run_batch` over ViTs — conv patch embedding, attention and `[T, C]`
/// Linears, whose B×T rows run through each Linear tile as one token
/// stream — equals each request's own `run`, bit and cycle, on both
/// cycle-accurate tiers: at B = 2 and 5, with untiled (default budget)
/// and K-tiled Linears, and at a thread count whose token chunks
/// straddle request boundaries.
#[test]
fn run_batch_matches_individual_runs_on_vit() {
    let nm = Nm::ONE_OF_EIGHT;
    let tiny = vit_tiny_sparse_for_tests(nm, 4).unwrap();
    let wide = wide_vit(nm);
    let default_budget = Options::new(Target::SparseIsa).l1_budget;
    let mut k_tiled = Options::new(Target::SparseIsa);
    k_tiled.l1_budget = VIT_K_TILING_BUDGET;
    let ff_tiles: Vec<usize> = compile(&wide, &k_tiled)
        .unwrap()
        .layers
        .iter()
        .filter(|l| matches!(l.choice, Some(KernelChoice::FcSparseIsa(_))))
        .map(|l| l.n_tiles)
        .collect();
    assert!(
        ff_tiles.len() == 2 && ff_tiles.iter().all(|&n| n > 1),
        "the budget no longer K-tiles both feed-forward Linears: {ff_tiles:?}"
    );
    for (name, graph, l1_budget) in [
        ("vit-tiny", &tiny, default_budget),
        ("wide-vit-k-tiled", &wide, VIT_K_TILING_BUDGET),
    ] {
        for tier in [ExecTier::Bulk, ExecTier::Reference] {
            for host_threads in [1, 3] {
                let mut opts = Options::new(Target::SparseIsa);
                opts.tier = tier;
                opts.l1_budget = l1_budget;
                opts.host_threads = host_threads;
                let prepared = PreparedGraph::prepare(graph, &opts).unwrap();
                assert_eq!(prepared.batch_plan(), BatchPlan::ConvBatchMajor);
                for b in [2, 5] {
                    let xs = random_inputs(graph.input_shape(), b, 60 + b as u64);
                    let refs: Vec<&Tensor<i8>> = xs.iter().collect();
                    let batched = prepared.run_batch(&refs).unwrap();
                    assert_eq!(batched.len(), b);
                    for (i, (x, got)) in xs.iter().zip(&batched).enumerate() {
                        let solo = prepared.run(x).unwrap();
                        let at = format!("{name} {tier:?} threads={host_threads} b={b} req {i}");
                        assert_eq!(got.output, solo.output, "{at}");
                        assert_eq!(
                            got.matmul_compute_cycles, solo.matmul_compute_cycles,
                            "{at}"
                        );
                    }
                }
            }
        }
    }
}

// The conv-batch-major plan at model scale: the pruned ResNet-18
// serving model (16 sparse convs, residual Adds, pools, a final FC)
// served across worker counts × batch limits × both cycle-accurate
// tiers, every request's output and cycle total compared bit-for-bit
// against the sequential baseline. This is the configuration where conv
// tile weights genuinely stage once per batch — the tentpole
// determinism contract end to end.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "serves ResNet-18 many times; runs in release CI (cargo test --release)"
)]
fn resnet_conv_batch_major_matches_sequential() {
    let nm = Nm::ONE_OF_EIGHT;
    let graph = Arc::new(resnet18_cifar_serve_sparse(10, nm, 1).unwrap());
    let per_wave = 16;
    for tier in [ExecTier::Bulk, ExecTier::Reference] {
        let mut opts = Options::new(Target::SparseIsa);
        opts.tier = tier;
        let prepared = PreparedGraph::prepare(&graph, &opts).unwrap();
        assert_eq!(prepared.batch_plan(), BatchPlan::ConvBatchMajor);
        let seed = 200 + u64::from(tier == ExecTier::Bulk);
        let xs = random_inputs(graph.input_shape(), per_wave, seed);
        let expected: Vec<_> = xs.iter().map(|x| prepared.run(x).unwrap()).collect();

        for workers in [1, 2, 8] {
            for max_batch in [1, 4, 16] {
                let service = Service::start(ServiceConfig {
                    queue_capacity: 2 * per_wave,
                    max_batch,
                    workers,
                    tier,
                    ..ServiceConfig::default()
                });
                let model = service.register("resnet18", &graph, &opts).unwrap();
                // Queue the whole wave before the workers see any of it
                // so batch limits, not arrival timing, shape the batches.
                service.pause();
                let tickets: Vec<_> = xs
                    .iter()
                    .map(|x| service.submit(model, x.clone()).unwrap())
                    .collect();
                service.resume();
                for (ticket, want) in tickets.into_iter().zip(&expected) {
                    let got = ticket.wait().unwrap();
                    assert_eq!(
                        got.output, want.output,
                        "output diverged: workers={workers} max_batch={max_batch} {tier:?}"
                    );
                    assert_eq!(
                        got.sim_cycles,
                        Some(want.matmul_compute_cycles),
                        "cycles diverged: workers={workers} max_batch={max_batch} {tier:?}"
                    );
                    match got.mode {
                        BatchPlan::ConvBatchMajor => assert!(got.batch_size > 1),
                        BatchPlan::Sequential { .. } => assert!(
                            got.batch_size <= 1 || max_batch == 1,
                            "sequential mode with a shared batch: workers={workers} \
                             max_batch={max_batch} batch_size={}",
                            got.batch_size
                        ),
                        BatchPlan::TokenCoalesced => {
                            panic!("a conv graph cannot token-coalesce")
                        }
                    }
                }
                let stats = service.shutdown();
                assert_eq!(stats.completed, per_wave as u64);
                assert_eq!(stats.shed, 0, "queue was sized to admit everything");
                if workers == 1 && max_batch == 16 {
                    assert_eq!(
                        stats.max_coalesced, 16,
                        "one worker over a paused full wave coalesces it whole ({tier:?})"
                    );
                }
            }
        }
    }
}

/// Shared prepared models: `prepare_shared` hands out a `'static`
/// artifact that multiple threads can run concurrently with sequential
/// results (the primitive under the service's worker pool).
#[test]
fn shared_prepared_graph_is_concurrently_reusable() {
    let nm = Nm::ONE_OF_EIGHT;
    let graph = mlp_graph(nm);
    let opts = Options::new(Target::SparseIsa);
    let prepared = Arc::new(PreparedGraph::prepare_shared(Arc::clone(&graph), &opts).unwrap());
    let xs = random_inputs(graph.input_shape(), 6, 55);
    let expected: Vec<_> = xs.iter().map(|x| prepared.run(x).unwrap()).collect();
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let (prepared, xs, expected) = (Arc::clone(&prepared), &xs, &expected);
            scope.spawn(move || {
                for (x, want) in xs.iter().zip(expected) {
                    let got = prepared.run(x).unwrap();
                    assert_eq!(got.output, want.output);
                    assert_eq!(got.matmul_compute_cycles, want.matmul_compute_cycles);
                }
            });
        }
    });
}
