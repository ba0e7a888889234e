//! Host-throughput benchmark of the emulation engine itself (not of the
//! modeled hardware): simulated MACs per wall-clock second for the six
//! hot N:M/dense kernels, the three related-work baseline formats
//! (CSR / dCSR / blockwise), two **end-to-end networks**
//! (`net-resnet18-cifar`, `net-vit-tiny`) and six **serving rows**
//! (`net-serve-{resnet18,mlp}-b{1,4,16}`: requests/sec through the
//! `nm-serve` batched inference service per batch limit) on the
//! per-instruction reference path, the bulk fast path and analytic mode
//! (kernel workloads) or reference + bulk (network and serving
//! workloads).
//!
//! This is the perf trajectory behind `BENCH_engine.json`: the bulk fast
//! path exists to make sparsity/geometry sweeps cheap — on *both* sides
//! of the paper's format comparisons — so its speedup over the reference
//! (`speedup_vs_reference`) is the number later PRs must not regress.
//! The network rows measure what serving actually pays: one
//! [`PreparedGraph`] run per inference (compile-once, run-many — the
//! prepare step is excluded, packing is amortized away). The `perf_gate`
//! binary (see [`crate::gate`]) enforces all of it in CI against the
//! checked-in snapshot.

use nm_compiler::plan::Options;
use nm_compiler::{PreparedGraph, Target};
use nm_core::format::{BlockwiseMatrix, CsrMatrix, DcsrMatrix, NmMatrix, OffsetLayout};
use nm_core::quant::Requant;
use nm_core::sparsity::Nm;
use nm_core::{ConvGeom, FcGeom, Tensor};
use nm_isa::CostModel;
use nm_kernels::baseline::blockwise::{fc_blockwise, stage_blockwise_fc};
use nm_kernels::baseline::csr::{fc_csr, stage_csr_fc};
use nm_kernels::baseline::dcsr::{fc_dcsr, stage_dcsr_fc};
use nm_kernels::conv::dense::conv_dense_4x2;
use nm_kernels::conv::sparse_isa::conv_sparse_isa;
use nm_kernels::conv::sparse_sw::{conv_sparse_sw, SparseConvJob};
use nm_kernels::conv::{im2col_only, ConvJob};
use nm_kernels::fc::dense::fc_dense;
use nm_kernels::fc::sparse_isa::fc_sparse_isa;
use nm_kernels::fc::sparse_sw::{fc_sparse_sw, SparseFcJob};
use nm_kernels::fc::FcJob;
use nm_kernels::layout::{stage_conv_dense, stage_conv_sparse, stage_fc_dense, stage_fc_sparse};
use nm_kernels::testdata::{random_data, random_sparse_data};
use nm_kernels::{Ctx, KernelStats};
use nm_models::resnet::resnet18_cifar_sparse;
use nm_models::serve::{mlp_serve_sparse, resnet18_cifar_serve_sparse};
use nm_models::vit::vit_tiny_sparse_for_tests;
use nm_nn::graph::Graph;
use nm_nn::rng::XorShift;
use nm_platform::{Cluster, Scratchpad};
use nm_serve::{Service, ServiceConfig};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

/// Which execution path a measurement exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// Per-instruction emulation (`Ctx::Mem`).
    Reference,
    /// Bulk fast-path emulation (`Ctx::MemBulk`).
    Bulk,
    /// Charge-only analytic mode (`Ctx::Analytic`).
    Analytic,
}

impl Path {
    /// Every path, in report order; each kernel workload is measured on
    /// all of them.
    pub const ALL: [Path; 3] = [Path::Reference, Path::Bulk, Path::Analytic];

    /// Stable name used in the JSON report.
    pub fn name(self) -> &'static str {
        match self {
            Path::Reference => "reference",
            Path::Bulk => "bulk",
            Path::Analytic => "analytic",
        }
    }

    /// Inverse of [`Path::name`] (for re-ingesting parsed reports).
    pub fn from_name(name: &str) -> Option<Path> {
        Path::ALL.into_iter().find(|p| p.name() == name)
    }

    /// The [`nm_compiler::ExecTier`] a network/serving measurement on
    /// this path runs under ([`Path::Analytic`] is a planner mode, not
    /// an executor mode, and has no tier).
    pub fn tier(self) -> Option<nm_compiler::ExecTier> {
        match self {
            Path::Reference => Some(nm_compiler::ExecTier::Reference),
            Path::Bulk => Some(nm_compiler::ExecTier::Bulk),
            Path::Analytic => None,
        }
    }
}

/// One (kernel, path) measurement.
#[derive(Debug, Clone)]
pub struct EngineRow {
    /// Kernel name (e.g. `"conv-sparse-isa-1:8"`).
    pub kernel: String,
    /// Execution path measured.
    pub path: Path,
    /// Kernel invocations timed.
    pub reps: u32,
    /// Wall-clock seconds for all invocations.
    pub wall_s: f64,
    /// Dense-equivalent MACs simulated per invocation.
    pub dense_macs: u64,
    /// Simulated dense-equivalent MACs per wall-clock second.
    pub sim_macs_per_sec: f64,
    /// Simulated cycles per invocation (identical across paths — parity).
    pub sim_cycles: u64,
}

/// A kernel family's measurements across every path.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Rows in [`Path::ALL`] order per kernel.
    pub rows: Vec<EngineRow>,
}

impl EngineReport {
    /// Merges repeated suite runs into a best-of report: per
    /// `(kernel, path)` **row** the measurement with the highest
    /// throughput survives. Host timing noise (scheduler preemption,
    /// frequency scaling) only ever makes a run *slower*, so the per-row
    /// best is the stablest estimate of the engine's actual speed — use
    /// it for the checked-in snapshot and for the perf gate's in-process
    /// measurements.
    ///
    /// Rows are matched by `(kernel, path)` key, not by position, and
    /// the result is the **union** of all runs' rows (first-appearance
    /// order): a row present in one rep but missing from another — e.g.
    /// ragged reports from interrupted or differently-configured runs —
    /// is kept, never silently dropped.
    ///
    /// # Panics
    /// Panics if `reports` is empty.
    pub fn best_of(reports: Vec<EngineReport>) -> EngineReport {
        assert!(!reports.is_empty(), "at least one report");
        let mut rows: Vec<EngineRow> = Vec::new();
        for report in reports {
            for r in report.rows {
                match rows
                    .iter_mut()
                    .find(|b| b.kernel == r.kernel && b.path == r.path)
                {
                    Some(b) => {
                        if r.sim_macs_per_sec > b.sim_macs_per_sec {
                            *b = r;
                        }
                    }
                    None => rows.push(r),
                }
            }
        }
        EngineReport { rows }
    }

    /// Bulk-over-reference wall-clock speedup for `kernel`.
    pub fn speedup_vs_reference(&self, kernel: &str) -> Option<f64> {
        let find = |p: Path| {
            self.rows
                .iter()
                .find(|r| r.kernel == kernel && r.path == p)
                .map(|r| r.wall_s)
        };
        Some(find(Path::Reference)? / find(Path::Bulk)?)
    }

    /// Kernel names in report order (deduplicated).
    pub fn kernels(&self) -> Vec<String> {
        let mut names = Vec::new();
        for r in &self.rows {
            if !names.contains(&r.kernel) {
                names.push(r.kernel.clone());
            }
        }
        names
    }

    /// Renders the report as a JSON document (no external dependencies;
    /// stable key order for diffable snapshots).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"benchmark\": \"engine-throughput\",\n");
        out.push_str("  \"unit\": \"simulated dense-equivalent MACs per wall-clock second\",\n");
        out.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"kernel\": \"{}\", \"path\": \"{}\", \"reps\": {}, \
                 \"wall_s\": {:.6}, \"dense_macs\": {}, \"sim_cycles\": {}, \
                 \"sim_macs_per_sec\": {:.0}}}{}\n",
                r.kernel,
                r.path.name(),
                r.reps,
                r.wall_s,
                r.dense_macs,
                r.sim_cycles,
                r.sim_macs_per_sec,
                if i + 1 == self.rows.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n  \"speedup_bulk_vs_reference\": {\n");
        // Kernels missing either row have no speedup and are skipped.
        let pairs: Vec<(String, f64)> = self
            .kernels()
            .into_iter()
            .filter_map(|k| {
                let s = self.speedup_vs_reference(&k)?;
                Some((k, s))
            })
            .collect();
        for (i, (k, s)) in pairs.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {:.2}{}\n",
                k,
                s,
                if i + 1 == pairs.len() { "" } else { "," }
            ));
        }
        // The seed-baseline comparison only makes sense when every seed
        // kernel was measured; a filtered run just omits the section.
        let all_seed_present = SEED_REFERENCE_US.iter().all(|(k, _)| {
            self.rows
                .iter()
                .any(|r| r.kernel == *k && r.path == Path::Bulk)
        });
        let (Some((seed_total, bulk_total)), true) = (self.sparse_totals(), all_seed_present)
        else {
            out.push_str("  }\n}\n");
            return out;
        };
        out.push_str("  },\n  \"seed_baseline\": {\n");
        out.push_str(
            "    \"provenance\": \"per-instruction emulation at seed commit 5dc0993, \
             same workloads and machine; see nm_bench::engine::SEED_REFERENCE_US\",\n",
        );
        out.push_str("    \"wall_us_per_rep\": {\n");
        for (i, (k, us)) in SEED_REFERENCE_US.iter().enumerate() {
            out.push_str(&format!(
                "      \"{}\": {:.1}{}\n",
                k,
                us,
                if i + 1 == SEED_REFERENCE_US.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        out.push_str("    },\n    \"speedup_bulk_vs_seed\": {\n");
        for (i, (k, us)) in SEED_REFERENCE_US.iter().enumerate() {
            let s = self.speedup_vs_seed(k, *us).unwrap_or(f64::NAN);
            out.push_str(&format!(
                "      \"{}\": {:.2}{}\n",
                k,
                s,
                if i + 1 == SEED_REFERENCE_US.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        out.push_str("    },\n");
        out.push_str(&format!(
            "    \"sparse_benches_aggregate_speedup\": {:.2}\n",
            seed_total / bulk_total
        ));
        out.push_str("  }\n}\n");
        out
    }

    /// Bulk wall-clock speedup of `kernel` over the recorded seed
    /// baseline (`seed_us` microseconds per invocation).
    pub fn speedup_vs_seed(&self, kernel: &str, seed_us: f64) -> Option<f64> {
        let row = self
            .rows
            .iter()
            .find(|r| r.kernel == kernel && r.path == Path::Bulk)?;
        Some(seed_us * 1e-6 / (row.wall_s / f64::from(row.reps)))
    }

    /// (seed, bulk) total seconds per invocation summed over the four
    /// sparse FC/conv kernels — the aggregate the acceptance criterion
    /// tracks. `None` when any seed kernel has no bulk measurement
    /// (e.g. a filtered run): a partial sum would silently inflate the
    /// aggregate, so none is reported instead.
    pub fn sparse_totals(&self) -> Option<(f64, f64)> {
        let mut seed = 0.0;
        let mut bulk = 0.0;
        for (k, us) in SEED_REFERENCE_US {
            if !k.contains("sparse") {
                continue;
            }
            let row = self
                .rows
                .iter()
                .find(|r| r.kernel == k && r.path == Path::Bulk)?;
            seed += us * 1e-6;
            bulk += row.wall_s / f64::from(row.reps);
        }
        Some((seed, bulk))
    }
}

/// Wall-clock per invocation, in microseconds, of the *seed tree's*
/// per-instruction emulation (commit `5dc0993`, the state before the bulk
/// engine PR) on the exact workloads of [`run_suite`], measured on the
/// reference build machine (50–100 reps, two confirming runs). The seed
/// had no manifests, so the measurement procedure was:
/// `git worktree add DIR 5dc0993`, add the minimal crate manifests, build
/// `--release`
/// (no LTO — the seed defined no profile) and time `Ctx::Mem` runs of
/// the staged jobs. These are the "before" numbers the acceptance
/// criterion compares against; they are machine-specific, like every
/// wall-clock row in the snapshot.
pub const SEED_REFERENCE_US: [(&str, f64); 6] = [
    ("fc-dense-1x2", 340.0),
    ("fc-sparse-sw-1:8", 110.5),
    ("fc-sparse-isa-1:8", 143.0),
    ("conv-dense-4x2", 2025.0),
    ("conv-sparse-sw-1:8", 782.0),
    ("conv-sparse-isa-1:8", 1335.0),
];

fn ctx_for<'a>(path: Path, l1: &'a mut Scratchpad) -> Ctx<'a> {
    match path {
        Path::Reference => Ctx::Mem(l1),
        Path::Bulk => Ctx::MemBulk(l1),
        Path::Analytic => Ctx::Analytic,
    }
}

fn time_paths<F>(rows: &mut Vec<EngineRow>, l1: &Scratchpad, reps: u32, run: F)
where
    F: Fn(&mut Ctx<'_>) -> KernelStats,
{
    for path in Path::ALL {
        let mut scratch = l1.clone();
        // One warm-up invocation, also the source of name/stats.
        let stats = run(&mut ctx_for(path, &mut scratch));
        let t = Instant::now();
        for _ in 0..reps {
            let mut scratch_ctx = ctx_for(path, &mut scratch);
            let s = run(&mut scratch_ctx);
            std::hint::black_box(s.cluster.cycles);
        }
        let wall_s = t.elapsed().as_secs_f64();
        rows.push(EngineRow {
            kernel: stats.name.clone(),
            path,
            reps,
            wall_s,
            dense_macs: stats.dense_macs,
            sim_macs_per_sec: (stats.dense_macs as f64 * f64::from(reps)) / wall_s,
            sim_cycles: stats.cycles(),
        });
    }
}

/// Every workload in the suite, in registry (and report) order — the
/// names `--filter` matches against. `run_suite_filtered` asserts the
/// registry against this list, so it cannot drift from the measured
/// kernel names.
pub const WORKLOAD_NAMES: [&str; 19] = [
    "fc-dense-1x2",
    "fc-sparse-sw-1:8",
    "fc-sparse-isa-1:8",
    "fc-csr",
    "fc-dcsr",
    "fc-blockwise-1x4",
    "conv-dense-4x2",
    "conv-sparse-sw-1:8",
    "conv-sparse-isa-1:8",
    "im2col-3x3s1p1",
    "im2col-5x5s2p2",
    "net-resnet18-cifar",
    "net-vit-tiny",
    "net-serve-resnet18-b1",
    "net-serve-resnet18-b4",
    "net-serve-resnet18-b16",
    "net-serve-mlp-b1",
    "net-serve-mlp-b4",
    "net-serve-mlp-b16",
];

/// The heavy network workload (ResNet18) is ~2 orders of magnitude
/// more simulated work per rep than the kernel workloads; its rep count
/// is divided by this (at least 1) so a full-suite run stays bounded
/// while the per-row `reps` field remains accurate. Use `--filter net-`
/// with explicit reps for high-precision network measurements.
pub const NET_REPS_DIVISOR: u32 = 5;

/// The light network workload (tiny ViT) is ~2 orders of magnitude
/// *less* wall-clock per rep than the kernel workloads (~150 µs); its
/// rep count is multiplied by this so the measured interval stays far
/// above scheduler-noise scale — without it, the row's sub-millisecond
/// CI measurements swing more than the perf gate's 25 % threshold.
pub const NET_LIGHT_REPS_FACTOR: u32 = 20;

/// Requests per serving wave: one `net-serve-*` rep submits this many
/// requests through the service and waits for all of them, so a batch
/// limit of 16 forms exactly one full batch, 4 forms four, 1 sixteen.
pub const SERVE_REQUESTS: usize = 16;

/// Rep divisor for the conv-heavy `net-serve-resnet18-*` rows: one rep
/// is a whole [`SERVE_REQUESTS`]-request wave (16 inferences of the
/// half-width serve ResNet18 on *both* emulation paths), so the CI
/// gate's default reps collapse to a single wave per batch size — full
/// rep counts only make sense in the snapshot-refresh run.
pub const NET_SERVE_REPS_DIVISOR: u32 = 25;

/// Times [`PreparedGraph::run`] per inference on each of `paths` (the
/// analytic path is a planner mode, not an executor mode — network rows
/// have no analytic measurement). The prepare step runs once outside
/// the timed loop: these rows measure the compile-once / run-many split
/// serving pays, with packing fully amortized.
fn time_network(
    rows: &mut Vec<EngineRow>,
    name: &str,
    graph: &Graph,
    target: Target,
    reps: u32,
    paths: &[Path],
) {
    let mut rng = XorShift::new(11);
    let shape = graph.input_shape().to_vec();
    let elems: usize = shape.iter().product();
    let input = Tensor::from_vec(&shape, rng.fill_weights(elems, 50)).unwrap();
    let dense_macs = graph.dense_macs() as u64;
    for &path in paths {
        let mut opts = Options::new(target);
        opts.tier = path.tier().expect("network paths are executor tiers");
        let prepared = PreparedGraph::prepare(graph, &opts).expect("network compiles");
        // One warm-up inference, also the source of the cycle total.
        let warm = prepared.run(&input).expect("network runs");
        let t = Instant::now();
        for _ in 0..reps {
            let r = prepared.run(&input).expect("network runs");
            std::hint::black_box(r.matmul_compute_cycles);
        }
        let wall_s = t.elapsed().as_secs_f64();
        rows.push(EngineRow {
            kernel: name.to_string(),
            path,
            reps,
            wall_s,
            dense_macs,
            sim_macs_per_sec: (dense_macs as f64 * f64::from(reps)) / wall_s,
            sim_cycles: warm.matmul_compute_cycles,
        });
    }
}

/// Times the batched inference service end to end (`nm-serve`): per
/// rep, one *wave* of [`SERVE_REQUESTS`] requests with distinct inputs
/// is submitted to a single-worker service and fully drained. What is
/// timed is everything serving pays after compile time — submission,
/// queueing, same-model coalescing up to `max_batch`, execution through
/// the shared [`PreparedGraph`] (the multi-token path when the model is
/// coalescible) and response delivery; preparation happens once outside
/// the loop. One worker and `host_threads = 1` keep the three batch
/// sizes comparable on any host: the batch limit is the only variable,
/// so requests/sec across the `-b1`/`-b4`/`-b16` rows isolates what
/// batching itself buys.
///
/// `sim_cycles` is the wave's summed per-request cycle total — the
/// service's determinism contract makes it identical across paths *and*
/// batch sizes (asserted by the engine tests). Requests/sec for a row
/// is `SERVE_REQUESTS * sim_macs_per_sec / dense_macs` — `dense_macs`
/// is per wave, so dividing by it alone gives waves/sec.
///
/// Every row also gates the service's metrics export: scraped after the
/// timed waves, it must parse and reconcile with the service's own
/// ledgers exactly. Fault soaks live in `tests/tests/serve_chaos.rs`
/// and [`crate::loadgen`], not here.
fn time_serve(
    rows: &mut Vec<EngineRow>,
    name: &str,
    graph: &Arc<Graph>,
    target: Target,
    reps: u32,
    max_batch: usize,
) {
    let shape = graph.input_shape().to_vec();
    let elems: usize = shape.iter().product();
    let mut rng = XorShift::new(19);
    let inputs: Vec<Tensor<i8>> = (0..SERVE_REQUESTS)
        .map(|_| Tensor::from_vec(&shape, rng.fill_weights(elems, 50)).unwrap())
        .collect();
    let dense_macs = (graph.dense_macs() * SERVE_REQUESTS) as u64;
    for path in [Path::Reference, Path::Bulk] {
        let mut opts = Options::new(target);
        opts.host_threads = 1;
        let service = Service::start(ServiceConfig {
            // Sized for one wave: at most SERVE_REQUESTS are ever
            // outstanding, so nothing is shed out of the measurement.
            queue_capacity: SERVE_REQUESTS,
            max_batch,
            workers: 1,
            // The measured emulation path is the service's tier (the
            // service overrides `opts.tier` at registration).
            tier: path.tier().expect("serve paths are executor tiers"),
            ..ServiceConfig::default()
        });
        let model = service
            .register(name, graph, &opts)
            .expect("model prepares");
        // The BatchPlan the wave actually executed under, for the
        // stderr summary: "sequential" batches share no work, so a
        // `-b16` row that reports it would be measuring nothing.
        let mode = Cell::new("unexecuted");
        let wave = || -> u64 {
            // Pause/resume shapes every wave identically: all 16
            // requests are queued before the worker consumes, so the
            // batch structure is exactly `16 / max_batch` full batches
            // on every host — the `-b1`/`-b4`/`-b16` rows differ only
            // in the batch limit, never in scheduling luck.
            service.pause();
            let tickets: Vec<_> = inputs
                .iter()
                .map(|x| {
                    service
                        .submit(model, x.clone())
                        .expect("queue fits the wave")
                })
                .collect();
            service.resume();
            tickets
                .into_iter()
                .map(|t| {
                    let r = t.wait().expect("request completes");
                    mode.set(r.mode.label());
                    r.sim_cycles.expect("serve results carry cycles")
                })
                .sum()
        };
        // One warm-up wave, also the source of the cycle total.
        let warm_cycles = wave();
        let t = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(wave());
        }
        let wall_s = t.elapsed().as_secs_f64();
        // Scrape before shutdown consumes the service; the wave loop
        // fully drained (every ticket resolved), so this is a quiesced
        // export and must reconcile with the ledgers exactly. The text
        // stays on stderr: metrics never enter EngineRow or the JSON
        // snapshot.
        let metrics = nm_serve::metrics::parse_text(&service.metrics_text())
            .unwrap_or_else(|e| panic!("serve metrics export must parse for {name} {path:?}: {e}"));
        metrics
            .check_quiesced(&service.stats(), &service.cache_stats())
            .unwrap_or_else(|e| {
                panic!("serve metrics export must reconcile for {name} {path:?}: {e}")
            });
        service.shutdown();
        eprintln!(
            "[serve] {name} {path:?}: mode={} batch_limit={max_batch}",
            mode.get()
        );
        eprintln!(
            "[metrics] {name} {path:?}: export reconciled \
             (submitted={} completed={} models={} queue_high_water={})",
            metrics.service.submitted,
            metrics.service.completed,
            metrics.models.len(),
            metrics.queue_depth_high_water,
        );
        rows.push(EngineRow {
            kernel: name.to_string(),
            path,
            reps,
            wall_s,
            dense_macs,
            sim_macs_per_sec: (dense_macs as f64 * f64::from(reps)) / wall_s,
            sim_cycles: warm_cycles,
        });
    }
}

/// Runs the full engine-throughput suite: sparse + dense FC and conv
/// kernels at 1:8 (the paper's headline pattern) on every execution
/// path, plus the end-to-end network workloads (reference + bulk).
///
/// `reps` controls timing accuracy; the checked-in snapshot uses the
/// `engine` binary's default.
pub fn run_suite(reps: u32) -> EngineReport {
    run_suite_filtered(reps, None)
}

/// [`run_suite`] restricted to workloads whose name contains `filter`
/// (all of them when `None`) — the `engine` / `perf_gate` binaries'
/// `--filter` selector, which bounds a run's cost to the rows under
/// investigation while keeping their names and measurements identical to
/// a full run's.
pub fn run_suite_filtered(reps: u32, filter: Option<&str>) -> EngineReport {
    let mut rows = Vec::new();
    let nm = Nm::ONE_OF_EIGHT;
    let cluster = Cluster::new(8, CostModel::default());

    // Shared workload data. FC 1024 -> 256 is the Fig. 8 FC workload;
    // conv 16x16x32 -> 32 (3x3) a mid-size CNN layer; the unstructured /
    // blockwise weights match the N:M workloads' ~87.5 % sparsity (one
    // non-zero per 8 weights, one kept 1x4 block per 8).
    let fc_geom = FcGeom::new(1024, 256).unwrap();
    let fc_input = random_data(fc_geom.c, 3);
    let fc_dense_w = random_data(fc_geom.weight_elems(), 17);
    let fc_unstructured_w = random_sparse_data(fc_geom.weight_elems(), 8, 77);
    let conv_geom = ConvGeom::square(32, 32, 16, 3, 1, 1).unwrap();
    let conv_input = random_data(conv_geom.input_elems(), 7);
    let conv_dense_w = random_data(conv_geom.weight_elems(), 13);

    let fc_l1 = |w: &NmMatrix, rq_len: usize| {
        let mut l1 = Scratchpad::new("l1", 512 * 1024);
        let bufs = stage_fc_sparse(&mut l1, &fc_geom, &fc_input, w).unwrap();
        let job = SparseFcJob {
            fc: FcJob {
                geom: fc_geom,
                requant: Requant::for_dot_len(rq_len),
                bufs,
            },
            nm,
        };
        (l1, job)
    };
    let conv_l1 = |w: &NmMatrix| {
        let mut l1 = Scratchpad::new("l1", 2 * 1024 * 1024);
        let bufs = stage_conv_sparse(&mut l1, &conv_geom, &conv_input, w, 8).unwrap();
        let job = SparseConvJob {
            conv: ConvJob {
                geom: conv_geom,
                requant: Requant::for_dot_len(conv_geom.patch_len() / nm.m()),
                bufs,
            },
            nm,
        };
        (l1, job)
    };
    let im2col_l1 = |geom: ConvGeom, input_seed: u64, w_seed: u64| {
        let input = random_data(geom.input_elems(), input_seed);
        let weights = random_data(geom.weight_elems(), w_seed);
        let mut l1 = Scratchpad::new("l1", 2 * 1024 * 1024);
        let bufs = stage_conv_dense(&mut l1, &geom, &input, &weights, 8).unwrap();
        let job = ConvJob {
            geom,
            requant: Requant::IDENTITY,
            bufs,
        };
        (l1, job)
    };

    // The network and serving families' graphs, built (and pruned) once
    // and shared by each family's rows — lazily, so filtered runs that
    // skip a family don't pay its build. Declared before the registry so the
    // row closures can borrow them.
    let net_resnet: std::cell::OnceCell<Graph> = std::cell::OnceCell::new();
    let net_vit: std::cell::OnceCell<Graph> = std::cell::OnceCell::new();
    let serve_resnet: std::cell::OnceCell<Arc<Graph>> = std::cell::OnceCell::new();
    let serve_mlp: std::cell::OnceCell<Arc<Graph>> = std::cell::OnceCell::new();

    // The workload registry: each entry's name is asserted against the
    // rows it produces, so the `--filter` names cannot drift from the
    // measured kernel names.
    type Runner<'a> = Box<dyn Fn(&mut Vec<EngineRow>, u32) + 'a>;
    let mut workloads: Vec<(&'static str, Runner)> = vec![
        (
            "fc-dense-1x2",
            Box::new(|rows, reps| {
                let mut l1 = Scratchpad::new("l1", 512 * 1024);
                let bufs = stage_fc_dense(&mut l1, &fc_geom, &fc_input, &fc_dense_w).unwrap();
                let job = FcJob {
                    geom: fc_geom,
                    requant: Requant::for_dot_len(fc_geom.c),
                    bufs,
                };
                time_paths(rows, &l1, reps, |ctx| {
                    fc_dense(ctx, &job, &cluster).unwrap()
                });
            }),
        ),
        (
            "fc-sparse-sw-1:8",
            Box::new(|rows, reps| {
                let w = NmMatrix::prune_from_dense(
                    &fc_dense_w,
                    fc_geom.k,
                    fc_geom.c,
                    nm,
                    OffsetLayout::Plain,
                )
                .unwrap();
                let (l1, job) = fc_l1(&w, fc_geom.c / nm.m());
                time_paths(rows, &l1, reps, |ctx| {
                    fc_sparse_sw(ctx, &job, &cluster).unwrap()
                });
            }),
        ),
        (
            "fc-sparse-isa-1:8",
            Box::new(|rows, reps| {
                let w = NmMatrix::prune_from_dense(
                    &fc_dense_w,
                    fc_geom.k,
                    fc_geom.c,
                    nm,
                    OffsetLayout::Interleaved,
                )
                .unwrap();
                let (l1, job) = fc_l1(&w, fc_geom.c / nm.m());
                time_paths(rows, &l1, reps, |ctx| {
                    fc_sparse_isa(ctx, &job, &cluster).unwrap()
                });
            }),
        ),
        (
            "fc-csr",
            Box::new(|rows, reps| {
                let w = CsrMatrix::from_dense(&fc_unstructured_w, fc_geom.k, fc_geom.c).unwrap();
                let fc = FcJob {
                    geom: fc_geom,
                    requant: Requant::for_dot_len(fc_geom.c / 8),
                    bufs: Default::default(),
                };
                let mut l1 = Scratchpad::new("l1", 512 * 1024);
                let job = stage_csr_fc(&mut l1, &fc, &fc_input, &w).unwrap();
                time_paths(rows, &l1, reps, |ctx| fc_csr(ctx, &job, &cluster).unwrap());
            }),
        ),
        (
            "fc-dcsr",
            Box::new(|rows, reps| {
                let w = DcsrMatrix::from_dense(&fc_unstructured_w, fc_geom.k, fc_geom.c).unwrap();
                let fc = FcJob {
                    geom: fc_geom,
                    requant: Requant::for_dot_len(fc_geom.c / 8),
                    bufs: Default::default(),
                };
                let mut l1 = Scratchpad::new("l1", 512 * 1024);
                let job = stage_dcsr_fc(&mut l1, &fc, &fc_input, &w).unwrap();
                time_paths(rows, &l1, reps, |ctx| fc_dcsr(ctx, &job, &cluster).unwrap());
            }),
        ),
        (
            "fc-blockwise-1x4",
            Box::new(|rows, reps| {
                let keep = fc_geom.c / 4 / 8; // one kept 1x4 block per 8
                let w =
                    BlockwiseMatrix::prune_from_dense(&fc_dense_w, fc_geom.k, fc_geom.c, 4, keep)
                        .unwrap();
                let fc = FcJob {
                    geom: fc_geom,
                    requant: Requant::for_dot_len(fc_geom.c / 8),
                    bufs: Default::default(),
                };
                let mut l1 = Scratchpad::new("l1", 512 * 1024);
                let job = stage_blockwise_fc(&mut l1, &fc, &fc_input, &w).unwrap();
                time_paths(rows, &l1, reps, |ctx| {
                    fc_blockwise(ctx, &job, &cluster).unwrap()
                });
            }),
        ),
        (
            "conv-dense-4x2",
            Box::new(|rows, reps| {
                let mut l1 = Scratchpad::new("l1", 2 * 1024 * 1024);
                let bufs =
                    stage_conv_dense(&mut l1, &conv_geom, &conv_input, &conv_dense_w, 8).unwrap();
                let job = ConvJob {
                    geom: conv_geom,
                    requant: Requant::for_dot_len(conv_geom.patch_len()),
                    bufs,
                };
                time_paths(rows, &l1, reps, |ctx| {
                    conv_dense_4x2(ctx, &job, &cluster).unwrap()
                });
            }),
        ),
        (
            "conv-sparse-sw-1:8",
            Box::new(|rows, reps| {
                let w = NmMatrix::prune_from_dense(
                    &conv_dense_w,
                    conv_geom.k,
                    conv_geom.patch_len(),
                    nm,
                    OffsetLayout::Plain,
                )
                .unwrap();
                let (l1, job) = conv_l1(&w);
                time_paths(rows, &l1, reps, |ctx| {
                    conv_sparse_sw(ctx, &job, &cluster).unwrap()
                });
            }),
        ),
        (
            "conv-sparse-isa-1:8",
            Box::new(|rows, reps| {
                let w = NmMatrix::prune_from_dense(
                    &conv_dense_w,
                    conv_geom.k,
                    conv_geom.patch_len(),
                    nm,
                    OffsetLayout::Duplicated,
                )
                .unwrap();
                let (l1, job) = conv_l1(&w);
                time_paths(rows, &l1, reps, |ctx| {
                    conv_sparse_isa(ctx, &job, &cluster).unwrap()
                });
            }),
        ),
        // The conv kernels' shared partial-im2col step in isolation —
        // the fixed data-movement tax of Sec. 4.1.2. On the reference
        // path every position pair rebuilds both patch buffers; the bulk
        // path charges the identical cost closed-form and materializes
        // only each core's final patches, so these rows track the
        // incremental-im2col win the perf gate guards. Two geometries:
        // the conv workload's own 3x3 stride-1 pad-1 shape, and a
        // strided 5x5 pad-2 shape whose rows mix every padding class.
        (
            "im2col-3x3s1p1",
            Box::new(|rows, reps| {
                let (l1, job) = im2col_l1(conv_geom, 7, 13);
                time_paths(rows, &l1, reps, |ctx| {
                    im2col_only("im2col-3x3s1p1", ctx, &job, &cluster)
                });
            }),
        ),
        (
            "im2col-5x5s2p2",
            Box::new(|rows, reps| {
                let (l1, job) = im2col_l1(ConvGeom::square(16, 8, 32, 5, 2, 2).unwrap(), 23, 29);
                time_paths(rows, &l1, reps, |ctx| {
                    im2col_only("im2col-5x5s2p2", ctx, &job, &cluster)
                });
            }),
        ),
        // End-to-end networks through the compile-once executor: the
        // paper's CIFAR ResNet18 pruned to 1:8 on the `xDecimate`
        // target, and the multi-token tiny ViT with 1:8 feed-forward
        // layers (attention stays dense) — prepare once, run many.
        (
            "net-resnet18-cifar",
            Box::new(|rows, reps| {
                let g = net_resnet.get_or_init(|| resnet18_cifar_sparse(100, nm, 1).unwrap());
                time_network(
                    rows,
                    "net-resnet18-cifar",
                    g,
                    Target::SparseIsa,
                    reps.div_ceil(NET_REPS_DIVISOR),
                    &[Path::Reference, Path::Bulk],
                );
            }),
        ),
        (
            "net-vit-tiny",
            Box::new(|rows, reps| {
                let g = net_vit.get_or_init(|| vit_tiny_sparse_for_tests(nm, 4).unwrap());
                time_network(
                    rows,
                    "net-vit-tiny",
                    g,
                    Target::SparseIsa,
                    reps.saturating_mul(NET_LIGHT_REPS_FACTOR),
                    &[Path::Reference, Path::Bulk],
                );
            }),
        ),
    ];
    // The serving workloads: requests/sec through the `nm-serve`
    // batched inference service at batch limits 1 / 4 / 16, for a
    // conv-dominated model (the half-width serve ResNet18 — batching
    // amortizes queue/dispatch overhead only, so the three rows should
    // be near-identical and batch-16 must not regress) and for a
    // coalescible sparse MLP (the multi-token path stages each tile's
    // weights once per batch — batching buys real staging work). The
    // snapshot test in `crate::gate` pins the batching floors on the
    // checked-in baseline for both families.
    for (name, batch) in [
        ("net-serve-resnet18-b1", 1),
        ("net-serve-resnet18-b4", 4),
        ("net-serve-resnet18-b16", 16),
    ] {
        let serve_resnet = &serve_resnet;
        workloads.push((
            name,
            Box::new(move |rows: &mut Vec<EngineRow>, reps: u32| {
                let g = serve_resnet
                    .get_or_init(|| Arc::new(resnet18_cifar_serve_sparse(10, nm, 1).unwrap()));
                time_serve(
                    rows,
                    name,
                    g,
                    Target::SparseIsa,
                    reps.div_ceil(NET_SERVE_REPS_DIVISOR),
                    batch,
                );
            }),
        ));
    }
    for (name, batch) in [
        ("net-serve-mlp-b1", 1),
        ("net-serve-mlp-b4", 4),
        ("net-serve-mlp-b16", 16),
    ] {
        let serve_mlp = &serve_mlp;
        workloads.push((
            name,
            Box::new(move |rows: &mut Vec<EngineRow>, reps: u32| {
                let g = serve_mlp.get_or_init(|| {
                    Arc::new(mlp_serve_sparse(&[1024, 512, 256, 64], nm, 3).unwrap())
                });
                time_serve(rows, name, g, Target::SparseIsa, reps, batch);
            }),
        ));
    }

    // Hard assertions (not debug_assert): the snapshot and the CI gate
    // input are produced by release builds, which is exactly where a
    // drifted name would otherwise slip through.
    assert_eq!(
        workloads.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        WORKLOAD_NAMES,
        "workload registry drifted from WORKLOAD_NAMES"
    );
    for (name, run) in &workloads {
        if filter.is_some_and(|f| !name.contains(f)) {
            continue;
        }
        let start = rows.len();
        run(&mut rows, reps);
        assert!(
            rows[start..].iter().all(|r| &r.kernel == name),
            "workload {name} produced rows under a different kernel name"
        );
    }
    EngineReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry covers nineteen workloads with stable names. The
    /// full suite is exercised in release (snapshot + CI perf gate);
    /// here the debug-mode test executes cheap subsets — the FC kernels
    /// for three-path coverage and the tiny-ViT network for the net-row
    /// shape — instead of paying for a per-instruction ResNet18
    /// emulation on every `cargo test`.
    #[test]
    fn suite_covers_every_workload() {
        assert_eq!(WORKLOAD_NAMES.len(), 19);
        for k in [
            "fc-csr",
            "fc-dcsr",
            "fc-blockwise-1x4",
            "im2col-3x3s1p1",
            "im2col-5x5s2p2",
            "net-resnet18-cifar",
            "net-vit-tiny",
            "net-serve-resnet18-b1",
            "net-serve-resnet18-b4",
            "net-serve-resnet18-b16",
            "net-serve-mlp-b1",
            "net-serve-mlp-b4",
            "net-serve-mlp-b16",
        ] {
            assert!(WORKLOAD_NAMES.contains(&k), "missing workload {k}");
        }

        // Kernel workloads: three paths each, path-independent cycles
        // (parity), positive bulk-vs-reference speedups.
        let report = run_suite_filtered(1, Some("fc-"));
        let kernels = report.kernels();
        assert_eq!(kernels.len(), 6);
        assert_eq!(report.rows.len(), 6 * 3);
        for k in &kernels {
            assert!(report.speedup_vs_reference(k).unwrap() > 0.0, "{k}");
            let cycles: Vec<u64> = report
                .rows
                .iter()
                .filter(|r| &r.kernel == k)
                .map(|r| r.sim_cycles)
                .collect();
            assert!(cycles.windows(2).all(|w| w[0] == w[1]), "{k}: {cycles:?}");
        }

        // Network rows: reference + bulk (no analytic executor mode)
        // with identical cycle totals across the two paths — pinning
        // the whole compiled executor's cross-path parity.
        let net = run_suite_filtered(1, Some("net-vit-tiny"));
        assert_eq!(net.rows.len(), 2, "reference and bulk rows");
        assert_eq!(net.rows[0].path, Path::Reference);
        assert_eq!(net.rows[1].path, Path::Bulk);
        assert_eq!(net.rows[0].sim_cycles, net.rows[1].sim_cycles);
        assert!(net.speedup_vs_reference("net-vit-tiny").unwrap() > 0.0);
        assert!(!net.to_json().contains("NaN"));
    }

    /// Serving rows: reference + bulk per batch size, and — the
    /// determinism contract through the bench harness — the wave's
    /// summed per-request cycle total is identical across *both paths
    /// and all batch limits* (batching never changes what a request is
    /// charged). Uses the cheap MLP family; the resnet-serve family
    /// runs the identical harness in release (snapshot + CI gate).
    #[test]
    fn serve_rows_have_batch_invariant_cycles() {
        let report = run_suite_filtered(1, Some("net-serve-mlp"));
        assert_eq!(
            report.kernels(),
            vec!["net-serve-mlp-b1", "net-serve-mlp-b4", "net-serve-mlp-b16"]
        );
        assert_eq!(report.rows.len(), 3 * 2);
        let cycles: Vec<u64> = report.rows.iter().map(|r| r.sim_cycles).collect();
        assert!(
            cycles.windows(2).all(|w| w[0] == w[1]),
            "per-wave cycles varied across paths/batch sizes: {cycles:?}"
        );
        for r in &report.rows {
            assert!(matches!(r.path, Path::Reference | Path::Bulk));
            assert!(r.sim_macs_per_sec > 0.0);
        }
    }

    /// `--filter` must select exactly the matching workloads, with the
    /// same names a full run produces.
    #[test]
    fn filtered_suite_selects_matching_workloads() {
        let report = run_suite_filtered(1, Some("im2col"));
        assert_eq!(report.kernels(), vec!["im2col-3x3s1p1", "im2col-5x5s2p2"]);
        assert_eq!(report.rows.len(), 2 * 3);
        let none = run_suite_filtered(1, Some("no-such-workload"));
        assert!(none.rows.is_empty());
    }

    #[test]
    fn best_of_keeps_fastest_rows() {
        let a = run_suite_filtered(1, Some("fc-dense"));
        let mut b = a.clone();
        // Make one run strictly slower everywhere; best-of must recover a.
        for r in &mut b.rows {
            r.sim_macs_per_sec /= 2.0;
            r.wall_s *= 2.0;
        }
        let best = EngineReport::best_of(vec![b, a.clone()]);
        for (x, y) in best.rows.iter().zip(&a.rows) {
            assert_eq!(x.sim_macs_per_sec, y.sim_macs_per_sec);
        }
    }

    fn row(kernel: &str, path: Path, macs: f64) -> EngineRow {
        EngineRow {
            kernel: kernel.into(),
            path,
            reps: 1,
            wall_s: 1.0,
            dense_macs: 1,
            sim_macs_per_sec: macs,
            sim_cycles: 1,
        }
    }

    /// Ragged reps: best-of must merge by `(kernel, path)` key and keep
    /// the union of rows — a row measured in only one rep survives, a
    /// row measured in several keeps its per-row best, and reordered
    /// reports don't pair unrelated rows.
    #[test]
    fn best_of_merges_ragged_and_reordered_reps() {
        let rep1 = EngineReport {
            rows: vec![
                row("a", Path::Reference, 10.0),
                row("a", Path::Bulk, 100.0),
                row("only-in-1", Path::Bulk, 7.0),
            ],
        };
        let rep2 = EngineReport {
            rows: vec![
                // Reordered relative to rep1, and missing "only-in-1".
                row("a", Path::Bulk, 150.0),
                row("a", Path::Reference, 5.0),
                row("only-in-2", Path::Bulk, 9.0),
            ],
        };
        let best = EngineReport::best_of(vec![rep1, rep2]);
        assert_eq!(best.rows.len(), 4);
        let get = |k: &str, p: Path| {
            best.rows
                .iter()
                .find(|r| r.kernel == k && r.path == p)
                .unwrap_or_else(|| panic!("row {k}/{p:?} dropped"))
                .sim_macs_per_sec
        };
        assert_eq!(get("a", Path::Reference), 10.0);
        assert_eq!(get("a", Path::Bulk), 150.0);
        assert_eq!(get("only-in-1", Path::Bulk), 7.0);
        assert_eq!(get("only-in-2", Path::Bulk), 9.0);
    }

    #[test]
    fn json_is_well_formed_enough_to_diff() {
        let report = run_suite_filtered(1, Some("fc-"));
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with("}\n"));
        assert_eq!(json.matches("\"kernel\"").count(), report.rows.len());
        assert!(json.contains("speedup_bulk_vs_reference"));
    }
}
