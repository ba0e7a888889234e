//! The three workloads: their models and configuration, the measured
//! set-up, the sequential oracle, and the closed timed loops.

use crate::host;
use crate::trace::Tracer;
use nm_bench::loadgen::{unit_f64, ZipfSampler};
use nm_compiler::exec::EmulatedRun;
use nm_compiler::{Options, PreparedGraph, Target};
use nm_core::sparsity::Nm;
use nm_core::Tensor;
use nm_models::{ds_cnn_kws, mlp_serve_sparse, vit_small, VitConfig};
use nm_nn::graph::Graph;
use nm_nn::prune::{prune_graph, resnet_policy, vit_ff_policy};
use nm_nn::rng::XorShift;
use nm_serve::{BatchPlan, ModelId, Service, ServiceConfig, ServiceStats, Ticket};
use std::collections::VecDeque;
use std::error::Error;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type Res<T> = Result<T, Box<dyn Error>>;

/// Every model is pruned to this pattern and runs on the xDecimate
/// kernels ([`Target::SparseIsa`]).
pub const NM: Nm = Nm::ONE_OF_EIGHT;
/// Seeded inputs per model.
pub const POOL: usize = 32;
/// Requests `serve-saturated` keeps in flight: three batches of
/// `max_batch`, so the queue always holds at least two.
pub const OUTSTANDING: usize = 48;
/// Zipf exponent of the `serve-saturated` model popularity.
pub const ZIPF_S: f64 = 1.1;
/// Load checks of `serve-saturated`, which must hold for a run to be
/// `correct`: the queue filled up to this depth at least once...
pub const MIN_QUEUE_DEPTH_HW: u64 = 32;
/// ...the measured batches held at least this many requests on average
/// (14.4–15.5 recorded)...
pub const MIN_BATCH_MEAN: f64 = 8.0;
/// ...and at least this share of the measured requests rode in a batch
/// that shared work (1.0 recorded).
pub const MIN_SHARED_SHARE: f64 = 0.95;

/// A CIFAR-size ViT: 16 tokens of dim 32, four blocks.
pub const MICROVIT: VitConfig = VitConfig {
    image: 32,
    patch: 8,
    dim: 32,
    depth: 4,
    heads: 2,
    mlp_ratio: 4,
    classes: 10,
};

/// Serve-MLP layer widths.
pub const MLP_DIMS: [usize; 4] = [2048, 1024, 512, 64];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    MicroVit,
    Kws,
    Mlp,
}

impl Model {
    pub fn name(self) -> &'static str {
        match self {
            Model::MicroVit => "microvit",
            Model::Kws => "ds-cnn-kws",
            Model::Mlp => "serve-mlp",
        }
    }

    /// Weight seed: fixed, so every run of every workload simulates the
    /// same networks and the cycle metrics repeat exactly.
    fn weight_seed(self) -> u64 {
        match self {
            Model::MicroVit => 7,
            Model::Kws => 11,
            Model::Mlp => 13,
        }
    }

    /// Builds the synthetic-weight graph and prunes it to [`NM`].
    pub fn build(self) -> Res<Graph> {
        let seed = self.weight_seed();
        Ok(match self {
            Model::MicroVit => {
                let mut g = vit_small(&MICROVIT, seed)?;
                prune_graph(&mut g, NM, vit_ff_policy(NM, 16))?;
                g
            }
            Model::Kws => {
                let mut g = ds_cnn_kws(seed)?;
                prune_graph(&mut g, NM, resnet_policy(NM))?;
                g
            }
            Model::Mlp => mlp_serve_sparse(&MLP_DIMS, NM, seed)?,
        })
    }

    /// The plan a served batch of two or more requests must execute.
    pub fn batched_plan(self) -> &'static str {
        match self {
            Model::MicroVit => "sequential",
            Model::Kws => "conv-batch-major",
            Model::Mlp => "token-coalesced",
        }
    }

    /// `POOL` seeded inputs for this model.
    pub fn input_pool(self, graph: &Graph, seed: u64) -> Res<Vec<Tensor<i8>>> {
        let mut rng = XorShift::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.weight_seed());
        let shape = graph.input_shape();
        let len: usize = shape.iter().product();
        (0..POOL)
            .map(|_| Ok(Tensor::from_vec(shape, rng.fill_weights(len, 40))?))
            .collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MicrovitClosed,
    KwsInteractive,
    ServeSaturated,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::MicrovitClosed,
        Workload::KwsInteractive,
        Workload::ServeSaturated,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MicrovitClosed => "microvit-closed",
            Workload::KwsInteractive => "kws-interactive",
            Workload::ServeSaturated => "serve-saturated",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn models(self) -> &'static [Model] {
        match self {
            Workload::MicrovitClosed => &[Model::MicroVit],
            Workload::KwsInteractive => &[Model::Kws],
            Workload::ServeSaturated => &[Model::Kws, Model::Mlp],
        }
    }

    /// Draws the model of each request from the Zipf popularity.
    pub fn mix(self) -> ZipfSampler {
        ZipfSampler::new(self.models().len(), ZIPF_S)
    }

    /// The fixed share of requests each model receives: the [`mix`]'s
    /// probabilities, rank `k` weighing `1 / (k + 1)^s`.
    ///
    /// [`mix`]: Workload::mix
    pub fn weights(self) -> Vec<f64> {
        let raw: Vec<f64> = (1..=self.models().len())
            .map(|k| (k as f64).powf(-ZIPF_S))
            .collect();
        let total: f64 = raw.iter().sum();
        raw.iter().map(|w| w / total).collect()
    }

    /// Compile options: the defaults with one host thread per request.
    pub fn options(self) -> Options {
        Options {
            host_threads: 1,
            ..Options::new(Target::SparseIsa)
        }
    }

    /// One worker, batches of up to 16, the default queue of 64.
    pub fn service_config(self) -> Option<ServiceConfig> {
        (self != Workload::MicrovitClosed).then(|| ServiceConfig {
            workers: 1,
            max_batch: 16,
            ..ServiceConfig::default()
        })
    }
}

/// Expected results: a sequential `PreparedGraph::run` (one host
/// thread) of every pool input, checked once against the reference
/// executor `nm_nn::execute`.
pub struct Oracle {
    /// `runs[model][input]`.
    pub runs: Vec<Vec<EmulatedRun>>,
    /// The separately prepared sequential graphs, reused for replays.
    pub prepared: Vec<PreparedGraph<'static>>,
}

impl Oracle {
    pub fn new(w: Workload, graphs: &[Arc<Graph>], pools: &[Vec<Tensor<i8>>]) -> Res<Oracle> {
        let mut opts = w.options();
        opts.host_threads = 1;
        let mut runs = Vec::new();
        let mut prepared = Vec::new();
        for (graph, pool) in graphs.iter().zip(pools) {
            let p = PreparedGraph::prepare_shared(Arc::clone(graph), &opts)?;
            let mut model_runs = Vec::with_capacity(pool.len());
            for (i, input) in pool.iter().enumerate() {
                let run = p.run(input)?;
                let reference = nm_nn::execute(graph, input)?;
                if run.output != reference {
                    return Err(
                        format!("oracle input {i}: PreparedGraph::run != nm_nn::execute").into(),
                    );
                }
                model_runs.push(run);
            }
            runs.push(model_runs);
            prepared.push(p);
        }
        Ok(Oracle { runs, prepared })
    }

    /// Simulated cycles of one inference of `model` (the same for every
    /// input: kernel cycles depend on geometry and weights only).
    pub fn cycles(&self, model: usize) -> Res<u64> {
        let runs = &self.runs[model];
        let c = runs[0].matmul_compute_cycles;
        if runs.iter().any(|r| r.matmul_compute_cycles != c) {
            return Err(format!("model {model}: cycles differ between inputs").into());
        }
        Ok(c)
    }

    /// Checks one result; `plan` is `(executed plan, batch size)` for
    /// served requests.
    pub fn check(
        &self,
        models: &[Model],
        model: usize,
        input: usize,
        output: &Tensor<i8>,
        cycles: Option<u64>,
        plan: Option<(BatchPlan, usize)>,
    ) -> Result<(), String> {
        let want = &self.runs[model][input];
        if output.data() != want.output.data() || output.shape() != want.output.shape() {
            return Err(format!(
                "{} input {input}: output differs from the oracle",
                models[model].name()
            ));
        }
        if cycles != Some(want.matmul_compute_cycles) {
            return Err(format!(
                "{} input {input}: {cycles:?} cycles, oracle {}",
                models[model].name(),
                want.matmul_compute_cycles
            ));
        }
        if let Some((mode, batch)) = plan {
            let expected = if batch >= 2 {
                models[model].batched_plan()
            } else {
                "sequential"
            };
            if mode.label() != expected {
                return Err(format!(
                    "{} batch of {batch} ran {}, expected {expected}",
                    models[model].name(),
                    mode.label()
                ));
            }
        }
        Ok(())
    }
}

/// The system under test after one set-up.
pub enum System {
    Direct(PreparedGraph<'static>),
    Served { service: Service, ids: Vec<ModelId> },
}

/// One fresh set-up, timed: build and prune the graphs, prepare them
/// (or start the service and register them), and run the first
/// inference per model. The first outputs are checked.
pub fn set_up(
    w: Workload,
    pools: &[Vec<Tensor<i8>>],
    oracle: &Oracle,
    tracer: &mut Tracer,
    round: u64,
) -> Res<(System, Duration)> {
    let models = w.models();
    let opts = w.options();
    let root = tracer.open("setup", None, round);
    let start = Instant::now();
    let graphs = tracer.time("models.build", root, round, || {
        models
            .iter()
            .map(|m| m.build().map(Arc::new))
            .collect::<Res<Vec<_>>>()
    })?;
    let system = match w.service_config() {
        None => {
            let prepared = tracer.time("compiler.prepare", root, round, || {
                PreparedGraph::prepare_shared(Arc::clone(&graphs[0]), &opts)
            })?;
            let run = tracer.time("compiler.first_run", root, round, || {
                prepared.run(&pools[0][0])
            })?;
            oracle.check(
                models,
                0,
                0,
                &run.output,
                Some(run.matmul_compute_cycles),
                None,
            )?;
            System::Direct(prepared)
        }
        Some(config) => {
            let service = tracer.time("serve.start", root, round, || Service::try_start(config))?;
            let ids = tracer.time("compiler.prepare", root, round, || {
                models
                    .iter()
                    .zip(&graphs)
                    .map(|(m, g)| service.register(m.name(), g, &opts))
                    .collect::<Result<Vec<_>, _>>()
            })?;
            let firsts = tracer.time("serve.first_request", root, round, || {
                ids.iter()
                    .zip(pools)
                    .map(|(&id, pool)| Ok(service.submit(id, pool[0].clone())?.wait()?))
                    .collect::<Res<Vec<_>>>()
            })?;
            for (m, r) in firsts.iter().enumerate() {
                oracle.check(
                    models,
                    m,
                    0,
                    &r.output,
                    r.sim_cycles,
                    Some((r.mode, r.batch_size)),
                )?;
            }
            System::Served { service, ids }
        }
    };
    let elapsed = start.elapsed();
    tracer.close(root);
    Ok((system, elapsed))
}

/// The timed period: a warm-up, then `windows` equal windows. In a
/// traced run the even windows record spans and the odd ones do not,
/// so tracing's own cost is measured under the same host conditions.
pub struct Clock {
    start: Instant,
    window: Duration,
    windows: usize,
    traced: bool,
}

impl Clock {
    pub fn new(warmup: Duration, measured: Duration, windows: usize, traced: bool) -> Clock {
        Clock {
            start: Instant::now() + warmup,
            window: measured / windows as u32,
            windows,
            traced,
        }
    }

    fn end(&self) -> Instant {
        self.start + self.window * self.windows as u32
    }

    /// The measured window `t` falls in (`None` during warm-up).
    fn window_of(&self, t: Instant) -> Option<usize> {
        let since = t.checked_duration_since(self.start)?;
        let w = (since.as_nanos() / self.window.as_nanos().max(1)) as usize;
        (w < self.windows).then_some(w)
    }

    pub fn window_is_traced(&self, w: usize) -> bool {
        self.traced && w.is_multiple_of(2)
    }

    pub fn window_secs(&self) -> f64 {
        self.window.as_secs_f64()
    }

    pub fn measured_secs(&self) -> f64 {
        self.window_secs() * self.windows as f64
    }

    /// Enables span recording exactly in traced measured windows.
    fn gate(&self, tracer: &mut Tracer, now: Instant) {
        if self.traced {
            tracer.set_enabled(
                self.window_of(now)
                    .is_some_and(|w| self.window_is_traced(w)),
            );
        }
    }
}

/// What a timed loop observed. Counts of completions, latencies and
/// plans cover only the measured windows; `attempted` and `failed`
/// cover every request the loop sent, warm-up and drain included.
#[derive(Debug, Default)]
pub struct Measured {
    /// The heap high water at the end of the warm-up: set-up plus steady
    /// operation, before the records of the measured windows grow.
    pub heap_peak: Option<usize>,
    pub attempted: u64,
    pub failed: u64,
    /// [`host::Probe`] times (µs), one per request sent in the windows.
    pub probe_us: Vec<f64>,
    pub failures: Vec<String>,
    /// Completions per measured window.
    pub window_counts: Vec<u64>,
    pub latencies_ms: Vec<f64>,
    /// Served requests: `(fulfil time in s since the windows began,
    /// negative before, model, batch size)`, the input of
    /// [`crate::stats::batch_service_ms`].
    pub fulfilled: Vec<(f64, usize, usize)>,
    pub per_model_completed: Vec<u64>,
    /// Measured completions whose batch shared work across requests.
    pub shared: u64,
    /// `(completed, batches)` growth of `Service::stats()` over the
    /// measured windows.
    pub service_delta: Option<(u64, u64)>,
    pub queue_depth_high_water: Option<u64>,
}

impl Measured {
    fn new(windows: usize, models: usize) -> Measured {
        Measured {
            window_counts: vec![0; windows],
            per_model_completed: vec![0; models],
            ..Measured::default()
        }
    }

    /// Marks the end of the warm-up: true at the first call at or after
    /// the clock's start, which also reads the heap high water.
    fn end_warm_up(&mut self, clock: &Clock, now: Instant) -> bool {
        let first = self.heap_peak.is_none() && now >= clock.start;
        if first {
            self.heap_peak = Some(host::heap_peak());
        }
        first
    }

    /// Times the probe, keeping the time when `now` is in a window.
    fn probe(&mut self, clock: &Clock, probe: &host::Probe, now: Instant) {
        let us = probe.time_us();
        if clock.window_of(now).is_some() {
            self.probe_us.push(us);
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Records a completion at `at`; served requests also pass their
    /// plan and batch size and the instant the service fulfilled them.
    fn complete(
        &mut self,
        clock: &Clock,
        at: Instant,
        latency: Duration,
        model: usize,
        served: Option<(BatchPlan, usize, Instant)>,
    ) {
        let Some(w) = clock.window_of(at) else { return };
        self.window_counts[w] += 1;
        self.latencies_ms.push(latency.as_secs_f64() * 1e3);
        self.per_model_completed[model] += 1;
        if let Some((mode, batch, fulfilled)) = served {
            // Signed: requests fulfilled before the windows began but
            // collected in them must keep their fulfilment order.
            let since = match fulfilled.checked_duration_since(clock.start) {
                Some(after) => after.as_secs_f64(),
                None => -(clock.start - fulfilled).as_secs_f64(),
            };
            self.fulfilled.push((since, model, batch));
            if mode.shares_work() {
                self.shared += 1;
            }
        }
    }

    pub fn completed(&self) -> u64 {
        self.window_counts.iter().sum()
    }

    /// Requests per batch over the measured windows, from
    /// `Service::stats()` (0 for the direct workload).
    pub fn batch_mean(&self) -> f64 {
        self.service_delta
            .map_or(0.0, |(c, b)| c as f64 / b.max(1) as f64)
    }

    /// The share of measured completions whose batch shared work.
    pub fn shared_share(&self) -> f64 {
        self.shared as f64 / self.completed().max(1) as f64
    }

    /// `serve-saturated`'s load checks: what was seen, and whether every
    /// check held. Without them a loop that stopped filling the queue,
    /// or a service that stopped batching, would still be `correct`.
    pub fn saturation(&self) -> (String, bool) {
        let depth = self.queue_depth_high_water.unwrap_or(0);
        let (batch_mean, shared) = (self.batch_mean(), self.shared_share());
        let held = depth >= MIN_QUEUE_DEPTH_HW
            && batch_mean >= MIN_BATCH_MEAN
            && shared >= MIN_SHARED_SHARE;
        let seen = format!(
            "queue_depth_hw={depth} (min {MIN_QUEUE_DEPTH_HW}) batch_mean={batch_mean:.2} \
(min {MIN_BATCH_MEAN}) shared_share={shared:.4} (min {MIN_SHARED_SHARE})"
        );
        (seen, held)
    }
}

/// The seeded order in which pool inputs are sent.
fn input_order(seed: u64) -> XorShift {
    XorShift::new(seed ^ 0x0DDB_A11C_0FFE_E000)
}

/// `microvit-closed`: one caller runs `PreparedGraph::run` back to back.
#[allow(clippy::too_many_arguments)]
pub fn run_direct(
    prepared: &PreparedGraph<'_>,
    probe: &host::Probe,
    pools: &[Vec<Tensor<i8>>],
    oracle: &Oracle,
    models: &[Model],
    clock: &Clock,
    seed: u64,
    tracer: &mut Tracer,
) -> Measured {
    let mut m = Measured::new(clock.windows, 1);
    let mut order = input_order(seed);
    let end = clock.end();
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        m.end_warm_up(clock, now);
        m.probe(clock, probe, now);
        clock.gate(tracer, now);
        let i = (order.next_u64() % POOL as u64) as usize;
        m.attempted += 1;
        let span = tracer.open("compiler.run", None, m.attempted);
        let t0 = Instant::now();
        let result = prepared.run(&pools[0][i]);
        let t1 = Instant::now();
        tracer.close(span);
        let checked = result.map_err(|e| e.to_string()).and_then(|r| {
            oracle.check(models, 0, i, &r.output, Some(r.matmul_compute_cycles), None)
        });
        match checked {
            Ok(()) => m.complete(clock, t1, t1 - t0, 0, None),
            Err(e) => m.fail(e),
        }
    }
    tracer.set_enabled(clock.traced);
    m
}

/// Waits for one ticket and checks its result.
#[allow(clippy::too_many_arguments)]
fn settle(
    m: &mut Measured,
    clock: &Clock,
    tracer: &mut Tracer,
    oracle: &Oracle,
    models: &[Model],
    (ticket, model, input, sent): (Ticket, usize, usize, Instant),
) {
    let id = ticket.id();
    let result = tracer.time("serve.wait", None, id, || ticket.wait());
    let done = Instant::now();
    let checked = result.map_err(|e| e.to_string()).and_then(|r| {
        oracle
            .check(
                models,
                model,
                input,
                &r.output,
                r.sim_cycles,
                Some((r.mode, r.batch_size)),
            )
            // `latency` runs from inside `submit` to the fulfilment.
            .map(|()| (r.mode, r.batch_size, sent + r.latency))
    });
    match checked {
        Ok(served) => m.complete(clock, done, done - sent, model, Some(served)),
        Err(e) => m.fail(e),
    }
}

/// The seeded generator of the models `serve-saturated` requests.
pub fn popularity(seed: u64) -> XorShift {
    XorShift::new(seed ^ 0x21FF_0000_5EED_0001)
}

/// The served workloads. `window` requests stay outstanding: 1 for
/// `kws-interactive` (submit, wait, repeat), [`OUTSTANDING`] for
/// `serve-saturated`, where the main thread waits on the oldest ticket
/// and replaces it. Models are drawn from the workload's Zipf mix.
#[allow(clippy::too_many_arguments)]
pub fn run_served(
    service: &Service,
    probe: &host::Probe,
    ids: &[ModelId],
    window: usize,
    pools: &[Vec<Tensor<i8>>],
    oracle: &Oracle,
    models: &[Model],
    mix: &ZipfSampler,
    clock: &Clock,
    seed: u64,
    tracer: &mut Tracer,
) -> Measured {
    let mut m = Measured::new(clock.windows, models.len());
    let mut order = input_order(seed);
    let mut popularity = popularity(seed);
    let mut in_flight: VecDeque<(Ticket, usize, usize, Instant)> = VecDeque::with_capacity(window);
    let end = clock.end();
    let mut baseline: Option<ServiceStats> = None;
    let last = loop {
        let now = Instant::now();
        clock.gate(tracer, now);
        if m.end_warm_up(clock, now) {
            baseline = Some(service.stats());
        }
        m.probe(clock, probe, now);
        if now >= end {
            break service.stats();
        }
        while in_flight.len() < window {
            let model = if models.len() == 1 {
                0
            } else {
                mix.sample(unit_f64(&mut popularity))
            };
            let i = (order.next_u64() % POOL as u64) as usize;
            let input = pools[model][i].clone();
            m.attempted += 1;
            let sent = Instant::now();
            match tracer.time("serve.submit", None, m.attempted, || {
                service.submit(ids[model], input)
            }) {
                Ok(ticket) => in_flight.push_back((ticket, model, i, sent)),
                Err(e) => m.fail(e.to_string()),
            }
        }
        if let Some(oldest) = in_flight.pop_front() {
            settle(&mut m, clock, tracer, oracle, models, oldest);
        }
    };
    tracer.set_enabled(false);
    for rest in in_flight.drain(..) {
        settle(&mut m, clock, tracer, oracle, models, rest);
    }
    tracer.set_enabled(clock.traced);
    m.service_delta = baseline.map(|a| (last.completed - a.completed, last.batches - a.batches));
    m.queue_depth_high_water = Some(service.metrics_snapshot().queue_depth_high_water);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seeded_mix_repeats_and_follows_its_weights() {
        let w = Workload::ServeSaturated;
        let mix = w.mix();
        let draw = |seed| {
            let mut rng = popularity(seed);
            (0..2000)
                .map(|_| mix.sample(unit_f64(&mut rng)))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        let weights = w.weights();
        assert!((weights.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((weights[0] - 1.0 / (1.0 + 2f64.powf(-ZIPF_S))).abs() < 1e-12);
        let seq = draw(5);
        let head = seq.iter().filter(|&&m| m == 0).count() as f64 / seq.len() as f64;
        assert!((head - weights[0]).abs() < 0.05, "head share {head}");
        assert_eq!(Workload::KwsInteractive.weights(), [1.0]);
    }
}
