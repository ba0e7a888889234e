//! Overload load generator for the serving stack (`nm-serve`): Zipf
//! model popularity × Poisson arrivals at a configurable multiple of
//! the service's measured capacity, with a [`FaultPlan`] killing
//! workers mid-overload.
//!
//! This is a *soak*, not a benchmark: the generated traffic
//! deliberately exceeds what the workers can drain, so the measured
//! quantity is never throughput — it is whether the service's
//! robustness contracts hold while everything is on fire at once:
//!
//! * **Exact reconciliation** — every accepted request resolves to
//!   exactly one of completed / failed / expired / canceled /
//!   preempted, and the server-side counters balance to the submission
//!   count ([`ServiceStats`]'s invariant).
//! * **Priority protection** — no [`Priority::Interactive`] request is
//!   ever full-shed while lower-class work occupies queue slots
//!   (`shed_full_by_class[0] == 0`; the generator caps outstanding
//!   interactive work below the queue bound so the structural
//!   guarantee is deterministically assertable).
//! * **Eviction correctness** — four models contend for a cache byte
//!   budget sized to hold only three, so resolve-time eviction churn
//!   runs throughout; every completed request's output *and* cycle
//!   count must still be bit-identical to a sequential
//!   [`PreparedGraph::run`] oracle.
//!
//! Everything is seeded ([`XorShift`]): the same
//! [`OverloadConfig`] generates the same arrival sequence, model
//! choices, priorities and inputs. Which requests are shed may vary
//! with thread scheduling — the *assertions* are chosen to be
//! schedule-independent (taxonomy and parity, never latency or batch
//! shapes).
//!
//! Runs are armed via the `NM_LOADGEN_*` environment knobs
//! ([`OverloadConfig::from_env`]). The `engine` bench never reads them:
//! overload soaks run here, never inside a `BENCH_engine.json` row.

use nm_compiler::plan::Options;
use nm_compiler::{ExecTier, PreparedGraph, Target};
use nm_core::sparsity::Nm;
use nm_core::Tensor;
use nm_models::serve::mlp_serve_sparse;
use nm_nn::graph::Graph;
use nm_nn::rng::XorShift;
use nm_serve::metrics::parse_text;
use nm_serve::{
    CacheStats, FaultAction, FaultPlan, FaultPoint, Priority, ServeError, Service, ServiceConfig,
    ServiceStats, SubmitError, Ticket,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Seed knob: arms the load generator and seeds the arrival stream.
pub const ENV_SEED: &str = "NM_LOADGEN_SEED";
/// Request-count knob.
pub const ENV_REQUESTS: &str = "NM_LOADGEN_REQUESTS";
/// Rate-multiple knob (arrival rate as a multiple of drain capacity).
pub const ENV_RATE: &str = "NM_LOADGEN_RATE";

/// Zipf(s) sampler over ranks `0..n` via a precomputed CDF: rank `k`
/// has weight `1/(k+1)^s`, so rank 0 is the hot model. Feed it uniform
/// `(0, 1]` draws ([`unit_f64`]).
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the CDF for `n` ranks at exponent `s`.
    ///
    /// # Panics
    /// Panics on `n == 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "a Zipf sampler needs at least one rank");
        let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        ZipfSampler { cdf }
    }

    /// The rank whose CDF bucket contains `u` (a uniform `(0, 1]`
    /// draw).
    pub fn sample(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A uniform draw in `(0, 1]` from the generator's top 53 bits —
/// never exactly zero, so it is safe to feed `ln` ([`exp_sample`]).
pub fn unit_f64(rng: &mut XorShift) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// Inverse-CDF exponential sample: the Poisson process's inter-arrival
/// gap (seconds) at `rate` events/second, from a uniform `(0, 1]`
/// draw.
pub fn exp_sample(rate: f64, u: f64) -> f64 {
    -u.ln() / rate
}

/// Knobs for one overload soak. [`Default`] is the release-CI
/// configuration; [`OverloadConfig::from_env`] layers the
/// `NM_LOADGEN_*` variables on top for ad-hoc runs.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Seeds arrivals, model choices, priorities and inputs.
    pub seed: u64,
    /// Total requests the generator submits.
    pub requests: u32,
    /// Arrival rate as a multiple of the *upper bound* on drain
    /// capacity (`workers * max_batch / sequential_run_secs`), so the
    /// service is overloaded even under perfect batch coalescing.
    pub rate_multiple: f64,
    /// Service queue bound.
    pub queue_capacity: usize,
    /// Worker threads.
    pub workers: usize,
    /// Batch coalescing limit.
    pub max_batch: usize,
    /// Workers killed mid-overload (counted `KillWorker` faults at
    /// early batch occurrences, so every kill fires even under heavy
    /// shedding).
    pub worker_kills: u32,
    /// Zipf exponent for model popularity.
    pub zipf_s: f64,
    /// Percent of arrivals submitted [`Priority::Interactive`].
    pub interactive_pct: u64,
    /// Percent submitted [`Priority::Batch`] (the rest are
    /// [`Priority::BestEffort`]).
    pub batch_pct: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            seed: 42,
            requests: 600,
            rate_multiple: 2.0,
            queue_capacity: 32,
            workers: 2,
            max_batch: 8,
            worker_kills: 2,
            zipf_s: 1.1,
            interactive_pct: 20,
            batch_pct: 30,
        }
    }
}

impl OverloadConfig {
    /// The defaults with `NM_LOADGEN_SEED` / `NM_LOADGEN_REQUESTS` /
    /// `NM_LOADGEN_RATE` applied where set (unparsable values are
    /// ignored, keeping the seeded defaults).
    pub fn from_env() -> Self {
        let mut cfg = OverloadConfig::default();
        if let Some(seed) = std::env::var(ENV_SEED).ok().and_then(|v| v.parse().ok()) {
            cfg.seed = seed;
        }
        if let Some(n) = std::env::var(ENV_REQUESTS)
            .ok()
            .and_then(|v| v.parse().ok())
        {
            cfg.requests = n;
        }
        if let Some(r) = std::env::var(ENV_RATE).ok().and_then(|v| v.parse().ok()) {
            cfg.rate_multiple = r;
        }
        cfg
    }
}

/// What one ticket resolved to, as the client saw it.
#[derive(Debug, Default)]
struct ClientLedger {
    completed_ok: u64,
    mismatched: u64,
    expired: u64,
    preempted: u64,
    canceled: u64,
    failed: u64,
}

/// One in-flight request handed to the collector thread.
struct Job {
    model: usize,
    input: Tensor<i8>,
    interactive: bool,
    ticket: Ticket,
}

/// Everything one soak produced; [`check`](Self::check) asserts the
/// robustness contracts.
#[derive(Debug)]
pub struct OverloadReport {
    /// Final server-side counters.
    pub stats: ServiceStats,
    /// Final cache counters and byte gauges.
    pub cache: CacheStats,
    /// Tickets the generator got back (`== stats.submitted`).
    pub accepted: u64,
    /// Submissions refused with [`SubmitError::Shed`].
    pub shed_at_submit: u64,
    /// Of those, how many were [`Priority::Interactive`] (must be 0).
    pub interactive_shed_at_submit: u64,
    /// Submissions refused with [`SubmitError::ModelUnavailable`] (the
    /// cache byte budget was fully pinned at resolve time).
    pub unavailable: u64,
    /// Interactive arrivals downgraded to [`Priority::Batch`] by the
    /// outstanding-interactive cap.
    pub downgraded: u64,
    /// Completed requests bit+cycle identical to the sequential oracle.
    pub completed_ok: u64,
    /// Completed requests that *diverged* from the oracle (must be 0).
    pub mismatched: u64,
    /// Client-observed [`ServeError::DeadlineExceeded`] resolutions.
    pub client_expired: u64,
    /// Client-observed [`ServeError::Preempted`] resolutions.
    pub client_preempted: u64,
    /// Client-observed [`ServeError::Canceled`] resolutions (worker
    /// kills cancel the batch in hand).
    pub client_canceled: u64,
    /// Every other client-observed failure.
    pub client_failed: u64,
    /// `KillWorker` faults armed / fired.
    pub kills_armed: u32,
    /// Faults that actually fired (must equal `kills_armed`).
    pub kills_fired: u32,
    /// `Service::metrics_text` scraped mid-soak (after half the
    /// arrivals), while workers were live — [`check`](Self::check)
    /// asserts it parses and is internally consistent (never torn).
    pub metrics_mid: String,
    /// `Service::metrics_text` scraped after the post-soak drain, with
    /// nothing in flight — [`check`](Self::check) asserts the parsed
    /// export equals the final ledgers exactly.
    pub metrics_final: String,
}

impl OverloadReport {
    /// Asserts the soak's robustness contracts; see the module docs.
    ///
    /// # Panics
    /// Panics (with the violated contract named) when any invariant
    /// fails.
    pub fn check(&self) {
        let s = &self.stats;
        assert_eq!(
            s.completed + s.failed + s.shed_expired + s.shed_canceled + s.shed_preempted,
            s.submitted,
            "server-side accounting reconciles exactly"
        );
        assert_eq!(
            s.submitted, self.accepted,
            "every accepted ticket was counted submitted"
        );
        let resolved = self.completed_ok
            + self.mismatched
            + self.client_expired
            + self.client_preempted
            + self.client_canceled
            + self.client_failed;
        assert_eq!(
            resolved, self.accepted,
            "every accepted ticket resolved exactly once on the client side"
        );
        assert_eq!(
            self.mismatched, 0,
            "eviction churn never corrupts outputs: every completed request \
             must be bit+cycle identical to the sequential oracle"
        );
        assert_eq!(
            s.shed_full_by_class[Priority::Interactive.rank()],
            0,
            "no Interactive request is full-shed while lower-class work occupies slots"
        );
        assert_eq!(
            self.interactive_shed_at_submit, 0,
            "the generator never observed an Interactive shed either"
        );
        assert!(
            self.cache.evictions > 0,
            "four models over a three-model budget must churn the cache"
        );
        assert_eq!(
            self.kills_fired, self.kills_armed,
            "every armed worker kill fired"
        );
        assert_eq!(
            s.restarts,
            u64::from(self.kills_armed),
            "the supervisor respawned one worker per kill"
        );
        if self.kills_armed > 0 {
            assert!(
                s.shed_canceled > 0,
                "a killed worker's batch in hand is canceled"
            );
        }
        assert!(
            s.shed + s.shed_expired + s.shed_preempted > 0,
            "the generated load actually exceeded capacity (something was shed)"
        );

        // The metrics export is gated, not eyeballed. Mid-soak the
        // scrape raced live workers: it must still parse and satisfy
        // every internal-consistency invariant (a torn scrape — e.g. a
        // terminal counter exceeding `submitted` — fails here).
        let mid = parse_text(&self.metrics_mid)
            .unwrap_or_else(|e| panic!("mid-soak metrics export must parse: {e}"));
        mid.check_internal()
            .unwrap_or_else(|e| panic!("mid-soak metrics scrape is torn: {e}"));
        // The final scrape was taken after the drain with nothing in
        // flight: parsing it back must reproduce the ledgers exactly,
        // including the five-term reconciliation on exported numbers.
        let fin = parse_text(&self.metrics_final)
            .unwrap_or_else(|e| panic!("final metrics export must parse: {e}"));
        fin.check_quiesced(&self.stats, &self.cache)
            .unwrap_or_else(|e| panic!("final metrics export does not reconcile: {e}"));
    }

    /// One-line human summary for logs.
    pub fn summary(&self) -> String {
        format!(
            "submitted={} completed={} (ok={} mismatched={}) failed={} shed_full={:?} \
             shed_expired={} shed_canceled={} shed_preempted={} shed_at_submit={} \
             unavailable={} downgraded={} kills={}/{} restarts={} evictions={} \
             resident={}B",
            self.stats.submitted,
            self.stats.completed,
            self.completed_ok,
            self.mismatched,
            self.stats.failed,
            self.stats.shed_full_by_class,
            self.stats.shed_expired,
            self.stats.shed_canceled,
            self.stats.shed_preempted,
            self.shed_at_submit,
            self.unavailable,
            self.downgraded,
            self.kills_fired,
            self.kills_armed,
            self.stats.restarts,
            self.cache.evictions,
            self.cache.resident_bytes,
        )
    }
}

/// The four contending serve-MLP geometries (input 64, distinct hidden
/// stacks so the cached artifacts differ) and their shared compile
/// options.
fn build_models() -> (Vec<Arc<Graph>>, Options) {
    let dims: [&[usize]; 4] = [
        &[64, 64, 48, 32],
        &[64, 64, 40, 24],
        &[64, 64, 56, 16],
        &[64, 64, 32, 32],
    ];
    let graphs = dims
        .iter()
        .enumerate()
        .map(|(i, d)| {
            Arc::new(
                mlp_serve_sparse(d, Nm::ONE_OF_EIGHT, 7 + i as u64)
                    .expect("serve-MLP geometry compiles"),
            )
        })
        .collect();
    let mut opts = Options::new(Target::SparseIsa);
    opts.tier = ExecTier::Bulk;
    opts.host_threads = 1;
    (graphs, opts)
}

/// Runs one seeded overload soak; the caller asserts via
/// [`OverloadReport::check`].
///
/// # Panics
/// Panics if the harness itself cannot be assembled (models fail to
/// compile or register, threads fail to spawn) — never as part of the
/// measured overload behavior.
pub fn run_overload(cfg: &OverloadConfig) -> OverloadReport {
    let (graphs, opts) = build_models();
    // Sequential oracles, shared with the collector thread: the same
    // prepared artifacts also price the cache budget.
    let baselines: Arc<Vec<PreparedGraph<'static>>> = Arc::new(
        graphs
            .iter()
            .map(|g| PreparedGraph::prepare_shared(Arc::clone(g), &opts).expect("oracle prepares"))
            .collect(),
    );
    let bytes: Vec<usize> = baselines
        .iter()
        .map(PreparedGraph::resident_bytes)
        .collect();
    // Budget = the three largest artifacts: any three fit, all four
    // cannot, so resolve-time eviction churn runs for the whole soak.
    let mut sorted = bytes.clone();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let budget: usize = sorted[..3].iter().sum();

    // Capacity calibration: time sequential runs of the hot model. The
    // drain rate can never exceed `workers * max_batch` requests per
    // sequential-run-time (a batch costs at least one run), so pacing
    // arrivals at `rate_multiple` times that bound overloads the
    // service even under perfect coalescing.
    let shape = graphs[0].input_shape().to_vec();
    let elems: usize = shape.iter().product();
    let calib_input = Tensor::from_vec(
        &shape,
        XorShift::new(cfg.seed ^ 0xCA11B).fill_weights(elems, 50),
    )
    .expect("calibration input");
    let calib_reps = 20u32;
    let t = Instant::now();
    for _ in 0..calib_reps {
        std::hint::black_box(baselines[0].run(&calib_input).expect("oracle runs"));
    }
    let mean_secs = (t.elapsed().as_secs_f64() / f64::from(calib_reps)).max(1e-7);
    let rate = cfg.rate_multiple * (cfg.workers * cfg.max_batch) as f64 / mean_secs;

    // Counted worker kills at the earliest batch occurrences (0-based
    // indices 1, 3, 5, ...). `kills_fired == kills_armed` is asserted,
    // so the last armed index must be reached even when host
    // contention (e.g. parallel CI suites on one core) sheds most
    // arrivals down to a handful of batches: with one successful batch
    // before each kill, `2 * worker_kills` occurrences suffice —
    // guaranteed because the post-submit drain keeps popping batches
    // while any accepted job remains queued.
    let mut plan = FaultPlan::new();
    for k in 0..cfg.worker_kills {
        plan = plan.fail_nth(
            FaultPoint::BatchRun,
            1 + 2 * u64::from(k),
            FaultAction::KillWorker,
        );
    }
    let plan = Arc::new(plan);

    let service = Service::start(ServiceConfig {
        queue_capacity: cfg.queue_capacity,
        max_batch: cfg.max_batch,
        workers: cfg.workers,
        tier: ExecTier::Bulk,
        restart_budget: cfg.worker_kills + 4,
        fault_plan: Some(Arc::clone(&plan)),
        cache_budget: Some(budget),
        ..ServiceConfig::default()
    });
    let ids: Vec<_> = graphs
        .iter()
        .enumerate()
        .map(|(i, g)| {
            service
                .register(&format!("loadgen-{i}"), g, &opts)
                .expect("models fit the budget one at a time")
        })
        .collect();

    // Outstanding-interactive cap: queued Interactive work stays
    // strictly below the queue bound, so a full queue always holds a
    // lower class somewhere and the displacement path (never the
    // full-shed path) admits Interactive arrivals.
    let interactive_cap = (cfg.queue_capacity / 2).max(1);
    let outstanding = Arc::new(AtomicUsize::new(0));

    let (tx, rx) = mpsc::channel::<Job>();
    let collector = {
        let baselines = Arc::clone(&baselines);
        let outstanding = Arc::clone(&outstanding);
        std::thread::spawn(move || {
            let mut ledger = ClientLedger::default();
            for job in rx {
                match job.ticket.wait_timeout(Duration::from_secs(60)) {
                    Ok(r) => {
                        let oracle = baselines[job.model]
                            .run(&job.input)
                            .expect("oracle runs the survivor's input");
                        if r.output == oracle.output
                            && r.sim_cycles == Some(oracle.matmul_compute_cycles)
                        {
                            ledger.completed_ok += 1;
                        } else {
                            ledger.mismatched += 1;
                        }
                    }
                    Err(ServeError::DeadlineExceeded) => ledger.expired += 1,
                    Err(ServeError::Preempted) => ledger.preempted += 1,
                    Err(ServeError::Canceled) => ledger.canceled += 1,
                    Err(_) => ledger.failed += 1,
                }
                if job.interactive {
                    outstanding.fetch_sub(1, Ordering::SeqCst);
                }
            }
            ledger
        })
    };

    let zipf = ZipfSampler::new(graphs.len(), cfg.zipf_s);
    let mut rng = XorShift::new(cfg.seed);
    let mut accepted = 0u64;
    let mut shed_at_submit = 0u64;
    let mut interactive_shed_at_submit = 0u64;
    let mut unavailable = 0u64;
    let mut downgraded = 0u64;
    let start = Instant::now();
    let mut next_at = 0.0f64;
    let mut metrics_mid = String::new();
    for i in 0..cfg.requests {
        // Mid-soak scrape, racing live workers on purpose: the report
        // asserts it is internally consistent, never torn.
        if i == cfg.requests / 2 {
            metrics_mid = service.metrics_text();
        }
        next_at += exp_sample(rate, unit_f64(&mut rng));
        let model = zipf.sample(unit_f64(&mut rng));
        let input = Tensor::from_vec(&shape, rng.fill_weights(elems, 50)).expect("request input");
        let pct = rng.next_u64() % 100;
        let mut priority = if pct < cfg.interactive_pct {
            Priority::Interactive
        } else if pct < cfg.interactive_pct + cfg.batch_pct {
            Priority::Batch
        } else {
            Priority::BestEffort
        };
        if priority == Priority::Interactive
            && outstanding.load(Ordering::SeqCst) >= interactive_cap
        {
            priority = Priority::Batch;
            downgraded += 1;
        }
        // Poisson pacing: sleep only when ahead of the arrival clock.
        if let Some(ahead) = Duration::from_secs_f64(next_at).checked_sub(start.elapsed()) {
            std::thread::sleep(ahead);
        }
        let deadline = match priority {
            Priority::Interactive => Some(Instant::now() + Duration::from_millis(500)),
            Priority::Batch => Some(Instant::now() + Duration::from_secs(10)),
            Priority::BestEffort => None,
        };
        match service.submit_with_deadline(ids[model], input.clone(), deadline, priority) {
            Ok(ticket) => {
                let interactive = priority == Priority::Interactive;
                if interactive {
                    outstanding.fetch_add(1, Ordering::SeqCst);
                }
                accepted += 1;
                tx.send(Job {
                    model,
                    input,
                    interactive,
                    ticket,
                })
                .expect("collector outlives the generator");
            }
            Err(SubmitError::Shed { .. }) => {
                shed_at_submit += 1;
                if priority == Priority::Interactive {
                    interactive_shed_at_submit += 1;
                }
            }
            Err(SubmitError::ModelUnavailable { .. }) => unavailable += 1,
            Err(e) => panic!("unexpected submit refusal under overload: {e}"),
        }
    }
    drop(tx);
    let ledger = collector.join().expect("collector thread exits cleanly");
    // Quiesce before the final scrape: with every ticket resolved and
    // the queue drained, nothing can move a counter between the scrape
    // and the ledgers captured below — so the report can assert exact
    // equality on the export.
    service.drain();
    let metrics_final = service.metrics_text();
    let cache = service.cache_stats();
    let stats = service.shutdown();
    OverloadReport {
        stats,
        cache,
        accepted,
        shed_at_submit,
        interactive_shed_at_submit,
        unavailable,
        downgraded,
        completed_ok: ledger.completed_ok,
        mismatched: ledger.mismatched,
        client_expired: ledger.expired,
        client_preempted: ledger.preempted,
        client_canceled: ledger.canceled,
        client_failed: ledger.failed,
        kills_armed: cfg.worker_kills,
        kills_fired: plan.fired() as u32,
        metrics_mid,
        metrics_final,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_cdf_is_monotone_and_head_heavy() {
        let z = ZipfSampler::new(4, 1.1);
        // The CDF ends at 1 and rank 0 owns the largest bucket.
        assert!((z.cdf.last().unwrap() - 1.0).abs() < 1e-12);
        assert!(z.cdf[0] > 0.25, "rank 0 is the hot model: {:?}", z.cdf);
        assert_eq!(z.sample(1e-9), 0);
        assert_eq!(z.sample(1.0), 3);
        // Draws map into range whatever the input.
        for i in 0..100 {
            let u = (f64::from(i) + 0.5) / 100.0;
            assert!(z.sample(u) < 4);
        }
    }

    #[test]
    fn unit_draws_are_in_half_open_unit_interval() {
        let mut rng = XorShift::new(5);
        for _ in 0..1000 {
            let u = unit_f64(&mut rng);
            assert!(u > 0.0 && u <= 1.0, "{u}");
            // Exponential sampling must never see ln(0).
            assert!(exp_sample(100.0, u).is_finite());
        }
    }

    #[test]
    fn from_env_defaults_match_the_release_soak() {
        // The test environment must not have the knobs armed (the
        // snapshot guard tests rely on the same hygiene), so from_env
        // returns the defaults.
        let cfg = OverloadConfig::from_env();
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.requests, 600);
        assert!((cfg.rate_multiple - 2.0).abs() < f64::EPSILON);
    }
}
