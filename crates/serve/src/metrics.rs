//! First-class serving observability: per-model counters and
//! fixed-bucket latency histograms, exported in the Prometheus text
//! exposition format by [`Service::metrics_text`] — and *gated*, not
//! just printed: [`parse_text`] parses an export back into a
//! [`MetricsSnapshot`] whose ledgers the test suites assert equal to
//! the service's own [`ServiceStats`]/[`CacheStats`], exactly.
//!
//! ## What is exported
//!
//! * Every [`ServiceStats`] counter and gauge (`nm_serve_requests_*`,
//!   `nm_serve_shed_*` including the per-class full-shed breakdown,
//!   `nm_serve_worker_*`, `nm_serve_batches_total`,
//!   `nm_serve_batch_max_coalesced`).
//! * Every [`CacheStats`] counter and byte gauge (`nm_serve_cache_*`).
//! * Queue depth and its high-water mark
//!   (`nm_serve_queue_depth{,_high_water}`), sampled inside the queue
//!   mutex — never a racy re-count.
//! * Per-model request breakdowns (`nm_serve_model_requests_*`,
//!   `nm_serve_model_shed_*`), keyed by the *registered name* so
//!   aliased [`ModelId`]s sharing one cached artifact merge into one
//!   `model="…"` series.
//! * Per-model wall-clock latency histograms
//!   (`nm_serve_request_latency_seconds`) over the static log-spaced
//!   bounds in [`LATENCY_BUCKETS`], fed from each completed request's
//!   submit-to-fulfill latency at fulfill time. Every completion is
//!   observed, so the histogram count *is* the model's completed
//!   counter.
//!
//! ## Determinism
//!
//! Bucket *bounds* are compile-time constants, so the set of lines and
//! their order is deterministic for a given request set; the counter
//! lines are deterministic too (they mirror the exactly-reconciling
//! ledgers). The bucket *counts* and the `_sum` line are wall-clock
//! quantities and therefore host-dependent — everything else is not.
//!
//! ## Torn-scrape consistency
//!
//! There is one ledger of request outcomes: each outcome is counted
//! once, in its model's [`ModelMetrics`]. Every service-wide request
//! total in [`ServiceStats`] is a sum over one read of those per-model
//! counters, and the full-shed aggregate `shed` is the sum of its
//! per-class counters. So in any snapshot, even one taken while
//! requests are in flight, the per-model sums equal the global
//! counters, the per-class full sheds sum to `shed`, and each model's
//! histogram count equals its `completed` — by construction.
//!
//! The one ordering left is inside a single model's counters. A request
//! counts `submitted` before it is queued and its terminal class after
//! it resolves; a completion counts `completed` before its bucket. A
//! scrape reads the buckets first, then the terminal classes, then
//! `submitted` last. So finite buckets never exceed the count and
//! terminal classes never exceed `submitted`, per model and in sum.
//! [`MetricsSnapshot::check_internal`] asserts all of this on any
//! scrape. After a drain the export is *exact*:
//! [`MetricsSnapshot::check_quiesced`] also asserts equality with the
//! ledgers and the five-term reconciliation `submitted == completed +
//! failed + shed_expired + shed_canceled + shed_preempted`.
//!
//! [`Service::metrics_text`]: crate::service::Service::metrics_text
//! [`ServiceStats`]: crate::service::ServiceStats
//! [`CacheStats`]: crate::cache::CacheStats
//! [`ModelId`]: crate::service::ModelId

use crate::cache::CacheStats;
use crate::service::{Priority, ServiceStats};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Duration;

/// The static log-spaced latency bucket bounds: `(nanoseconds, label)`
/// pairs spanning 100 µs to 10 s on a 1–2.5–5 decade ladder, plus the
/// implicit `+Inf` bucket. The labels are the exact `le` strings
/// rendered into the export, so the text is deterministic — no float
/// formatting is involved.
pub const LATENCY_BUCKETS: [(u64, &str); 16] = [
    (100_000, "0.0001"),
    (250_000, "0.00025"),
    (500_000, "0.0005"),
    (1_000_000, "0.001"),
    (2_500_000, "0.0025"),
    (5_000_000, "0.005"),
    (10_000_000, "0.01"),
    (25_000_000, "0.025"),
    (50_000_000, "0.05"),
    (100_000_000, "0.1"),
    (250_000_000, "0.25"),
    (500_000_000, "0.5"),
    (1_000_000_000, "1"),
    (2_500_000_000, "2.5"),
    (5_000_000_000, "5"),
    (10_000_000_000, "10"),
];

/// Live per-model counters and the latency histogram, keyed by the
/// registered model *name* (aliased registrations share one handle).
/// This is the service's only count of request outcomes: the
/// service-wide totals are summed from these counters at read time.
/// Opaque outside the crate; the service increments it at the
/// submit/fulfill/shed sites and `MetricsRegistry::snapshot_models`
/// reads it in the torn-safe order (see the module docs).
#[derive(Debug, Default)]
pub struct ModelMetrics {
    name: String,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed_expired: AtomicU64,
    shed_canceled: AtomicU64,
    shed_preempted: AtomicU64,
    bucket_counts: [AtomicU64; LATENCY_BUCKETS.len()],
    latency_sum_nanos: AtomicU64,
}

impl ModelMetrics {
    /// Counts an accepted request. Call *before* the queue push, so a
    /// terminal class can never be counted ahead of it; undo with
    /// [`unrecord_submitted`](Self::unrecord_submitted) if the push is
    /// then rejected.
    pub(crate) fn record_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::SeqCst);
    }

    /// Reverts [`record_submitted`](Self::record_submitted) when the
    /// queue rejects the push.
    pub(crate) fn unrecord_submitted(&self) {
        self.submitted.fetch_sub(1, Ordering::SeqCst);
    }

    /// Counts a completion and observes its latency. `completed` is
    /// written before the bucket, and the snapshot reads the buckets
    /// before `completed`, so a mid-run scrape never shows more finite
    /// bucket observations than completions.
    pub(crate) fn record_completed(&self, latency: Duration) {
        self.completed.fetch_add(1, Ordering::SeqCst);
        let nanos = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        if let Some(i) = LATENCY_BUCKETS
            .iter()
            .position(|&(bound, _)| nanos <= bound)
        {
            self.bucket_counts[i].fetch_add(1, Ordering::SeqCst);
        }
        self.latency_sum_nanos.fetch_add(nanos, Ordering::SeqCst);
    }

    /// Counts an execution failure.
    pub(crate) fn record_failed(&self) {
        self.failed.fetch_add(1, Ordering::SeqCst);
    }

    /// Counts a deadline shed at dispatch.
    pub(crate) fn record_expired(&self) {
        self.shed_expired.fetch_add(1, Ordering::SeqCst);
    }

    /// Counts a cancellation — fired from the
    /// [`Pending`](crate::service) drop guard wherever it runs.
    pub(crate) fn record_canceled(&self) {
        self.shed_canceled.fetch_add(1, Ordering::SeqCst);
    }

    /// Counts a displacement victim.
    pub(crate) fn record_preempted(&self) {
        self.shed_preempted.fetch_add(1, Ordering::SeqCst);
    }

    /// Reads the counters in the torn-safe order: histogram buckets and
    /// sum, then the terminal-class counters, then `submitted` last.
    /// The histogram count is `completed`.
    pub(crate) fn snapshot(&self) -> ModelMetricsSnapshot {
        let mut buckets = [0u64; LATENCY_BUCKETS.len()];
        for (slot, counter) in buckets.iter_mut().zip(&self.bucket_counts) {
            *slot = counter.load(Ordering::SeqCst);
        }
        let latency_sum_nanos = self.latency_sum_nanos.load(Ordering::SeqCst);
        let completed = self.completed.load(Ordering::SeqCst);
        let failed = self.failed.load(Ordering::SeqCst);
        let shed_expired = self.shed_expired.load(Ordering::SeqCst);
        let shed_canceled = self.shed_canceled.load(Ordering::SeqCst);
        let shed_preempted = self.shed_preempted.load(Ordering::SeqCst);
        let submitted = self.submitted.load(Ordering::SeqCst);
        ModelMetricsSnapshot {
            model: self.name.clone(),
            buckets,
            latency_count: completed,
            latency_sum_nanos,
            submitted,
            completed,
            failed,
            shed_expired,
            shed_canceled,
            shed_preempted,
        }
    }
}

/// The per-model metric slots, owned by the service. Handles are
/// deduplicated by model name, so re-registrations (and `ModelId`s
/// aliasing one cached artifact) feed one series.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    models: RwLock<Vec<Arc<ModelMetrics>>>,
}

impl MetricsRegistry {
    /// The metric handle for `name`, created on first use.
    pub(crate) fn handle(&self, name: &str) -> Arc<ModelMetrics> {
        {
            let models = self.models.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(m) = models.iter().find(|m| m.name == name) {
                return Arc::clone(m);
            }
        }
        let mut models = self.models.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(m) = models.iter().find(|m| m.name == name) {
            return Arc::clone(m);
        }
        let m = Arc::new(ModelMetrics {
            name: name.to_string(),
            ..ModelMetrics::default()
        });
        models.push(Arc::clone(&m));
        m
    }

    /// Per-model snapshots in registration order. Every service-wide
    /// request total is summed from one such read.
    pub(crate) fn snapshot_models(&self) -> Vec<ModelMetricsSnapshot> {
        self.models
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|m| m.snapshot())
            .collect()
    }
}

/// One model's exported counters and histogram, as read (or parsed
/// back) from the text exposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelMetricsSnapshot {
    /// The registered model name (the `model` label value).
    pub model: String,
    /// Non-cumulative counts per finite bucket of [`LATENCY_BUCKETS`]
    /// (the export renders them cumulatively; [`parse_text`] undoes
    /// that). Completions slower than the last bound land only in the
    /// implicit `+Inf` bucket, i.e. in `latency_count`.
    pub buckets: [u64; LATENCY_BUCKETS.len()],
    /// Total latency observations (`_count`, also the `+Inf` bucket).
    /// A live snapshot sets it to `completed`; a parsed one carries
    /// the exported value, which [`MetricsSnapshot::check_internal`]
    /// compares with `completed`.
    pub latency_count: u64,
    /// Sum of observed latencies in nanoseconds (`_sum` renders as
    /// seconds with 9 fixed decimals, so the round trip is exact).
    pub latency_sum_nanos: u64,
    /// Accepted requests for this model.
    pub submitted: u64,
    /// Completed requests (each also observed by the histogram).
    pub completed: u64,
    /// Requests fulfilled with an execution error.
    pub failed: u64,
    /// Deadline sheds at dispatch.
    pub shed_expired: u64,
    /// Cancellations (worker death, poisoning, shutdown).
    pub shed_canceled: u64,
    /// Displacement victims.
    pub shed_preempted: u64,
}

impl ModelMetricsSnapshot {
    fn terminal_sum(&self) -> u64 {
        self.completed + self.failed + self.shed_expired + self.shed_canceled + self.shed_preempted
    }
}

/// Everything one scrape exports, as a value: build it with
/// [`Service::metrics_snapshot`], render it with
/// [`render`](Self::render), or recover it from text with
/// [`parse_text`]. Equality is field-exact, which is what the gating
/// tests assert.
///
/// [`Service::metrics_snapshot`]: crate::service::Service::metrics_snapshot
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Per-model series in registration order.
    pub models: Vec<ModelMetricsSnapshot>,
    /// Waiting requests at scrape time (sampled under the queue mutex).
    pub queue_depth: u64,
    /// Highest queue depth ever observed (same lock acquisition as
    /// `queue_depth`, so the pair is consistent).
    pub queue_depth_high_water: u64,
    /// The cache ledger, verbatim.
    pub cache: CacheStats,
    /// The service ledger: the request totals summed from `models`.
    pub service: ServiceStats,
}

const F_SUBMITTED: &str = "nm_serve_requests_submitted_total";
const F_COMPLETED: &str = "nm_serve_requests_completed_total";
const F_FAILED: &str = "nm_serve_requests_failed_total";
const F_SHED_FULL: &str = "nm_serve_shed_full_total";
const F_SHED_FULL_CLASS: &str = "nm_serve_shed_full_by_class_total";
const F_SHED_EXPIRED: &str = "nm_serve_shed_expired_total";
const F_SHED_CANCELED: &str = "nm_serve_shed_canceled_total";
const F_SHED_PREEMPTED: &str = "nm_serve_shed_preempted_total";
const F_WORKER_PANICS: &str = "nm_serve_worker_panics_total";
const F_RESTARTS: &str = "nm_serve_worker_restarts_total";
const F_BATCHES: &str = "nm_serve_batches_total";
const F_MAX_COALESCED: &str = "nm_serve_batch_max_coalesced";
const F_QUEUE_DEPTH: &str = "nm_serve_queue_depth";
const F_QUEUE_HIGH: &str = "nm_serve_queue_depth_high_water";
const F_CACHE_HITS: &str = "nm_serve_cache_hits_total";
const F_CACHE_MISSES: &str = "nm_serve_cache_misses_total";
const F_CACHE_FAILED: &str = "nm_serve_cache_failed_prepares_total";
const F_CACHE_EVICTIONS: &str = "nm_serve_cache_evictions_total";
const F_CACHE_RESIDENT: &str = "nm_serve_cache_resident_bytes";
const F_CACHE_RESIDENT_HIGH: &str = "nm_serve_cache_resident_bytes_high_water";
const F_M_SUBMITTED: &str = "nm_serve_model_requests_submitted_total";
const F_M_COMPLETED: &str = "nm_serve_model_requests_completed_total";
const F_M_FAILED: &str = "nm_serve_model_requests_failed_total";
const F_M_EXPIRED: &str = "nm_serve_model_shed_expired_total";
const F_M_CANCELED: &str = "nm_serve_model_shed_canceled_total";
const F_M_PREEMPTED: &str = "nm_serve_model_shed_preempted_total";
const F_LATENCY: &str = "nm_serve_request_latency_seconds";

/// Escapes a label value per the exposition format (`\` → `\\`,
/// `"` → `\"`, newline → `\n`).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn plain(out: &mut String, name: &str, value: u64) {
    let _ = writeln!(out, "{name} {value}");
}

fn labeled(out: &mut String, name: &str, label: &str, label_value: &str, value: u64) {
    let _ = writeln!(
        out,
        "{name}{{{label}=\"{}\"}} {value}",
        escape_label(label_value)
    );
}

/// Renders nanoseconds as seconds with 9 fixed decimals — exact, so
/// the parse round trip reproduces the stored value bit for bit.
fn nanos_as_secs(nanos: u64) -> String {
    format!("{}.{:09}", nanos / 1_000_000_000, nanos % 1_000_000_000)
}

/// Accessor projecting one counter out of a per-model snapshot — the
/// render/check tables below pair each with its family name.
type ModelField = fn(&ModelMetricsSnapshot) -> u64;

impl MetricsSnapshot {
    /// The Prometheus text exposition of this snapshot. Line set and
    /// order are deterministic (see the module docs for which *values*
    /// are host-dependent).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let s = &self.service;
        let per_model: [(&str, &str, ModelField); 6] = [
            (F_M_SUBMITTED, "Accepted requests per model.", |m| {
                m.submitted
            }),
            (F_M_COMPLETED, "Completed requests per model.", |m| {
                m.completed
            }),
            (F_M_FAILED, "Failed requests per model.", |m| m.failed),
            (F_M_EXPIRED, "Deadline sheds at dispatch per model.", |m| {
                m.shed_expired
            }),
            (F_M_CANCELED, "Canceled requests per model.", |m| {
                m.shed_canceled
            }),
            (F_M_PREEMPTED, "Displacement victims per model.", |m| {
                m.shed_preempted
            }),
        ];

        family(
            &mut out,
            F_SUBMITTED,
            "counter",
            "Requests accepted into the queue.",
        );
        plain(&mut out, F_SUBMITTED, s.submitted);
        family(
            &mut out,
            F_COMPLETED,
            "counter",
            "Requests fulfilled with a result.",
        );
        plain(&mut out, F_COMPLETED, s.completed);
        family(
            &mut out,
            F_FAILED,
            "counter",
            "Requests fulfilled with an execution error.",
        );
        plain(&mut out, F_FAILED, s.failed);
        family(
            &mut out,
            F_SHED_FULL,
            "counter",
            "Submissions refused at the full queue.",
        );
        plain(&mut out, F_SHED_FULL, s.shed);
        family(
            &mut out,
            F_SHED_FULL_CLASS,
            "counter",
            "Full-queue sheds by the rejected request's priority class.",
        );
        for p in Priority::ALL {
            labeled(
                &mut out,
                F_SHED_FULL_CLASS,
                "class",
                p.label(),
                s.shed_full_by_class[p.rank()],
            );
        }
        family(
            &mut out,
            F_SHED_EXPIRED,
            "counter",
            "Accepted requests shed at dispatch past their deadline.",
        );
        plain(&mut out, F_SHED_EXPIRED, s.shed_expired);
        family(
            &mut out,
            F_SHED_CANCELED,
            "counter",
            "Accepted requests canceled before execution.",
        );
        plain(&mut out, F_SHED_CANCELED, s.shed_canceled);
        family(
            &mut out,
            F_SHED_PREEMPTED,
            "counter",
            "Accepted requests displaced by a higher-priority submit.",
        );
        plain(&mut out, F_SHED_PREEMPTED, s.shed_preempted);
        family(
            &mut out,
            F_WORKER_PANICS,
            "counter",
            "Panics caught by the per-batch isolation.",
        );
        plain(&mut out, F_WORKER_PANICS, s.worker_panics);
        family(
            &mut out,
            F_RESTARTS,
            "counter",
            "Worker threads respawned by the supervisor.",
        );
        plain(&mut out, F_RESTARTS, s.restarts);
        family(&mut out, F_BATCHES, "counter", "Batches executed.");
        plain(&mut out, F_BATCHES, s.batches);
        family(
            &mut out,
            F_MAX_COALESCED,
            "gauge",
            "Largest batch coalesced so far.",
        );
        plain(&mut out, F_MAX_COALESCED, s.max_coalesced);
        family(
            &mut out,
            F_QUEUE_DEPTH,
            "gauge",
            "Waiting requests, sampled under the queue mutex.",
        );
        plain(&mut out, F_QUEUE_DEPTH, self.queue_depth);
        family(
            &mut out,
            F_QUEUE_HIGH,
            "gauge",
            "Highest queue depth ever observed.",
        );
        plain(&mut out, F_QUEUE_HIGH, self.queue_depth_high_water);
        family(
            &mut out,
            F_CACHE_HITS,
            "counter",
            "Model-cache lookups served from the cache.",
        );
        plain(&mut out, F_CACHE_HITS, self.cache.hits);
        family(
            &mut out,
            F_CACHE_MISSES,
            "counter",
            "Model-cache lookups that paid a successful preparation.",
        );
        plain(&mut out, F_CACHE_MISSES, self.cache.misses);
        family(
            &mut out,
            F_CACHE_FAILED,
            "counter",
            "Model-cache lookups whose preparation failed.",
        );
        plain(&mut out, F_CACHE_FAILED, self.cache.failed_prepares);
        family(
            &mut out,
            F_CACHE_EVICTIONS,
            "counter",
            "Cache entries dropped under the byte budget.",
        );
        plain(&mut out, F_CACHE_EVICTIONS, self.cache.evictions);
        family(
            &mut out,
            F_CACHE_RESIDENT,
            "gauge",
            "Resident bytes of everything currently cached.",
        );
        plain(&mut out, F_CACHE_RESIDENT, self.cache.resident_bytes);
        family(
            &mut out,
            F_CACHE_RESIDENT_HIGH,
            "gauge",
            "Highest resident_bytes ever observed.",
        );
        plain(
            &mut out,
            F_CACHE_RESIDENT_HIGH,
            self.cache.resident_high_water,
        );

        for (name, help, get) in per_model {
            family(&mut out, name, "counter", help);
            for m in &self.models {
                labeled(&mut out, name, "model", &m.model, get(m));
            }
        }

        family(
            &mut out,
            F_LATENCY,
            "histogram",
            "Wall-clock submit-to-fulfill latency of completed requests (host-dependent).",
        );
        for m in &self.models {
            let escaped = escape_label(&m.model);
            let mut cumulative = 0u64;
            for ((_, le), count) in LATENCY_BUCKETS.iter().zip(&m.buckets) {
                cumulative += count;
                let _ = writeln!(
                    out,
                    "{F_LATENCY}_bucket{{model=\"{escaped}\",le=\"{le}\"}} {cumulative}"
                );
            }
            let _ = writeln!(
                out,
                "{F_LATENCY}_bucket{{model=\"{escaped}\",le=\"+Inf\"}} {}",
                m.latency_count
            );
            let _ = writeln!(
                out,
                "{F_LATENCY}_sum{{model=\"{escaped}\"}} {}",
                nanos_as_secs(m.latency_sum_nanos)
            );
            let _ = writeln!(
                out,
                "{F_LATENCY}_count{{model=\"{escaped}\"}} {}",
                m.latency_count
            );
        }
        out
    }

    /// The invariants every scrape must satisfy, *including* a mid-run
    /// scrape taken while requests are in flight (the module docs say
    /// why they hold):
    ///
    /// * terminal classes never exceed `submitted` (globally and per
    ///   model);
    /// * the per-class full sheds sum to `shed`;
    /// * the per-model counters sum to their global counterparts;
    /// * a model's histogram count equals its `completed`, and its
    ///   finite buckets never exceed the count;
    /// * gauges respect their high-water marks.
    ///
    /// # Errors
    /// The violated invariant, named.
    pub fn check_internal(&self) -> Result<(), String> {
        let s = &self.service;
        let terminals =
            s.completed + s.failed + s.shed_expired + s.shed_canceled + s.shed_preempted;
        if terminals > s.submitted {
            return Err(format!(
                "terminal classes exceed submitted: {terminals} > {}",
                s.submitted
            ));
        }
        let by_class: u64 = s.shed_full_by_class.iter().sum();
        if by_class != s.shed {
            return Err(format!(
                "per-class full sheds do not sum to the aggregate: {by_class} != {}",
                s.shed
            ));
        }
        if self.queue_depth > self.queue_depth_high_water {
            return Err(format!(
                "queue depth {} exceeds its high-water mark {}",
                self.queue_depth, self.queue_depth_high_water
            ));
        }
        if self.cache.resident_bytes > self.cache.resident_high_water {
            return Err(format!(
                "resident bytes {} exceed the high-water mark {}",
                self.cache.resident_bytes, self.cache.resident_high_water
            ));
        }
        let sums: [(&str, ModelField, u64); 6] = [
            ("submitted", |m| m.submitted, s.submitted),
            ("completed", |m| m.completed, s.completed),
            ("failed", |m| m.failed, s.failed),
            ("shed_expired", |m| m.shed_expired, s.shed_expired),
            ("shed_canceled", |m| m.shed_canceled, s.shed_canceled),
            ("shed_preempted", |m| m.shed_preempted, s.shed_preempted),
        ];
        for (what, get, global) in sums {
            let sum: u64 = self.models.iter().map(get).sum();
            if sum != global {
                return Err(format!(
                    "per-model {what} sum does not equal the global counter: {sum} != {global}"
                ));
            }
        }
        for m in &self.models {
            if m.terminal_sum() > m.submitted {
                return Err(format!(
                    "model {:?}: terminal classes exceed submitted: {} > {}",
                    m.model,
                    m.terminal_sum(),
                    m.submitted
                ));
            }
            if m.latency_count != m.completed {
                return Err(format!(
                    "model {:?}: histogram count {} != completed {}",
                    m.model, m.latency_count, m.completed
                ));
            }
            let finite: u64 = m.buckets.iter().sum();
            if finite > m.latency_count {
                return Err(format!(
                    "model {:?}: finite buckets exceed the histogram count: {finite} > {}",
                    m.model, m.latency_count
                ));
            }
        }
        Ok(())
    }

    /// The *exact* gating check for a quiesced scrape (taken after a
    /// drain, with no traffic racing it): everything
    /// [`check_internal`](Self::check_internal) demands, plus field
    /// equality with the service's own ledgers and the five-term
    /// reconciliation `submitted == completed + failed + shed_expired +
    /// shed_canceled + shed_preempted` per model (the global form
    /// follows, since the per-model counters sum to the global ones).
    ///
    /// # Errors
    /// The violated contract, named.
    pub fn check_quiesced(&self, service: &ServiceStats, cache: &CacheStats) -> Result<(), String> {
        self.check_internal()?;
        if self.service != *service {
            return Err(format!(
                "exported service ledger differs: {:?} != {service:?}",
                self.service
            ));
        }
        if self.cache != *cache {
            return Err(format!(
                "exported cache ledger differs: {:?} != {cache:?}",
                self.cache
            ));
        }
        for m in &self.models {
            if m.terminal_sum() != m.submitted {
                return Err(format!(
                    "model {:?}: five-term reconciliation fails: {} != {}",
                    m.model,
                    m.terminal_sum(),
                    m.submitted
                ));
            }
        }
        Ok(())
    }
}

/// One parsed sample line: name, labels, raw value text.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: String,
}

/// Splits one non-comment exposition line into a [`Sample`], honoring
/// escapes inside quoted label values.
fn parse_sample(line: &str) -> Result<Sample, String> {
    let bad = |what: &str| format!("{what} in metric line {line:?}");
    let Some(brace) = line.find('{') else {
        let mut it = line.split_whitespace();
        let name = it.next().ok_or_else(|| bad("missing name"))?.to_string();
        let value = it.next().ok_or_else(|| bad("missing value"))?.to_string();
        if it.next().is_some() {
            return Err(bad("trailing tokens"));
        }
        return Ok(Sample {
            name,
            labels: Vec::new(),
            value,
        });
    };
    let name = line[..brace].to_string();
    let mut labels = Vec::new();
    let mut chars = line[brace + 1..].chars().peekable();
    loop {
        if chars.peek() == Some(&'}') {
            chars.next();
            break;
        }
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if chars.next() != Some('"') {
            return Err(bad("label value is not quoted"));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    _ => return Err(bad("unknown escape")),
                },
                Some('"') => break,
                Some(c) => value.push(c),
                None => return Err(bad("unterminated label value")),
            }
        }
        labels.push((key, value));
        if chars.peek() == Some(&',') {
            chars.next();
        }
    }
    let value = chars.collect::<String>().trim().to_string();
    if value.is_empty() {
        return Err(bad("missing value"));
    }
    Ok(Sample {
        name,
        labels,
        value,
    })
}

fn parse_u64(value: &str, what: &str) -> Result<u64, String> {
    value
        .parse::<u64>()
        .map_err(|e| format!("{what}: unparsable value {value:?}: {e}"))
}

/// Parses a `_sum` value ("secs.nanos9") back to nanoseconds, exactly.
fn parse_secs_to_nanos(value: &str) -> Result<u64, String> {
    let (secs, frac) = value
        .split_once('.')
        .ok_or_else(|| format!("latency sum {value:?} is not secs.frac"))?;
    if frac.len() != 9 {
        return Err(format!("latency sum {value:?} must carry 9 decimals"));
    }
    let secs = parse_u64(secs, "latency sum seconds")?;
    let nanos = parse_u64(frac, "latency sum fraction")?;
    secs.checked_mul(1_000_000_000)
        .and_then(|n| n.checked_add(nanos))
        .ok_or_else(|| format!("latency sum {value:?} overflows"))
}

fn find_plain(samples: &[Sample], name: &str) -> Result<u64, String> {
    let s = samples
        .iter()
        .find(|s| s.name == name && s.labels.is_empty())
        .ok_or_else(|| format!("missing metric {name}"))?;
    parse_u64(&s.value, name)
}

fn find_labeled<'a>(
    samples: &'a [Sample],
    name: &str,
    label: &str,
    value: &str,
) -> Result<&'a Sample, String> {
    samples
        .iter()
        .find(|s| s.name == name && s.labels.iter().any(|(k, v)| k == label && v == value))
        .ok_or_else(|| format!("missing metric {name}{{{label}={value:?}}}"))
}

fn find_model(samples: &[Sample], name: &str, model: &str) -> Result<u64, String> {
    let s = find_labeled(samples, name, "model", model)?;
    parse_u64(&s.value, name)
}

/// Parses a [`MetricsSnapshot::render`] export back into the snapshot
/// value — the gating direction: the test suites assert the parsed
/// ledgers equal the service's own, exactly.
///
/// # Errors
/// A message naming the malformed or missing line. Valid mid-run
/// scrapes always parse; semantic invariants are
/// [`MetricsSnapshot::check_internal`]'s job, except the structural
/// ones a histogram cannot violate (cumulative buckets must be
/// monotone, and the `+Inf` bucket must equal `_count`).
pub fn parse_text(text: &str) -> Result<MetricsSnapshot, String> {
    let mut samples = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        samples.push(parse_sample(line)?);
    }
    let service = ServiceStats {
        submitted: find_plain(&samples, F_SUBMITTED)?,
        completed: find_plain(&samples, F_COMPLETED)?,
        failed: find_plain(&samples, F_FAILED)?,
        shed: find_plain(&samples, F_SHED_FULL)?,
        shed_full_by_class: {
            let mut by_class = [0u64; 3];
            for p in Priority::ALL {
                let s = find_labeled(&samples, F_SHED_FULL_CLASS, "class", p.label())?;
                by_class[p.rank()] = parse_u64(&s.value, F_SHED_FULL_CLASS)?;
            }
            by_class
        },
        shed_expired: find_plain(&samples, F_SHED_EXPIRED)?,
        shed_canceled: find_plain(&samples, F_SHED_CANCELED)?,
        shed_preempted: find_plain(&samples, F_SHED_PREEMPTED)?,
        worker_panics: find_plain(&samples, F_WORKER_PANICS)?,
        restarts: find_plain(&samples, F_RESTARTS)?,
        batches: find_plain(&samples, F_BATCHES)?,
        max_coalesced: find_plain(&samples, F_MAX_COALESCED)?,
    };
    let cache = CacheStats {
        hits: find_plain(&samples, F_CACHE_HITS)?,
        misses: find_plain(&samples, F_CACHE_MISSES)?,
        failed_prepares: find_plain(&samples, F_CACHE_FAILED)?,
        evictions: find_plain(&samples, F_CACHE_EVICTIONS)?,
        resident_bytes: find_plain(&samples, F_CACHE_RESIDENT)?,
        resident_high_water: find_plain(&samples, F_CACHE_RESIDENT_HIGH)?,
    };
    let queue_depth = find_plain(&samples, F_QUEUE_DEPTH)?;
    let queue_depth_high_water = find_plain(&samples, F_QUEUE_HIGH)?;

    // Model order is the export order of the per-model submitted family.
    let names: Vec<String> = samples
        .iter()
        .filter(|s| s.name == F_M_SUBMITTED)
        .filter_map(|s| {
            s.labels
                .iter()
                .find(|(k, _)| k == "model")
                .map(|(_, v)| v.clone())
        })
        .collect();
    let mut models = Vec::with_capacity(names.len());
    for name in names {
        let latency_count = {
            let count_name = format!("{F_LATENCY}_count");
            let s = find_labeled(&samples, &count_name, "model", &name)?;
            parse_u64(&s.value, &count_name)?
        };
        let inf = {
            let bucket_name = format!("{F_LATENCY}_bucket");
            let s = samples
                .iter()
                .find(|s| {
                    s.name == bucket_name
                        && s.labels.iter().any(|(k, v)| k == "model" && v == &name)
                        && s.labels.iter().any(|(k, v)| k == "le" && v == "+Inf")
                })
                .ok_or_else(|| format!("missing +Inf bucket for model {name:?}"))?;
            parse_u64(&s.value, &bucket_name)?
        };
        if inf != latency_count {
            return Err(format!(
                "model {name:?}: +Inf bucket {inf} != _count {latency_count}"
            ));
        }
        let mut buckets = [0u64; LATENCY_BUCKETS.len()];
        let mut previous = 0u64;
        let bucket_name = format!("{F_LATENCY}_bucket");
        for (slot, (_, le)) in buckets.iter_mut().zip(LATENCY_BUCKETS.iter()) {
            let s = samples
                .iter()
                .find(|s| {
                    s.name == bucket_name
                        && s.labels.iter().any(|(k, v)| k == "model" && v == &name)
                        && s.labels.iter().any(|(k, v)| k == "le" && v == le)
                })
                .ok_or_else(|| format!("missing le={le} bucket for model {name:?}"))?;
            let cumulative = parse_u64(&s.value, &bucket_name)?;
            *slot = cumulative
                .checked_sub(previous)
                .ok_or_else(|| format!("model {name:?}: cumulative bucket le={le} decreases"))?;
            previous = cumulative;
        }
        let latency_sum_nanos = {
            let sum_name = format!("{F_LATENCY}_sum");
            let s = find_labeled(&samples, &sum_name, "model", &name)?;
            parse_secs_to_nanos(&s.value)?
        };
        models.push(ModelMetricsSnapshot {
            buckets,
            latency_count,
            latency_sum_nanos,
            submitted: find_model(&samples, F_M_SUBMITTED, &name)?,
            completed: find_model(&samples, F_M_COMPLETED, &name)?,
            failed: find_model(&samples, F_M_FAILED, &name)?,
            shed_expired: find_model(&samples, F_M_EXPIRED, &name)?,
            shed_canceled: find_model(&samples, F_M_CANCELED, &name)?,
            shed_preempted: find_model(&samples, F_M_PREEMPTED, &name)?,
            model: name,
        });
    }
    Ok(MetricsSnapshot {
        models,
        queue_depth,
        queue_depth_high_water,
        cache,
        service,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut buckets = [0u64; LATENCY_BUCKETS.len()];
        buckets[2] = 3;
        buckets[7] = 2;
        MetricsSnapshot {
            models: vec![
                ModelMetricsSnapshot {
                    // A name exercising every escape class.
                    model: "mo\"del\\a\nb".to_string(),
                    buckets,
                    latency_count: 6, // one observation beyond 10s: +Inf only
                    latency_sum_nanos: 12_345_678_901,
                    submitted: 11,
                    completed: 6,
                    failed: 1,
                    shed_expired: 2,
                    shed_canceled: 1,
                    shed_preempted: 1,
                },
                ModelMetricsSnapshot {
                    model: "plain".to_string(),
                    buckets: [0; LATENCY_BUCKETS.len()],
                    latency_count: 0,
                    latency_sum_nanos: 0,
                    submitted: 2,
                    completed: 0,
                    failed: 0,
                    shed_expired: 0,
                    shed_canceled: 2,
                    shed_preempted: 0,
                },
            ],
            queue_depth: 3,
            queue_depth_high_water: 9,
            cache: CacheStats {
                hits: 5,
                misses: 4,
                failed_prepares: 1,
                evictions: 2,
                resident_bytes: 1000,
                resident_high_water: 1500,
            },
            service: ServiceStats {
                submitted: 13,
                completed: 6,
                failed: 1,
                shed: 4,
                shed_full_by_class: [0, 1, 3],
                shed_expired: 2,
                shed_canceled: 3,
                shed_preempted: 1,
                worker_panics: 1,
                restarts: 1,
                batches: 4,
                max_coalesced: 3,
            },
        }
    }

    #[test]
    fn bucket_bounds_are_strictly_increasing_and_label_consistent() {
        for pair in LATENCY_BUCKETS.windows(2) {
            assert!(pair[0].0 < pair[1].0, "{pair:?}");
        }
        // Every label parses back to its nanosecond bound.
        for (nanos, label) in LATENCY_BUCKETS {
            let secs: f64 = label.parse().unwrap();
            let label_nanos = (secs * 1e9).round() as u64;
            assert_eq!(label_nanos, nanos, "label {label} != {nanos}ns");
        }
    }

    #[test]
    fn render_parse_round_trip_is_exact() {
        let snapshot = sample_snapshot();
        let text = snapshot.render();
        let parsed = parse_text(&text).unwrap();
        assert_eq!(parsed, snapshot);
        // And the round trip is a fixed point of rendering.
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn sample_snapshot_passes_internal_checks_but_is_not_quiesced_consistent() {
        let snapshot = sample_snapshot();
        snapshot.check_internal().unwrap();
        // The per-model canceled sum (3) matches, but model "plain"'s
        // terminal sum equals its submitted, as does the global ledger:
        // quiesced consistency holds for this fixture too.
        snapshot
            .check_quiesced(&snapshot.service, &snapshot.cache)
            .unwrap();
        // A mismatched ledger is named.
        let mut other = snapshot.service;
        other.completed += 1;
        let err = snapshot
            .check_quiesced(&other, &snapshot.cache)
            .unwrap_err();
        assert!(err.contains("service ledger"), "{err}");
    }

    #[test]
    fn check_internal_names_the_violated_invariant() {
        let mut snapshot = sample_snapshot();
        snapshot.service.completed = 0; // per-model completed now exceeds it
        let err = snapshot.check_internal().unwrap_err();
        assert!(err.contains("per-model completed"), "{err}");

        let mut snapshot = sample_snapshot();
        snapshot.service.submitted = 1;
        let err = snapshot.check_internal().unwrap_err();
        assert!(err.contains("exceed submitted"), "{err}");

        let mut snapshot = sample_snapshot();
        snapshot.models[0].latency_count = snapshot.models[0].completed + 1;
        let err = snapshot.check_internal().unwrap_err();
        assert!(err.contains("histogram count"), "{err}");

        let mut snapshot = sample_snapshot();
        snapshot.queue_depth = snapshot.queue_depth_high_water + 1;
        let err = snapshot.check_internal().unwrap_err();
        assert!(err.contains("high-water"), "{err}");
    }

    #[test]
    fn registry_deduplicates_handles_by_name() {
        let registry = MetricsRegistry::default();
        let a = registry.handle("m");
        let b = registry.handle("m");
        assert!(Arc::ptr_eq(&a, &b), "aliased names share one series");
        let c = registry.handle("other");
        assert!(!Arc::ptr_eq(&a, &c));
        a.record_submitted();
        a.record_completed(Duration::from_millis(2));
        let models = registry.snapshot_models();
        assert_eq!(models.len(), 2);
        assert_eq!(models[0].submitted, 1);
        assert_eq!(models[0].completed, 1);
        assert_eq!(models[0].latency_count, 1);
        // 2ms lands in the (1ms, 2.5ms] bucket.
        assert_eq!(models[0].buckets[4], 1);
        assert_eq!(models[1].submitted, 0);
    }

    #[test]
    fn latency_sum_renders_and_parses_exactly() {
        assert_eq!(nanos_as_secs(0), "0.000000000");
        assert_eq!(nanos_as_secs(1), "0.000000001");
        assert_eq!(nanos_as_secs(12_345_678_901), "12.345678901");
        for nanos in [0, 1, 999_999_999, 1_000_000_000, u64::MAX / 2] {
            assert_eq!(parse_secs_to_nanos(&nanos_as_secs(nanos)).unwrap(), nanos);
        }
        assert!(
            parse_secs_to_nanos("1.5").is_err(),
            "short fractions refuse"
        );
    }

    #[test]
    fn observations_beyond_the_last_bound_land_only_in_inf() {
        let registry = MetricsRegistry::default();
        let m = registry.handle("slow");
        m.record_submitted();
        m.record_completed(Duration::from_secs(11));
        let snap = &registry.snapshot_models()[0];
        assert_eq!(snap.buckets.iter().sum::<u64>(), 0);
        assert_eq!(snap.latency_count, 1);
    }
}
