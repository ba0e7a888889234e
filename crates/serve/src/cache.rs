//! The prepared-model cache: compile once per (model, format, options),
//! share everywhere — under a configurable resident-byte budget.
//!
//! Preparation ([`PreparedGraph::prepare_shared`]) is the expensive step
//! serving amortizes — kernel selection, tiling, per-tile weight packing
//! and decimation-table decoding. The cache keys prepared artifacts by
//! **model name and full compilation [`Options`]** (which subsume the
//! kernel format via `Options::target`), so registering the same model
//! twice, or for two services, reuses the packed weights; registering it
//! under a different target/format prepares a distinct artifact, exactly
//! like a deployment serving the same network in several formats for
//! comparison.
//!
//! # Byte budget and eviction
//!
//! On an MCU-class host the packed weights are the scarcest resource, so
//! the cache can be given a byte budget ([`ModelCache::with_budget`]).
//! Each artifact's cost is [`PreparedGraph::resident_bytes`] — a pure
//! function of `(graph, opts)`, which is what makes eviction decisions
//! reproducible. When an insert would exceed the budget, the cache
//! evicts **least-recently-used unpinned** entries until the newcomer
//! fits:
//!
//! * An entry is **pinned** while anyone outside the cache holds an
//!   `Arc` to its artifact (`Arc::strong_count > 1`). Eviction only ever
//!   drops the cache's own reference — it never invalidates in-flight
//!   work, which keeps the artifact alive through its own `Arc` until
//!   the last holder drops it.
//! * Recency is a monotonic tick bumped on every hit and insert, so two
//!   identical register/lookup sequences produce identical eviction
//!   orders, counters and artifacts.
//! * If the newcomer cannot fit even after evicting everything unpinned
//!   (or is alone bigger than the budget), the insert fails with
//!   [`CacheError::OverBudget`] and the cache is left untouched — the
//!   service layer surfaces this as `ServeError::CacheOverBudget`.

use crate::fault::{FaultAction, FaultPlan, FaultPoint};
use nm_compiler::{Options, PreparedGraph};
use nm_core::Error;
use nm_nn::graph::Graph;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// The cache key: model name plus the complete compilation options
/// (target format, L1 budget, cost model, emulation path, threads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelKey {
    /// Caller-chosen model name.
    pub name: String,
    /// The options the artifact was prepared with.
    pub opts: Options,
}

/// Why a cache lookup failed.
#[derive(Debug)]
pub enum CacheError {
    /// Preparation itself failed (tiling, packing, an injected fault, or
    /// a name collision with a different graph); nothing was cached.
    Prepare(Error),
    /// The artifact prepared fine but cannot fit in the byte budget even
    /// after evicting every unpinned entry. `required` is the artifact's
    /// own resident bytes ([`PreparedGraph::resident_bytes`]).
    OverBudget {
        /// Resident bytes the rejected artifact needs.
        required: usize,
        /// The cache's configured budget.
        budget: usize,
    },
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Prepare(e) => write!(f, "preparation failed: {e}"),
            CacheError::OverBudget { required, budget } => write!(
                f,
                "artifact needs {required} resident bytes but the cache budget \
                 is {budget} and no further unpinned entry can be evicted"
            ),
        }
    }
}

impl std::error::Error for CacheError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheError::Prepare(e) => Some(e),
            CacheError::OverBudget { .. } => None,
        }
    }
}

/// A named snapshot of the cache's counters (replaces the old positional
/// `(hits, misses)` tuple, which was ambiguous at call sites and grew).
///
/// Every field is exported verbatim by the service's metrics surface
/// (`Service::metrics_text`) as `nm_serve_cache_hits_total`,
/// `nm_serve_cache_misses_total`, `nm_serve_cache_failed_prepares_total`,
/// `nm_serve_cache_evictions_total` and the
/// `nm_serve_cache_resident_bytes{,_high_water}` gauges — the export is
/// asserted equal to this struct, so the names here and there describe
/// one ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that paid a *successful* preparation.
    pub misses: u64,
    /// Lookups whose preparation failed (nothing was cached).
    pub failed_prepares: u64,
    /// Entries dropped to make room under the byte budget.
    pub evictions: u64,
    /// Resident bytes of everything currently cached.
    pub resident_bytes: u64,
    /// The highest `resident_bytes` ever observed (after any insert).
    pub resident_high_water: u64,
}

/// One cached artifact: the key, the graph it was prepared from (so a
/// hit can verify the caller is naming the *same* model — see
/// [`get_or_prepare`](ModelCache::get_or_prepare)), the prepared result,
/// its resident cost and its last-touched tick.
#[derive(Debug)]
struct CacheEntry {
    key: ModelKey,
    graph: Arc<Graph>,
    prepared: Arc<PreparedGraph<'static>>,
    bytes: usize,
    last_used: u64,
}

/// A cache of [`PreparedGraph`]s keyed by [`ModelKey`]. Lookups are
/// get-or-prepare: the first request for a key pays the compile, every
/// later one clones an [`Arc`]. With a byte budget, inserts evict
/// least-recently-used unpinned entries (see the module docs).
#[derive(Debug, Default)]
pub struct ModelCache {
    entries: Mutex<Vec<CacheEntry>>,
    /// Resident-byte budget; `None` means unbounded (never evicts).
    budget: Option<usize>,
    /// Monotonic recency clock: bumped on every hit and insert.
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    failed_prepares: AtomicU64,
    evictions: AtomicU64,
    /// Gauges mirrored from the entry list (written only under the
    /// entries lock) so stats reads never need the lock.
    resident: AtomicU64,
    high_water: AtomicU64,
    /// Deterministic fault injection ([`FaultPoint::Prepare`],
    /// [`FaultPoint::CacheInsert`]); `None` in production.
    faults: Option<Arc<FaultPlan>>,
}

impl ModelCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache that keeps at most `budget` resident bytes
    /// of prepared artifacts, evicting LRU unpinned entries on pressure.
    pub fn with_budget(budget: usize) -> Self {
        ModelCache {
            budget: Some(budget),
            ..Self::default()
        }
    }

    /// Creates an empty cache consulting `faults` at the `prepare` and
    /// `cache_insert` injection points (see [`crate::fault`]).
    pub fn with_faults(faults: Option<Arc<FaultPlan>>) -> Self {
        ModelCache {
            faults,
            ..Self::default()
        }
    }

    /// Full configuration: optional byte budget plus optional faults.
    pub fn configured(budget: Option<usize>, faults: Option<Arc<FaultPlan>>) -> Self {
        ModelCache {
            budget,
            faults,
            ..Self::default()
        }
    }

    /// Returns the prepared artifact for `(name, opts)`, compiling
    /// `graph` on first use. Preparation happens under the cache lock:
    /// concurrent first requests for the same key never duplicate the
    /// packing work (they briefly serialize instead, which is the right
    /// trade for a compile-once cache). Note this serializes *all*
    /// concurrent prepares, different keys included — registration is a
    /// startup-time operation here; a service whose multi-model startup
    /// time matters should prepare graphs concurrently up front
    /// ([`PreparedGraph::prepare_shared`]) before registering, or this
    /// cache wants a per-key in-progress marker.
    ///
    /// # Errors
    /// [`CacheError::Prepare`] propagates preparation failures (tiling
    /// or packing errors, e.g. [`nm_core::Error::OutOfMemory`] for a
    /// model whose minimum tile exceeds the L1 budget); nothing is
    /// cached on failure and the cache stays fully usable for subsequent
    /// models. A hit whose cached entry was prepared from a *different*
    /// graph object is rejected the same way
    /// ([`nm_core::Error::Unsupported`]): the key is the model name, so
    /// silently serving the old graph's weights to a caller holding a
    /// new graph of the same name would produce wrong results with no
    /// error — re-registering a changed model needs a new name (or
    /// options) instead. [`CacheError::OverBudget`] means the prepared
    /// artifact cannot fit the byte budget even after evicting every
    /// unpinned entry; the (successful) preparation is discarded.
    ///
    /// A preparation that *panics* (injected or real) unwinds into the
    /// caller with the entries lock poisoned but the entry list
    /// untouched — later lookups recover the lock and proceed, so one
    /// catastrophic model cannot wedge the cache.
    pub fn get_or_prepare(
        &self,
        name: &str,
        graph: &Arc<Graph>,
        opts: &Options,
    ) -> Result<Arc<PreparedGraph<'static>>, CacheError> {
        if let Some(plan) = &self.faults {
            match plan.check(FaultPoint::Prepare) {
                Some(FaultAction::Error) => {
                    self.failed_prepares.fetch_add(1, Ordering::Relaxed);
                    return Err(CacheError::Prepare(Error::Unsupported(
                        "injected fault: prepare".to_string(),
                    )));
                }
                Some(_) => panic!("injected fault: prepare"),
                None => {}
            }
        }
        // Mutations happen only after a successful prepare, so a
        // poisoned lock (a panic under it) left the list consistent.
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(entry) = entries
            .iter_mut()
            .find(|e| e.key.name == name && e.key.opts == *opts)
        {
            if !Arc::ptr_eq(&entry.graph, graph) {
                return Err(CacheError::Prepare(Error::Unsupported(format!(
                    "model {name:?} is already cached for these options with a \
                     different graph; register changed models under a new name"
                ))));
            }
            entry.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(&entry.prepared));
        }
        // A failed preparation is not a miss: `misses` counts lookups
        // that *paid* a preparation, so the counter moves only once
        // `prepare_shared` succeeds; failures land in `failed_prepares`.
        let prepared = match PreparedGraph::prepare_shared(Arc::clone(graph), opts) {
            Ok(prepared) => Arc::new(prepared),
            Err(e) => {
                self.failed_prepares.fetch_add(1, Ordering::Relaxed);
                return Err(CacheError::Prepare(e));
            }
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(plan) = &self.faults {
            match plan.check(FaultPoint::CacheInsert) {
                Some(FaultAction::Error) => {
                    // Nothing is cached; the (successful) preparation is
                    // discarded, exactly like any other insert failure.
                    return Err(CacheError::Prepare(Error::Unsupported(
                        "injected fault: cache_insert".to_string(),
                    )));
                }
                Some(_) => panic!("injected fault: cache_insert"),
                None => {}
            }
        }
        let bytes = prepared.resident_bytes();
        self.evict_to_fit(&mut entries, bytes)?;
        entries.push(CacheEntry {
            key: ModelKey {
                name: name.to_string(),
                opts: *opts,
            },
            graph: Arc::clone(graph),
            prepared: Arc::clone(&prepared),
            bytes,
            last_used: self.tick.fetch_add(1, Ordering::Relaxed),
        });
        let resident: usize = entries.iter().map(|e| e.bytes).sum();
        self.resident.store(resident as u64, Ordering::Relaxed);
        self.high_water
            .fetch_max(resident as u64, Ordering::Relaxed);
        Ok(prepared)
    }

    /// Evicts LRU unpinned entries until `incoming` more bytes fit the
    /// budget (no-op when unbounded). Fails — leaving `entries`
    /// partially evicted but always consistent — once every survivor is
    /// pinned: an entry is pinned while its artifact has `Arc` holders
    /// outside the cache, and dropping it here would not free its bytes
    /// anyway (the holders keep it alive); it would only lose the
    /// ability to share it.
    fn evict_to_fit(
        &self,
        entries: &mut Vec<CacheEntry>,
        incoming: usize,
    ) -> Result<(), CacheError> {
        let Some(budget) = self.budget else {
            return Ok(());
        };
        if incoming > budget {
            return Err(CacheError::OverBudget {
                required: incoming,
                budget,
            });
        }
        loop {
            let resident: usize = entries.iter().map(|e| e.bytes).sum();
            if resident + incoming <= budget {
                self.resident.store(resident as u64, Ordering::Relaxed);
                return Ok(());
            }
            let victim = entries
                .iter()
                .enumerate()
                .filter(|(_, e)| Arc::strong_count(&e.prepared) == 1)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i);
            match victim {
                Some(i) => {
                    entries.remove(i);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => {
                    let resident: usize = entries.iter().map(|e| e.bytes).sum();
                    self.resident.store(resident as u64, Ordering::Relaxed);
                    return Err(CacheError::OverBudget {
                        required: incoming,
                        budget,
                    });
                }
            }
        }
    }

    /// Cached artifacts.
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The currently cached keys, oldest insert first (evicted entries
    /// are gone). Exposed so eviction-determinism tests can compare two
    /// runs' cache contents directly.
    pub fn cached_keys(&self) -> Vec<ModelKey> {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|e| e.key.clone())
            .collect()
    }

    /// A consistent snapshot of every counter plus the resident-byte
    /// gauge and its high-water mark.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            failed_prepares: self.failed_prepares.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: self.resident.load(Ordering::Relaxed),
            resident_high_water: self.high_water.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_compiler::Target;
    use nm_core::quant::Requant;
    use nm_core::FcGeom;
    use nm_nn::layer::LinearLayer;
    use nm_nn::rng::XorShift;
    use nm_nn::GraphBuilder;

    fn tiny_graph() -> Arc<Graph> {
        seeded_graph(3)
    }

    // Same geometry for every seed, so every artifact reports the same
    // resident bytes — budget math in the eviction tests stays exact.
    fn seeded_graph(seed: u64) -> Arc<Graph> {
        let mut b = GraphBuilder::new(&[16]);
        let layer = LinearLayer::new(
            FcGeom::new(16, 8).unwrap(),
            XorShift::new(seed).fill_weights(16 * 8, 30),
            Requant::for_dot_len(16),
        )
        .unwrap();
        let out = b.linear(b.input(), layer).unwrap();
        Arc::new(b.finish(out).unwrap())
    }

    fn artifact_bytes(graph: &Arc<Graph>, opts: &Options) -> usize {
        PreparedGraph::prepare_shared(Arc::clone(graph), opts)
            .unwrap()
            .resident_bytes()
    }

    #[test]
    fn same_key_prepares_once_and_shares() {
        let cache = ModelCache::new();
        let graph = tiny_graph();
        let opts = Options::new(Target::DensePulpNn);
        let a = cache.get_or_prepare("m", &graph, &opts).unwrap();
        let b = cache.get_or_prepare("m", &graph, &opts).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup shares the artifact");
        assert_eq!((cache.stats().misses, cache.stats().hits), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    // A hit must name the same graph the entry was prepared from:
    // silently serving stale weights to a caller holding a different
    // graph of the same name is the one failure mode a name-keyed
    // cache must refuse loudly.
    #[test]
    fn same_key_different_graph_is_rejected() {
        let cache = ModelCache::new();
        let opts = Options::new(Target::DensePulpNn);
        let v1 = tiny_graph();
        let v2 = tiny_graph(); // same shape, different object/weights
        cache.get_or_prepare("m", &v1, &opts).unwrap();
        let err = cache.get_or_prepare("m", &v2, &opts).unwrap_err();
        assert!(
            matches!(err, CacheError::Prepare(Error::Unsupported(_))),
            "{err:?}"
        );
        // The original registration is untouched and still hits.
        assert!(cache.get_or_prepare("m", &v1, &opts).is_ok());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn options_and_name_are_part_of_the_key() {
        let cache = ModelCache::new();
        let graph = tiny_graph();
        let opts = Options::new(Target::DensePulpNn);
        let a = cache.get_or_prepare("m", &graph, &opts).unwrap();
        // Same model, different execution tier: distinct artifact.
        let mut ref_path = opts;
        ref_path.tier = nm_compiler::ExecTier::Reference;
        let b = cache.get_or_prepare("m", &graph, &ref_path).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        // Different name, same options: also distinct.
        let c = cache.get_or_prepare("m2", &graph, &opts).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().misses, 3);
    }

    // Injected prepare/cache_insert errors fail only their own
    // registration; the cache serves later (and earlier) models
    // untouched.
    #[test]
    fn injected_registration_faults_do_not_wedge_the_cache() {
        let plan = Arc::new(
            FaultPlan::new()
                .fail_nth(FaultPoint::Prepare, 1, FaultAction::Error)
                .fail_nth(FaultPoint::CacheInsert, 1, FaultAction::Error),
        );
        let cache = ModelCache::with_faults(Some(Arc::clone(&plan)));
        let graph = tiny_graph();
        let opts = Options::new(Target::DensePulpNn);
        cache.get_or_prepare("a", &graph, &opts).unwrap();
        // Occurrence 1 of prepare: injected error, nothing cached.
        let err = cache.get_or_prepare("b", &graph, &opts).unwrap_err();
        assert!(
            matches!(err, CacheError::Prepare(Error::Unsupported(_))),
            "{err:?}"
        );
        // Occurrence 1 of cache_insert (miss #2): prepared but the
        // insert fails — still nothing cached, still an error.
        let err = cache.get_or_prepare("b", &graph, &opts).unwrap_err();
        assert!(
            matches!(err, CacheError::Prepare(Error::Unsupported(_))),
            "{err:?}"
        );
        // Third try: both one-shot faults are spent; everything works.
        cache.get_or_prepare("b", &graph, &opts).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(plan.fired(), 2);
        // The injected prepare error counted as a failed prepare, not a
        // miss; the cache_insert error prepared successfully (a miss).
        assert_eq!(cache.stats().failed_prepares, 1);
        assert_eq!(cache.stats().misses, 3);
    }

    // Regression test: a *failed* preparation must not count as a cache
    // miss — `misses` only moves for lookups that paid a successful
    // prepare, failures land in `failed_prepares`.
    #[test]
    fn failed_prepares_are_counted_separately_from_misses() {
        let cache = ModelCache::new();
        let graph = tiny_graph();
        let mut bad = Options::new(Target::DensePulpNn);
        bad.l1_budget = 8; // no tile can fit: preparation fails
        cache.get_or_prepare("m", &graph, &bad).unwrap_err();
        cache.get_or_prepare("m", &graph, &bad).unwrap_err();
        assert_eq!(
            (
                cache.stats().hits,
                cache.stats().misses,
                cache.stats().failed_prepares
            ),
            (0, 0, 2),
            "failed prepares must not inflate the miss counter"
        );
        assert!(cache.is_empty(), "nothing was cached");
        // A successful registration afterwards: one miss, then a hit;
        // the failure counter stays put.
        let opts = Options::new(Target::DensePulpNn);
        cache.get_or_prepare("m", &graph, &opts).unwrap();
        cache.get_or_prepare("m", &graph, &opts).unwrap();
        assert_eq!(
            (
                cache.stats().hits,
                cache.stats().misses,
                cache.stats().failed_prepares
            ),
            (1, 1, 2)
        );
    }

    // A *panicking* preparation poisons the entries lock in the
    // registering thread; the next registration must recover and
    // proceed instead of cascading the panic — a poisoned lock
    // degrades the one request, not the cache.
    #[test]
    fn prepare_panic_poisons_nothing_durable() {
        let plan = Arc::new(FaultPlan::new().fail_nth(FaultPoint::Prepare, 0, FaultAction::Panic));
        let cache = ModelCache::with_faults(Some(plan));
        let graph = tiny_graph();
        let opts = Options::new(Target::DensePulpNn);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_prepare("doomed", &graph, &opts)
        }));
        assert!(unwound.is_err(), "the injected panic reaches the caller");
        // The cache recovered: the next registration prepares and hits.
        let a = cache.get_or_prepare("good", &graph, &opts).unwrap();
        let b = cache.get_or_prepare("good", &graph, &opts).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    // The budget evicts the least-recently-used unpinned entry; a hit
    // refreshes recency and redirects the eviction to the colder entry.
    #[test]
    fn budget_evicts_least_recently_used_first() {
        let opts = Options::new(Target::DensePulpNn);
        let (ga, gb, gc) = (seeded_graph(1), seeded_graph(2), seeded_graph(3));
        let bytes = artifact_bytes(&ga, &opts);
        // Room for two artifacts, never three.
        let cache = ModelCache::with_budget(bytes * 5 / 2);
        drop(cache.get_or_prepare("a", &ga, &opts).unwrap());
        drop(cache.get_or_prepare("b", &gb, &opts).unwrap());
        // Touch "a" so "b" becomes the LRU entry.
        drop(cache.get_or_prepare("a", &ga, &opts).unwrap());
        drop(cache.get_or_prepare("c", &gc, &opts).unwrap());
        let names: Vec<String> = cache.cached_keys().into_iter().map(|k| k.name).collect();
        assert_eq!(names, ["a", "c"], "the cold entry was evicted");
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.resident_bytes, 2 * bytes as u64);
        assert_eq!(stats.resident_high_water, 2 * bytes as u64);
        // Re-requesting "b" is a fresh miss that evicts today's LRU.
        drop(cache.get_or_prepare("b", &gb, &opts).unwrap());
        let names: Vec<String> = cache.cached_keys().into_iter().map(|k| k.name).collect();
        assert_eq!(names, ["c", "b"], "\"a\" was the LRU entry by then");
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(
            cache.stats().misses,
            4,
            "re-preparing an evicted model is a miss"
        );
    }

    // Entries with live outside holders are pinned: eviction skips them
    // even when they are the LRU, and fails with `OverBudget` once only
    // pinned entries remain.
    #[test]
    fn pinned_entries_are_never_evicted() {
        let opts = Options::new(Target::DensePulpNn);
        let (ga, gb, gc) = (seeded_graph(1), seeded_graph(2), seeded_graph(3));
        let bytes = artifact_bytes(&ga, &opts);
        let cache = ModelCache::with_budget(bytes * 5 / 2);
        let pinned = cache.get_or_prepare("a", &ga, &opts).unwrap(); // held
        drop(cache.get_or_prepare("b", &gb, &opts).unwrap());
        // "a" is the LRU but pinned: "b" is evicted instead.
        drop(cache.get_or_prepare("c", &gc, &opts).unwrap());
        let names: Vec<String> = cache.cached_keys().into_iter().map(|k| k.name).collect();
        assert_eq!(names, ["a", "c"]);
        // Pin "c" too: now nothing can be evicted and a fourth model is
        // refused, leaving the pinned entries untouched.
        let also_pinned = cache.get_or_prepare("c", &gc, &opts).unwrap();
        let err = cache
            .get_or_prepare("d", &seeded_graph(4), &opts)
            .unwrap_err();
        assert!(
            matches!(err, CacheError::OverBudget { required, budget }
                if required == bytes && budget == bytes * 5 / 2),
            "{err:?}"
        );
        let names: Vec<String> = cache.cached_keys().into_iter().map(|k| k.name).collect();
        assert_eq!(names, ["a", "c"], "pinned entries survived the refusal");
        // The held artifacts are still fully usable.
        drop(pinned);
        drop(also_pinned);
    }

    // A model alone bigger than the budget is refused outright with the
    // exact byte accounting, and nothing already cached is disturbed.
    #[test]
    fn over_budget_single_model_is_refused() {
        let opts = Options::new(Target::DensePulpNn);
        let graph = tiny_graph();
        let bytes = artifact_bytes(&graph, &opts);
        let cache = ModelCache::with_budget(bytes - 1);
        let err = cache.get_or_prepare("m", &graph, &opts).unwrap_err();
        assert!(
            matches!(err, CacheError::OverBudget { required, budget }
                if required == bytes && budget == bytes - 1),
            "{err:?}"
        );
        assert!(cache.is_empty());
        // The refusal still paid (and counted) the preparation.
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().resident_bytes, 0);
    }

    // The determinism contract behind the eviction policy: two caches
    // fed the identical lookup sequence agree on every eviction, every
    // counter and every surviving artifact's outputs, bit for bit.
    #[test]
    fn identical_sequences_evict_identically() {
        let opts = Options::new(Target::DensePulpNn);
        let run = |seq: &[usize]| {
            let graphs: Vec<Arc<Graph>> = (0..4).map(|i| seeded_graph(10 + i as u64)).collect();
            let bytes = artifact_bytes(&graphs[0], &opts);
            let cache = ModelCache::with_budget(bytes * 5 / 2);
            let mut outputs = Vec::new();
            let mut contents = Vec::new();
            for &m in seq {
                let name = format!("m{m}");
                let prepared = cache.get_or_prepare(&name, &graphs[m], &opts).unwrap();
                let input =
                    nm_core::Tensor::from_vec(&[16], XorShift::new(99).fill_weights(16, 60))
                        .unwrap();
                let run = prepared.run(&input).unwrap();
                outputs.push((run.output, run.matmul_compute_cycles));
                contents.push(
                    cache
                        .cached_keys()
                        .into_iter()
                        .map(|k| k.name)
                        .collect::<Vec<_>>(),
                );
            }
            (outputs, contents, cache.stats())
        };
        let seq = [0, 1, 2, 0, 3, 1, 2, 2, 0];
        let (out_a, contents_a, stats_a) = run(&seq);
        let (out_b, contents_b, stats_b) = run(&seq);
        assert_eq!(contents_a, contents_b, "eviction order is deterministic");
        assert_eq!(stats_a, stats_b, "counters are deterministic");
        assert!(stats_a.evictions > 0, "the sequence actually churned");
        assert_eq!(out_a, out_b, "outputs and cycle totals are bit-identical");
    }
}
