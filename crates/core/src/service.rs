//! [`OrderingService`]: the asynchronous front door of the ordering stack —
//! a bounded job queue, sharded warm engines, and a pattern-fingerprint
//! ordering cache.
//!
//! The paper treats RCM as a one-shot distributed kernel; the production
//! workload this repository grows toward is the opposite shape: millions of
//! users repeatedly re-ordering the *same* sparsity patterns with new
//! numerical values (every time-step of a transient solve, every load case
//! of the same mesh). Three observations drive the design:
//!
//! 1. **Identical patterns are the common case.** A pattern seen before
//!    needs no BFS at all — one O(nnz) hash plus an equality check returns
//!    the cached permutation bit for bit. That is the
//!    [`PatternCache`]: fingerprint ([`CscMatrix::pattern_fingerprint`]) →
//!    permutation + quality stats, LRU-bounded by total stored nonzeros,
//!    every hash hit confirmed by a full pattern comparison so a 64-bit
//!    collision can never return a wrong ordering.
//! 2. **Ordering capacity is a pool of warm engines.** Each of the `N`
//!    worker shards owns one long-lived [`OrderingEngine`] whose
//!    workspaces (and pool workers, for the pooled backend) persist across
//!    jobs — the PR-5 amortization, multiplied by shards.
//! 3. **Small jobs batch, large jobs parallelize.** The admission policy
//!    drains runs of below-cutover matrices from the queue head into one
//!    [`OrderingEngine::order_batch`] group (ordered whole, one per pool
//!    worker on a pooled shard), while large matrices take the
//!    level-parallel path individually — L-RCM's component-level job
//!    granularity applied at the service tier.
//!
//! ```text
//!          submit(OrderingRequest) ──► fingerprint ──► cache hit? ──► JobHandle
//!                │                         (O(nnz))        │ yes       complete
//!                │ miss                                    │           immediately
//!                ▼                                         │
//!        identical job in flight? ── yes: coalesce onto its result
//!                │ no                 (no queue, no shard, no BFS)
//!                ▼
//!        bounded job queue  ◄──────── back-pressure: submit blocks when full
//!           │         │
//!     admission policy: runs of small jobs group into order_batch
//!           │         │
//!        shard 0 … shard N-1          each shard = one warm OrderingEngine
//!           │         │
//!           ▼         ▼
//!       order / order_batch ──► insert into cache ──► complete JobHandle
//! ```
//!
//! Completion is observed through the returned [`JobHandle`]:
//! [`JobHandle::wait`] blocks, [`JobHandle::try_poll`] doesn't, and
//! [`JobHandle::latency`] reports the submit→completion time once done.
//! [`OrderingService::stats`] surfaces the cache and shard counters as a
//! [`ServiceStats`].
//!
//! # Worked example: one service, repeated patterns
//!
//! ```
//! use rcm_core::service::{OrderingRequest, OrderingService, ServiceConfig};
//! use rcm_core::{BackendKind, CacheOutcome, EngineConfig};
//! use rcm_sparse::CooBuilder;
//!
//! let path = |n: usize| {
//!     let mut b = CooBuilder::new(n, n);
//!     for v in 0..n as u32 - 1 {
//!         b.push_sym(v, v + 1);
//!     }
//!     b.build()
//! };
//!
//! let config = ServiceConfig::new(EngineConfig::builder().backend(BackendKind::Serial).build())
//!     .shards(2);
//! let service = OrderingService::start(config);
//!
//! // One user orders a 100-vertex pattern; once it completes, a second
//! // user submitting the same pattern is served from the cache, and a
//! // third user's new pattern goes to a shard as usual.
//! let a = service.submit(OrderingRequest::new(path(100)));
//! let ra = a.wait(); // ordered on a shard, inserted into the cache
//! let b = service.submit(OrderingRequest::new(path(100)));
//! let c = service.submit(OrderingRequest::new(path(40)));
//!
//! let (rb, rc) = (b.wait(), c.wait());
//! assert_eq!(ra.perm, rb.perm); // cached permutation is bit-identical
//! assert_eq!(rb.cache, Some(CacheOutcome::Hit));
//! assert_eq!(ra.bandwidth_after, 1); // RCM makes a path tridiagonal
//! assert_eq!(rc.perm.len(), 40);
//!
//! let stats = service.stats();
//! assert_eq!(stats.submitted, 3);
//! assert_eq!(stats.completed, 3);
//! assert_eq!(stats.cache_hits, 1); // the repeated pattern hit the cache
//! ```

use crate::driver::{DriverStats, StartNode};
use crate::engine::{CacheConfig, EngineConfig, OrderingEngine, OrderingReport};
use crate::pool::DEFAULT_SEQ_CUTOFF;
use rcm_sparse::{CscMatrix, Permutation};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Pattern-fingerprint ordering cache
// ---------------------------------------------------------------------------

/// One stored ordering: the full pattern (for collision-proof equality on a
/// hash hit) plus everything a report needs.
struct CacheEntry {
    pattern: CscMatrix,
    start_node: StartNode,
    perm: Permutation,
    bandwidth_before: usize,
    bandwidth_after: usize,
    stats: DriverStats,
    last_used: u64,
}

impl CacheEntry {
    /// Bound-accounting weight: stored nonzeros, floored at the permutation
    /// length + 1 so degenerate (empty) patterns still consume budget.
    fn weight(&self) -> usize {
        self.pattern.nnz().max(self.perm.len() + 1)
    }
}

/// A cached ordering returned by [`PatternCache::lookup`] — the data a hit
/// turns into an [`OrderingReport`] without re-running any BFS.
#[derive(Clone, Debug)]
pub struct CachedOrdering {
    /// The cached RCM permutation (bit-identical to a fresh ordering).
    pub perm: Permutation,
    /// Bandwidth of the input ordering, as computed at insertion.
    pub bandwidth_before: usize,
    /// Bandwidth under `perm`, as computed at insertion.
    pub bandwidth_after: usize,
    /// The execution record of the ordering that populated the entry.
    pub stats: DriverStats,
}

impl CachedOrdering {
    /// Materialize the hit as a report for matrix `a` (`wall_seconds` is
    /// the measured hash + lookup time — the O(nnz) fast path).
    pub(crate) fn into_report(self, a: &CscMatrix, wall_seconds: f64) -> OrderingReport {
        OrderingReport {
            n: a.n_rows(),
            nnz: a.nnz(),
            bandwidth_before: self.bandwidth_before,
            bandwidth_after: self.bandwidth_after,
            stats: self.stats,
            parallel_levels: 0,
            wall_seconds,
            sim: None,
            compress: None,
            cache: Some(CacheOutcome::Hit),
            perm: self.perm,
        }
    }
}

/// How the cache participated in producing one [`OrderingReport`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The permutation came straight from the pattern cache.
    Hit,
    /// The pattern was ordered and inserted into the cache.
    Miss,
}

/// Counter snapshot of a [`PatternCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a cached permutation.
    pub hits: usize,
    /// Lookups that found nothing (including hash collisions rejected by
    /// the full pattern comparison).
    pub misses: usize,
    /// Entries evicted to respect the nnz bound.
    pub evictions: usize,
    /// Orderings inserted.
    pub insertions: usize,
    /// Entries currently stored.
    pub entries: usize,
    /// Total weight (≈ nonzeros) currently stored.
    pub stored_nnz: usize,
    /// The configured weight bound.
    pub max_nnz: usize,
}

/// The pattern-fingerprint ordering cache: 64-bit fingerprint of the CSC
/// pattern → cached permutation + quality stats, least-recently-used
/// eviction bounded by total stored nonzeros.
///
/// A hash hit alone never returns an ordering — the stored pattern is
/// compared for full equality first, so two patterns colliding on the
/// 64-bit fingerprint coexist (the bucket holds both) and a lookup can
/// never hand back the wrong permutation. Single-threaded by design; the
/// [`OrderingService`] shares one instance across shards behind a mutex,
/// and a cache-configured [`OrderingEngine`] owns a private one.
pub struct PatternCache {
    buckets: HashMap<u64, Vec<CacheEntry>>,
    max_nnz: usize,
    stored: usize,
    clock: u64,
    hits: usize,
    misses: usize,
    evictions: usize,
    insertions: usize,
}

impl PatternCache {
    /// An empty cache bounded by `config.max_nnz` total stored nonzeros.
    pub fn new(config: CacheConfig) -> Self {
        PatternCache {
            buckets: HashMap::new(),
            max_nnz: config.max_nnz,
            stored: 0,
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            insertions: 0,
        }
    }

    /// Fold the start-node strategy into the bucket key: the same pattern
    /// ordered under different strategies yields different permutations, so
    /// the entries must never alias. George–Liu salts with 0, keeping
    /// default-strategy keys identical to the raw fingerprint.
    fn keyed(fingerprint: u64, start_node: StartNode) -> u64 {
        fingerprint ^ start_node.cache_salt()
    }

    /// Look up the ordering for pattern `a` under `fingerprint`, as ordered
    /// by `start_node`. On a hash hit the stored pattern is compared for
    /// full equality and the stored strategy for exact equality; only both
    /// matching counts as a hit (collisions are misses for `a` and leave
    /// the colliding entry untouched).
    pub fn lookup(
        &mut self,
        fingerprint: u64,
        a: &CscMatrix,
        start_node: StartNode,
    ) -> Option<CachedOrdering> {
        self.clock += 1;
        let clock = self.clock;
        if let Some(bucket) = self.buckets.get_mut(&Self::keyed(fingerprint, start_node)) {
            if let Some(entry) = bucket
                .iter_mut()
                .find(|e| e.start_node == start_node && e.pattern == *a)
            {
                entry.last_used = clock;
                self.hits += 1;
                return Some(CachedOrdering {
                    perm: entry.perm.clone(),
                    bandwidth_before: entry.bandwidth_before,
                    bandwidth_after: entry.bandwidth_after,
                    stats: entry.stats.clone(),
                });
            }
        }
        self.misses += 1;
        None
    }

    /// Insert the ordering `report` for pattern `a`, evicting
    /// least-recently-used entries until the nnz bound holds. A pattern
    /// heavier than the whole bound is not cached (it would evict
    /// everything and immediately overflow); re-inserting an already
    /// cached pattern refreshes its recency instead of duplicating it.
    pub fn insert(
        &mut self,
        fingerprint: u64,
        a: &CscMatrix,
        report: &OrderingReport,
        start_node: StartNode,
    ) {
        self.clock += 1;
        let entry = CacheEntry {
            pattern: a.clone(),
            start_node,
            perm: report.perm.clone(),
            bandwidth_before: report.bandwidth_before,
            bandwidth_after: report.bandwidth_after,
            stats: report.stats.clone(),
            last_used: self.clock,
        };
        let weight = entry.weight();
        if weight > self.max_nnz {
            return;
        }
        let bucket = self
            .buckets
            .entry(Self::keyed(fingerprint, start_node))
            .or_default();
        if let Some(existing) = bucket
            .iter_mut()
            .find(|e| e.start_node == start_node && e.pattern == entry.pattern)
        {
            existing.last_used = self.clock;
            return;
        }
        bucket.push(entry);
        self.stored += weight;
        self.insertions += 1;
        while self.stored > self.max_nnz {
            self.evict_lru();
        }
    }

    /// Remove the least-recently-used entry (caller guarantees non-empty).
    fn evict_lru(&mut self) {
        let (&fp, _) = self
            .buckets
            .iter()
            .filter(|(_, b)| !b.is_empty())
            .min_by_key(|(_, b)| b.iter().map(|e| e.last_used).min().unwrap_or(u64::MAX))
            .expect("evict_lru on a non-empty cache");
        let bucket = self.buckets.get_mut(&fp).expect("bucket exists");
        let idx = bucket
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(i, _)| i)
            .expect("non-empty bucket");
        let evicted = bucket.swap_remove(idx);
        self.stored -= evicted.weight();
        self.evictions += 1;
        if bucket.is_empty() {
            self.buckets.remove(&fp);
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            insertions: self.insertions,
            entries: self.buckets.values().map(Vec::len).sum(),
            stored_nnz: self.stored,
            max_nnz: self.max_nnz,
        }
    }
}

// ---------------------------------------------------------------------------
// Requests, handles, configuration
// ---------------------------------------------------------------------------

/// One ordering job for [`OrderingService::submit`]: the matrix (owned —
/// the service outlives the submitting scope) plus per-request policy.
#[derive(Clone, Debug)]
pub struct OrderingRequest {
    matrix: CscMatrix,
    use_cache: bool,
}

impl OrderingRequest {
    /// An ordering request with the default policy (cache participation
    /// on). The matrix is consumed; symmetrize unsymmetric patterns at
    /// intake (`A + Aᵀ`, as the `rcm-order` CLI does) — the fingerprint
    /// keys on the stored pattern.
    pub fn new(matrix: CscMatrix) -> Self {
        OrderingRequest {
            matrix,
            use_cache: true,
        }
    }

    /// Skip the pattern cache for this request: no lookup, no insertion —
    /// the job always runs on a shard engine (its report carries
    /// `cache: None`).
    pub fn bypass_cache(mut self) -> Self {
        self.use_cache = false;
        self
    }

    /// The matrix to be ordered.
    pub fn matrix(&self) -> &CscMatrix {
        &self.matrix
    }
}

/// Completion slot shared between a [`JobHandle`] and the worker that
/// fulfills it.
struct JobSlot {
    state: Mutex<Option<(OrderingReport, Duration)>>,
    done: Condvar,
    submitted_at: Instant,
}

impl JobSlot {
    fn new() -> Self {
        JobSlot {
            state: Mutex::new(None),
            done: Condvar::new(),
            submitted_at: Instant::now(),
        }
    }

    fn complete(&self, report: OrderingReport) {
        let latency = self.submitted_at.elapsed();
        let mut state = self.state.lock().expect("job slot poisoned");
        *state = Some((report, latency));
        self.done.notify_all();
    }
}

/// A submitted job's future result. Cloneable; every clone observes the
/// same completion.
#[derive(Clone)]
pub struct JobHandle {
    slot: Arc<JobSlot>,
    id: u64,
}

impl JobHandle {
    /// Monotone job id, in submission order.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Block until the job completes and return its report.
    pub fn wait(&self) -> OrderingReport {
        let mut state = self.slot.state.lock().expect("job slot poisoned");
        while state.is_none() {
            state = self.slot.done.wait(state).expect("job slot poisoned");
        }
        state
            .as_ref()
            .map(|(r, _)| r.clone())
            .expect("just checked")
    }

    /// Return the report if the job already completed, without blocking.
    pub fn try_poll(&self) -> Option<OrderingReport> {
        let state = self.slot.state.lock().expect("job slot poisoned");
        state.as_ref().map(|(r, _)| r.clone())
    }

    /// Submit→completion latency (queue wait + service time; the hash time
    /// alone for a cache hit completed at submit). `None` until done.
    pub fn latency(&self) -> Option<Duration> {
        let state = self.slot.state.lock().expect("job slot poisoned");
        state.as_ref().map(|(_, d)| *d)
    }
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .field("done", &self.try_poll().is_some())
            .finish()
    }
}

/// Configuration of an [`OrderingService`], built fluently:
///
/// ```
/// use rcm_core::service::ServiceConfig;
/// use rcm_core::{BackendKind, CacheConfig, EngineConfig};
///
/// let config = ServiceConfig::new(
///     EngineConfig::builder().backend(BackendKind::Pooled { threads: 2 }).build(),
/// )
/// .shards(3)
/// .queue_capacity(128)
/// .cache(CacheConfig::new(1 << 20));
/// assert_eq!(config.shards, 3);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// The per-shard engine configuration. Its `cache` field is ignored:
    /// the service owns **one** shared [`PatternCache`] at the front door
    /// (per-shard private caches would fragment hits across shards).
    pub engine: EngineConfig,
    /// Worker shards, each owning one warm engine (≥ 1).
    pub shards: usize,
    /// Bounded queue depth; `submit` blocks when the queue is full
    /// (back-pressure instead of unbounded memory growth).
    pub queue_capacity: usize,
    /// The shared pattern cache; `None` disables caching entirely.
    pub cache: Option<CacheConfig>,
    /// Matrices with fewer rows than this are batch-groupable: a run of
    /// them at the queue head is drained into one
    /// [`OrderingEngine::order_batch`] call.
    pub batch_cutover: usize,
    /// Most jobs one batch group may absorb.
    pub batch_max: usize,
}

impl ServiceConfig {
    /// Defaults: 2 shards, queue depth 64, the default cache, batch
    /// cutover at the pool's sequential cutoff, groups of at most 16.
    pub fn new(engine: EngineConfig) -> Self {
        ServiceConfig {
            engine,
            shards: 2,
            queue_capacity: 64,
            cache: Some(CacheConfig::default()),
            batch_cutover: DEFAULT_SEQ_CUTOFF,
            batch_max: 16,
        }
    }

    /// Set the worker shard count (clamped to ≥ 1).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Set the bounded queue depth (clamped to ≥ 1).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Configure the shared pattern cache.
    pub fn cache(mut self, cache: CacheConfig) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Disable the pattern cache (every job runs on a shard engine).
    pub fn no_cache(mut self) -> Self {
        self.cache = None;
        self
    }

    /// Set the batch-group admission cutover (rows).
    pub fn batch_cutover(mut self, rows: usize) -> Self {
        self.batch_cutover = rows;
        self
    }

    /// Set the most jobs one batch group may absorb (clamped to ≥ 1).
    pub fn batch_max(mut self, jobs: usize) -> Self {
        self.batch_max = jobs.max(1);
        self
    }
}

/// Counter snapshot of a running [`OrderingService`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Worker shards.
    pub shards: usize,
    /// Jobs accepted by `submit` (including cache hits completed inline).
    pub submitted: usize,
    /// Jobs completed (their `JobHandle` is resolvable).
    pub completed: usize,
    /// Jobs that ran inside a batch group of ≥ 2.
    pub batched: usize,
    /// Submits coalesced onto an identical in-flight computation: the
    /// pattern had already missed the cache for an earlier, still-running
    /// job, so the later handle waits for that job's result instead of
    /// enqueueing a redundant BFS.
    pub coalesced: usize,
    /// Pattern-cache hits (lookups returning a cached permutation).
    pub cache_hits: usize,
    /// Pattern-cache misses.
    pub cache_misses: usize,
    /// Pattern-cache evictions under the nnz bound.
    pub cache_evictions: usize,
    /// Entries resident in the cache.
    pub cache_entries: usize,
    /// Total nonzeros resident in the cache.
    pub cache_nnz: usize,
    /// Jobs completed per shard (index = shard id); cache hits complete at
    /// the front door and appear in no shard's count.
    pub per_shard: Vec<usize>,
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// One queued ordering job.
struct Job {
    matrix: CscMatrix,
    fingerprint: Option<u64>,
    slot: Arc<JobSlot>,
}

/// Queue state behind the mutex: pending jobs + the open/shutdown flag.
struct QueueState {
    jobs: VecDeque<Job>,
    open: bool,
}

/// One in-flight cache-participating computation: the pattern (kept for
/// collision-proof equality, exactly like the cache itself) plus the
/// handles of later identical submits coalesced onto it.
struct InFlight {
    pattern: CscMatrix,
    waiters: Vec<Arc<JobSlot>>,
}

struct ServiceInner {
    queue: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    config: ServiceConfig,
    cache: Option<Mutex<PatternCache>>,
    /// Cache-participating jobs submitted but not yet completed, keyed by
    /// fingerprint — the coalescing point for concurrent identical submits.
    in_flight: Mutex<HashMap<u64, Vec<InFlight>>>,
    next_id: AtomicU64,
    submitted: AtomicUsize,
    completed: AtomicUsize,
    batched: AtomicUsize,
    coalesced: AtomicUsize,
    per_shard: Vec<AtomicUsize>,
}

impl ServiceInner {
    /// Lock the queue, riding through poisoning (a worker panic must not
    /// wedge shutdown).
    fn lock_queue(&self) -> MutexGuard<'_, QueueState> {
        match self.queue.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Record one finished job and resolve its handle. Counters first:
    /// a waiter that wakes on the handle must already see this completion
    /// in [`OrderingService::stats`].
    fn finish(&self, shard: usize, job: &Job, report: OrderingReport) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.per_shard[shard].fetch_add(1, Ordering::Relaxed);
        job.slot.complete(report);
    }
}

/// The thread-safe ordering front door. See the [module docs](self) for
/// the architecture and a worked example.
///
/// Dropping the service closes the queue, drains every pending job (their
/// handles still resolve), and joins the shard threads.
pub struct OrderingService {
    inner: Arc<ServiceInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl OrderingService {
    /// Start the service: spawn `config.shards` worker threads, each
    /// constructing its warm [`OrderingEngine`] in-thread.
    pub fn start(config: ServiceConfig) -> Self {
        let cache = config.cache.map(|c| Mutex::new(PatternCache::new(c)));
        let inner = Arc::new(ServiceInner {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                open: true,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            config,
            cache,
            in_flight: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            submitted: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            batched: AtomicUsize::new(0),
            coalesced: AtomicUsize::new(0),
            per_shard: (0..config.shards).map(|_| AtomicUsize::new(0)).collect(),
        });
        // Shard engines never cache privately: the shared front-door cache
        // is the single source of cached orderings.
        let mut shard_engine = config.engine;
        shard_engine.cache = None;
        let workers = (0..config.shards)
            .map(|shard| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("rcm-service-{shard}"))
                    .spawn(move || worker_loop(inner, shard_engine, shard))
                    .expect("spawn service shard")
            })
            .collect();
        OrderingService { inner, workers }
    }

    /// Convenience constructor with the default service configuration.
    pub fn with_engine(engine: EngineConfig) -> Self {
        OrderingService::start(ServiceConfig::new(engine))
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.config
    }

    /// Submit one ordering job.
    ///
    /// The calling thread pays the O(nnz) fingerprint hash; a cache hit
    /// completes the returned handle *before* `submit` returns — no queue,
    /// no shard, no BFS. A miss enqueues the job, blocking while the
    /// bounded queue is full (back-pressure).
    pub fn submit(&self, request: OrderingRequest) -> JobHandle {
        let inner = &*self.inner;
        inner.submitted.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(JobSlot::new());
        let handle = JobHandle {
            slot: Arc::clone(&slot),
            id: inner.next_id.fetch_add(1, Ordering::Relaxed),
        };
        let OrderingRequest { matrix, use_cache } = request;
        let fingerprint = match (&inner.cache, use_cache) {
            (Some(cache), true) => {
                let t0 = Instant::now();
                let fp = matrix.pattern_fingerprint();
                let hit = cache.lock().expect("pattern cache poisoned").lookup(
                    fp,
                    &matrix,
                    inner.config.engine.start_node,
                );
                if let Some(cached) = hit {
                    inner.completed.fetch_add(1, Ordering::Relaxed);
                    slot.complete(cached.into_report(&matrix, t0.elapsed().as_secs_f64()));
                    return handle;
                }
                // The pattern missed, but an identical job may already be
                // queued or running: coalesce onto it instead of computing
                // the same ordering twice. Equality on the stored pattern
                // keeps this collision-proof, exactly like the cache.
                let mut in_flight = inner.in_flight.lock().expect("in-flight map poisoned");
                if let Some(entry) = in_flight
                    .get_mut(&fp)
                    .and_then(|bucket| bucket.iter_mut().find(|e| e.pattern == matrix))
                {
                    entry.waiters.push(Arc::clone(&slot));
                    inner.coalesced.fetch_add(1, Ordering::Relaxed);
                    return handle;
                }
                in_flight.entry(fp).or_default().push(InFlight {
                    pattern: matrix.clone(),
                    waiters: Vec::new(),
                });
                Some(fp)
            }
            _ => None,
        };
        let mut queue = inner.lock_queue();
        while queue.open && queue.jobs.len() >= inner.config.queue_capacity {
            queue = inner
                .not_full
                .wait(queue)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        assert!(queue.open, "submit on a shut-down OrderingService");
        queue.jobs.push_back(Job {
            matrix,
            fingerprint,
            slot,
        });
        drop(queue);
        inner.not_empty.notify_one();
        handle
    }

    /// Block until `handle`'s job completes and return its report
    /// (equivalent to [`JobHandle::wait`]).
    pub fn wait(&self, handle: &JobHandle) -> OrderingReport {
        handle.wait()
    }

    /// Non-blocking completion check (equivalent to [`JobHandle::try_poll`]).
    pub fn try_poll(&self, handle: &JobHandle) -> Option<OrderingReport> {
        handle.try_poll()
    }

    /// Counter snapshot: queue/shard progress plus the cache counters.
    pub fn stats(&self) -> ServiceStats {
        let inner = &*self.inner;
        let cache = inner
            .cache
            .as_ref()
            .map(|c| c.lock().expect("pattern cache poisoned").stats())
            .unwrap_or_default();
        ServiceStats {
            shards: inner.config.shards,
            submitted: inner.submitted.load(Ordering::Relaxed),
            completed: inner.completed.load(Ordering::Relaxed),
            batched: inner.batched.load(Ordering::Relaxed),
            coalesced: inner.coalesced.load(Ordering::Relaxed),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_entries: cache.entries,
            cache_nnz: cache.stored_nnz,
            per_shard: inner
                .per_shard
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl Drop for OrderingService {
    fn drop(&mut self) {
        {
            let mut queue = self.inner.lock_queue();
            queue.open = false;
        }
        self.inner.not_empty.notify_all();
        self.inner.not_full.notify_all();
        for worker in self.workers.drain(..) {
            // A shard that panicked already resolved nothing; propagating
            // here would abort the caller's unwind — just drop the error.
            let _ = worker.join();
        }
    }
}

/// One shard: construct the warm engine in-thread, then serve jobs until
/// the queue is closed *and* drained.
fn worker_loop(inner: Arc<ServiceInner>, engine_config: EngineConfig, shard: usize) {
    let mut engine = OrderingEngine::new(engine_config);
    loop {
        let batch = {
            let mut queue = inner.lock_queue();
            let first = loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if !queue.open {
                    return;
                }
                queue = inner
                    .not_empty
                    .wait(queue)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            };
            // Admission policy: a run of small jobs at the queue head
            // becomes one order_batch group on this shard.
            let mut batch = vec![first];
            if batch[0].matrix.n_rows() < inner.config.batch_cutover {
                while batch.len() < inner.config.batch_max
                    && queue
                        .jobs
                        .front()
                        .is_some_and(|j| j.matrix.n_rows() < inner.config.batch_cutover)
                {
                    batch.push(queue.jobs.pop_front().expect("front checked"));
                }
            }
            batch
        };
        inner.not_full.notify_all();
        if batch.len() > 1 {
            inner.batched.fetch_add(batch.len(), Ordering::Relaxed);
            let mats: Vec<CscMatrix> = batch.iter().map(|j| j.matrix.clone()).collect();
            let reports = engine.order_batch(&mats);
            for (job, mut report) in batch.into_iter().zip(reports) {
                store_and_finish(&inner, shard, &job, &mut report);
            }
        } else {
            let job = batch.into_iter().next().expect("batch of one");
            let mut report = engine.order(&job.matrix);
            store_and_finish(&inner, shard, &job, &mut report);
        }
    }
}

/// Stamp the cache outcome, publish the ordering to the shared cache,
/// resolve the job's handle, and complete every submit that coalesced onto
/// this computation while it was in flight.
fn store_and_finish(inner: &ServiceInner, shard: usize, job: &Job, report: &mut OrderingReport) {
    if let (Some(cache), Some(fp)) = (&inner.cache, job.fingerprint) {
        report.cache = Some(CacheOutcome::Miss);
        // Insert before retiring the in-flight entry: a concurrent submit
        // always sees either the cache entry or the in-flight entry.
        cache.lock().expect("pattern cache poisoned").insert(
            fp,
            &job.matrix,
            report,
            inner.config.engine.start_node,
        );
    }
    inner.finish(shard, job, report.clone());
    let Some(fp) = job.fingerprint else { return };
    let waiters = {
        let mut in_flight = inner.in_flight.lock().expect("in-flight map poisoned");
        let Some(bucket) = in_flight.get_mut(&fp) else {
            return;
        };
        let Some(idx) = bucket.iter().position(|e| e.pattern == job.matrix) else {
            return;
        };
        let entry = bucket.swap_remove(idx);
        if bucket.is_empty() {
            in_flight.remove(&fp);
        }
        entry.waiters
    };
    if waiters.is_empty() {
        return;
    }
    // Waiters never touched the queue or a shard: they complete here as
    // cache hits served by the job that did the work.
    let mut hit = report.clone();
    hit.cache = Some(CacheOutcome::Hit);
    for waiter in waiters {
        inner.completed.fetch_add(1, Ordering::Relaxed);
        waiter.complete(hit.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::BackendKind;
    use crate::testutil::scrambled_grid;
    use rcm_sparse::CooBuilder;

    /// `a`'s permutation from a fresh single-use engine on `kind`.
    fn single_shot(a: &CscMatrix, kind: BackendKind) -> Permutation {
        OrderingEngine::with_backend(kind).order(a).perm
    }

    fn path(n: usize) -> CscMatrix {
        let mut b = CooBuilder::new(n, n);
        for v in 0..(n - 1) as u32 {
            b.push_sym(v, v + 1);
        }
        b.build()
    }

    fn serial_service(cache: Option<CacheConfig>) -> OrderingService {
        let mut config =
            ServiceConfig::new(EngineConfig::builder().backend(BackendKind::Serial).build())
                .shards(2);
        config.cache = cache;
        OrderingService::start(config)
    }

    #[test]
    fn submit_wait_try_poll_roundtrip() {
        let service = serial_service(Some(CacheConfig::default()));
        let a = scrambled_grid(10, 7);
        let handle = service.submit(OrderingRequest::new(a.clone()));
        let report = handle.wait();
        assert_eq!(report.perm, single_shot(&a, BackendKind::Serial));
        assert_eq!(report.cache, Some(CacheOutcome::Miss));
        // After wait, try_poll and latency must agree it's done.
        assert_eq!(handle.try_poll().expect("done").perm, report.perm);
        assert!(handle.latency().expect("done") > Duration::ZERO);
        assert_eq!(service.try_poll(&handle).expect("done").perm, report.perm);
    }

    #[test]
    fn repeated_pattern_hits_the_cache_with_identical_perm() {
        let service = serial_service(Some(CacheConfig::default()));
        let a = scrambled_grid(12, 5);
        let first = service.submit(OrderingRequest::new(a.clone())).wait();
        assert_eq!(first.cache, Some(CacheOutcome::Miss));
        let second = service.submit(OrderingRequest::new(a.clone())).wait();
        assert_eq!(second.cache, Some(CacheOutcome::Hit));
        assert_eq!(first.perm, second.perm);
        assert_eq!(first.bandwidth_after, second.bandwidth_after);
        let stats = service.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn bypass_cache_never_touches_the_cache() {
        let service = serial_service(Some(CacheConfig::default()));
        let a = scrambled_grid(9, 4);
        let first = service
            .submit(OrderingRequest::new(a.clone()).bypass_cache())
            .wait();
        assert_eq!(first.cache, None);
        let second = service
            .submit(OrderingRequest::new(a.clone()).bypass_cache())
            .wait();
        assert_eq!(second.cache, None);
        assert_eq!(first.perm, second.perm);
        let stats = service.stats();
        assert_eq!(stats.cache_hits + stats.cache_misses, 0);
        assert_eq!(stats.cache_entries, 0);
    }

    #[test]
    fn uncached_service_still_orders_correctly() {
        let service = serial_service(None);
        let a = scrambled_grid(8, 3);
        let report = service.submit(OrderingRequest::new(a.clone())).wait();
        assert_eq!(report.cache, None);
        assert_eq!(report.perm, single_shot(&a, BackendKind::Serial));
        assert_eq!(service.stats().cache_entries, 0);
    }

    #[test]
    fn small_jobs_form_batch_groups() {
        // One shard so every small job funnels through the same worker;
        // submit a burst before the worker can drain it.
        let config =
            ServiceConfig::new(EngineConfig::builder().backend(BackendKind::Serial).build())
                .shards(1)
                .no_cache();
        let service = OrderingService::start(config);
        let mats: Vec<CscMatrix> = (0..24).map(|i| path(10 + (i % 5))).collect();
        let handles: Vec<JobHandle> = mats
            .iter()
            .map(|a| service.submit(OrderingRequest::new(a.clone())))
            .collect();
        for (a, h) in mats.iter().zip(&handles) {
            assert_eq!(h.wait().perm, single_shot(a, BackendKind::Serial));
        }
        // Scheduling-dependent, but with 24 queued small jobs and one
        // shard at least one group of ≥ 2 must have formed.
        assert!(
            service.stats().batched >= 2,
            "no batch group formed: {:?}",
            service.stats()
        );
    }

    #[test]
    fn drop_drains_pending_jobs() {
        let service = serial_service(None);
        let mats: Vec<CscMatrix> = (0..8).map(|i| scrambled_grid(6 + i % 3, 5)).collect();
        let handles: Vec<JobHandle> = mats
            .iter()
            .map(|a| service.submit(OrderingRequest::new(a.clone())))
            .collect();
        drop(service);
        for (a, h) in mats.iter().zip(&handles) {
            let report = h.try_poll().expect("drop must drain pending jobs");
            assert_eq!(report.perm, single_shot(a, BackendKind::Serial));
        }
    }

    #[test]
    fn collision_on_the_fingerprint_is_rejected_by_pattern_equality() {
        // Force two different patterns through the same fingerprint slot:
        // full equality on the stored pattern must turn the bogus hash hit
        // into a miss and keep both entries servable.
        let a = path(20);
        let b = scrambled_grid(5, 3);
        let mut cache = PatternCache::new(CacheConfig::new(1 << 20));
        let report_a = OrderingEngine::new(EngineConfig::builder().build()).order(&a);
        let report_b = OrderingEngine::new(EngineConfig::builder().build()).order(&b);
        let fp = 0xDEAD_BEEF; // deliberately shared, unlike the real hashes
        cache.insert(fp, &a, &report_a, StartNode::GeorgeLiu);
        assert!(
            cache.lookup(fp, &b, StartNode::GeorgeLiu).is_none(),
            "a colliding pattern must not return the wrong permutation"
        );
        assert_eq!(cache.stats().misses, 1);
        cache.insert(fp, &b, &report_b, StartNode::GeorgeLiu);
        // Both patterns now coexist under one fingerprint.
        assert_eq!(
            cache
                .lookup(fp, &a, StartNode::GeorgeLiu)
                .expect("entry a")
                .perm,
            report_a.perm
        );
        assert_eq!(
            cache
                .lookup(fp, &b, StartNode::GeorgeLiu)
                .expect("entry b")
                .perm,
            report_b.perm
        );
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn lru_eviction_respects_the_nnz_bound() {
        let mats: Vec<CscMatrix> = (0..6).map(|i| path(30 + i)).collect();
        let mut engine = OrderingEngine::new(EngineConfig::builder().build());
        let reports: Vec<OrderingReport> = mats.iter().map(|a| engine.order(a)).collect();
        // Room for roughly two path patterns (~62 nnz, weight ≥ n+1 each).
        let mut cache = PatternCache::new(CacheConfig::new(160));
        for (a, r) in mats.iter().zip(&reports) {
            cache.insert(a.pattern_fingerprint(), a, r, StartNode::GeorgeLiu);
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "bound must force evictions: {stats:?}");
        assert!(stats.stored_nnz <= 160, "{stats:?}");
        // The most recently inserted pattern survived; the first is gone.
        let last = mats.last().expect("non-empty");
        assert!(cache
            .lookup(last.pattern_fingerprint(), last, StartNode::GeorgeLiu)
            .is_some());
        assert!(cache
            .lookup(
                mats[0].pattern_fingerprint(),
                &mats[0],
                StartNode::GeorgeLiu
            )
            .is_none());
    }

    #[test]
    fn oversized_pattern_is_not_cached() {
        let a = path(100); // weight ≥ 101 > bound
        let mut engine = OrderingEngine::new(EngineConfig::builder().build());
        let report = engine.order(&a);
        let mut cache = PatternCache::new(CacheConfig::new(50));
        cache.insert(a.pattern_fingerprint(), &a, &report, StartNode::GeorgeLiu);
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().insertions, 0);
    }

    #[test]
    fn reinserting_a_cached_pattern_does_not_duplicate_it() {
        let a = path(25);
        let mut engine = OrderingEngine::new(EngineConfig::builder().build());
        let report = engine.order(&a);
        let mut cache = PatternCache::new(CacheConfig::new(1 << 20));
        let fp = a.pattern_fingerprint();
        cache.insert(fp, &a, &report, StartNode::GeorgeLiu);
        cache.insert(fp, &a, &report, StartNode::GeorgeLiu);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.insertions, 1);
    }

    #[test]
    fn cache_misses_across_start_node_strategies() {
        // One pattern, four strategies: an entry stored under one strategy
        // must never satisfy a lookup under another — the permutations
        // differ. Same strategy still hits.
        let a = scrambled_grid(7, 5);
        let fp = a.pattern_fingerprint();
        let mut cache = PatternCache::new(CacheConfig::new(1 << 20));
        let report = OrderingEngine::new(
            EngineConfig::builder()
                .start_node(StartNode::GeorgeLiu)
                .build(),
        )
        .order(&a);
        cache.insert(fp, &a, &report, StartNode::GeorgeLiu);
        for other in [
            StartNode::BiCriteria,
            StartNode::MinDegree,
            StartNode::Fixed(3),
        ] {
            assert!(
                cache.lookup(fp, &a, other).is_none(),
                "a {} lookup must miss an entry cached under george-liu",
                other.name()
            );
        }
        assert!(cache.lookup(fp, &a, StartNode::GeorgeLiu).is_some());
        // Each strategy caches independently; all four coexist.
        for strategy in [
            StartNode::BiCriteria,
            StartNode::MinDegree,
            StartNode::Fixed(3),
        ] {
            let r =
                OrderingEngine::new(EngineConfig::builder().start_node(strategy).build()).order(&a);
            cache.insert(fp, &a, &r, strategy);
            assert_eq!(
                cache.lookup(fp, &a, strategy).expect("own entry").perm,
                r.perm
            );
        }
        assert_eq!(cache.stats().entries, 4);
    }

    #[test]
    fn concurrent_identical_submits_coalesce_onto_one_computation() {
        // One shard kept busy by a few large distinct jobs, so the repeated
        // pattern is still in flight when its duplicates arrive.
        let config =
            ServiceConfig::new(EngineConfig::builder().backend(BackendKind::Serial).build())
                .shards(1);
        let service = OrderingService::start(config);
        let busywork: Vec<JobHandle> = [13, 17, 19, 21]
            .iter()
            .map(|&stride| service.submit(OrderingRequest::new(scrambled_grid(40, stride))))
            .collect();
        let a = scrambled_grid(9, 7);
        let primary = service.submit(OrderingRequest::new(a.clone()));
        let dups: Vec<JobHandle> = (0..5)
            .map(|_| service.submit(OrderingRequest::new(a.clone())))
            .collect();
        let expected = primary.wait();
        assert_eq!(expected.cache, Some(CacheOutcome::Miss));
        for d in &dups {
            let report = d.wait();
            assert_eq!(report.perm, expected.perm);
            assert_eq!(report.cache, Some(CacheOutcome::Hit));
        }
        for h in &busywork {
            h.wait();
        }
        let stats = service.stats();
        assert_eq!(stats.coalesced, 5, "{stats:?}");
        assert_eq!(stats.submitted, 10);
        assert_eq!(stats.completed, 10);
        // The duplicates never reached a shard: 4 busywork + 1 primary.
        assert_eq!(stats.per_shard.iter().sum::<usize>(), 5);
        // They found the computation in flight, not in the cache.
        assert_eq!(stats.cache_hits, 0, "{stats:?}");
        // A post-completion submit is an ordinary cache hit, not coalesced.
        let late = service.submit(OrderingRequest::new(a.clone())).wait();
        assert_eq!(late.cache, Some(CacheOutcome::Hit));
        let stats = service.stats();
        assert_eq!(stats.coalesced, 5);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn bypassing_submits_do_not_coalesce() {
        let service = serial_service(Some(CacheConfig::default()));
        let a = scrambled_grid(8, 5);
        let handles: Vec<JobHandle> = (0..3)
            .map(|_| service.submit(OrderingRequest::new(a.clone()).bypass_cache()))
            .collect();
        let first = handles[0].wait();
        for h in &handles {
            let report = h.wait();
            assert_eq!(report.cache, None);
            assert_eq!(report.perm, first.perm);
        }
        let stats = service.stats();
        assert_eq!(stats.coalesced, 0);
        assert_eq!(stats.per_shard.iter().sum::<usize>(), 3);
    }

    #[test]
    fn split_component_shards_match_the_sequential_driver() {
        // Two disjoint scrambled paths interleaved over odd/even ids.
        let n = 60;
        let mut b = CooBuilder::new(n, n);
        for v in (0..n as u32 - 2).step_by(2) {
            b.push_sym(v, v + 2); // even path
        }
        for v in (1..n as u32 - 2).step_by(2) {
            b.push_sym(v, v + 2); // odd path
        }
        let a = b.build();
        let config = ServiceConfig::new(
            EngineConfig::builder()
                .backend(BackendKind::Pooled { threads: 2 })
                .split_components(true)
                .build(),
        )
        .shards(2);
        let service = OrderingService::start(config);
        let report = service
            .submit(OrderingRequest::new(a.clone()).bypass_cache())
            .wait();
        assert_eq!(
            report.perm,
            single_shot(&a, BackendKind::Pooled { threads: 2 })
        );
        assert_eq!(report.stats.components, 2);
        // Cached resubmission of a split-ordered pattern stays identical.
        let first = service.submit(OrderingRequest::new(a.clone())).wait();
        let second = service.submit(OrderingRequest::new(a.clone())).wait();
        assert_eq!(first.perm, report.perm);
        assert_eq!(second.perm, report.perm);
        assert_eq!(second.cache, Some(CacheOutcome::Hit));
    }

    #[test]
    fn per_shard_counters_sum_to_engine_completions() {
        let service = serial_service(Some(CacheConfig::default()));
        let mats: Vec<CscMatrix> = (0..6).map(|i| scrambled_grid(7 + i, 13)).collect();
        let handles: Vec<JobHandle> = mats
            .iter()
            .map(|a| service.submit(OrderingRequest::new(a.clone())))
            .collect();
        for h in &handles {
            h.wait();
        }
        let stats = service.stats();
        assert_eq!(stats.completed, mats.len());
        // Every job missed (all patterns distinct), so every completion
        // ran on a shard.
        assert_eq!(stats.per_shard.iter().sum::<usize>(), mats.len());
    }
}
