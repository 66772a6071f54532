//! Service-tier equivalence: the `OrderingService` front door (queue,
//! shards, pattern cache) must never change *what* is computed — every
//! report's permutation is bit-identical to a fresh single-use engine's,
//! whether it came from a shard engine, a batch group, or the pattern
//! cache, on all four backends, at every `RCM_THREADS` count (CI sweeps
//! 1/2/8; configs start from `EngineConfig::from_env`), and under
//! concurrent submission from many threads.

use distributed_rcm::core::{thread_counts_from_env, PatternCache};
use distributed_rcm::prelude::*;
use distributed_rcm::sparse::Vidx;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `a`'s permutation from a fresh single-use engine on `kind`, under the
/// environment's direction policy and start node.
fn fresh_perm(a: &CscMatrix, kind: BackendKind) -> Permutation {
    OrderingEngine::new(EngineConfig::from_env().backend(kind).build())
        .order(a)
        .perm
}

/// Random symmetric graph from a seed: n vertices, ~avg_deg·n/2 edges.
fn random_graph(n: usize, avg_deg: usize, seed: u64) -> CscMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = CooBuilder::new(n, n);
    for _ in 0..(n * avg_deg / 2) {
        let u = rng.gen_range(0..n) as Vidx;
        let v = rng.gen_range(0..n) as Vidx;
        if u != v {
            b.push_sym(u, v);
        }
    }
    b.build()
}

/// The same random graph built through a different construction route:
/// edges pushed in reverse with endpoints swapped, plus a duplicated
/// prefix. The canonical CSC pattern — and therefore the fingerprint — is
/// identical; only the build history differs.
fn random_graph_scrambled_build(n: usize, avg_deg: usize, seed: u64) -> CscMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(Vidx, Vidx)> = Vec::new();
    for _ in 0..(n * avg_deg / 2) {
        let u = rng.gen_range(0..n) as Vidx;
        let v = rng.gen_range(0..n) as Vidx;
        if u != v {
            edges.push((u, v));
        }
    }
    let mut b = CooBuilder::new(n, n);
    for &(u, v) in edges.iter().rev() {
        b.push_sym(v, u);
    }
    for &(u, v) in edges.iter().take(edges.len() / 2) {
        b.push_sym(u, v);
    }
    b.build()
}

/// Backends to sweep: serial, pooled at every `RCM_THREADS` count, dist,
/// hybrid.
fn backend_kinds() -> Vec<BackendKind> {
    let mut kinds = vec![BackendKind::Serial];
    kinds.extend(
        thread_counts_from_env(&[1, 3])
            .into_iter()
            .map(|threads| BackendKind::Pooled { threads }),
    );
    kinds.push(BackendKind::Dist { cores: 4 });
    kinds.push(BackendKind::Hybrid {
        cores: 24,
        threads_per_proc: 6,
    });
    kinds
}

#[test]
fn concurrent_submits_are_deterministic_across_thread_counts() {
    // Several submitter threads push the same job mix at once; every
    // handle must resolve to the fresh single-shot permutation no matter
    // which shard (or batch group, or cache path) served it.
    let mats: Vec<CscMatrix> = (0..10)
        .map(|i| random_graph(30 + 13 * i, 3, 0xC0FFEE + i as u64))
        .collect();
    let fresh: Vec<Permutation> = mats
        .iter()
        .map(|a| fresh_perm(a, BackendKind::Serial))
        .collect();
    for threads in thread_counts_from_env(&[1, 2, 8]) {
        let config = ServiceConfig::new(
            EngineConfig::from_env()
                .backend(BackendKind::Pooled { threads })
                .build(),
        )
        .shards(3)
        .queue_capacity(8); // small queue: exercise back-pressure too
        let service = OrderingService::start(config);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|round| {
                    let service = &service;
                    let mats = &mats;
                    scope.spawn(move || {
                        let handles: Vec<JobHandle> = mats
                            .iter()
                            .map(|a| service.submit(OrderingRequest::new(a.clone())))
                            .collect();
                        (round, handles)
                    })
                })
                .collect();
            for h in handles {
                let (round, job_handles) = h.join().expect("submitter thread");
                for (i, (jh, expect)) in job_handles.iter().zip(&fresh).enumerate() {
                    let report = jh.wait();
                    assert_eq!(
                        &report.perm, expect,
                        "job {i} of round {round} diverged at {threads} threads"
                    );
                }
            }
        });
        let stats = service.stats();
        assert_eq!(stats.submitted, 40);
        assert_eq!(stats.completed, 40);
        // Concurrent submits of one pattern may each miss (no in-flight
        // dedup), but re-inserting never duplicates an entry…
        assert!(stats.cache_entries <= mats.len(), "{stats:?}");
        // …and with every job drained, one more pass is all cache hits.
        for (a, expect) in mats.iter().zip(&fresh) {
            let report = service.submit(OrderingRequest::new(a.clone())).wait();
            assert_eq!(report.cache, Some(CacheOutcome::Hit));
            assert_eq!(&report.perm, expect);
        }
        assert_eq!(service.stats().cache_hits, stats.cache_hits + mats.len());
    }
}

#[test]
fn cached_permutation_is_bit_identical_on_every_backend() {
    let a = random_graph(120, 4, 42);
    let same_pattern = random_graph_scrambled_build(120, 4, 42);
    assert_eq!(a, same_pattern);
    for kind in backend_kinds() {
        let service = OrderingService::start(ServiceConfig::new(
            EngineConfig::from_env().backend(kind).build(),
        ));
        let first = service.submit(OrderingRequest::new(a.clone())).wait();
        assert_eq!(first.cache, Some(CacheOutcome::Miss));
        // The equal pattern from the other construction route hits, and
        // the hit is bit-identical to a fresh ordering on this backend.
        let second = service
            .submit(OrderingRequest::new(same_pattern.clone()))
            .wait();
        assert_eq!(
            second.cache,
            Some(CacheOutcome::Hit),
            "{}: equal pattern must hit",
            kind.name()
        );
        let fresh = fresh_perm(&a, kind);
        assert_eq!(first.perm, fresh, "{}: miss path diverged", kind.name());
        assert_eq!(second.perm, fresh, "{}: cached path diverged", kind.name());
        assert_eq!(second.bandwidth_after, first.bandwidth_after);
    }
}

#[test]
fn forced_fingerprint_collision_cannot_cross_backends() {
    // Collision safety end-to-end: two different patterns forced into one
    // fingerprint slot must each keep their own permutation.
    let a = random_graph(60, 3, 7);
    let b = random_graph(60, 3, 8);
    assert_ne!(a, b);
    let mut engine = OrderingEngine::new(EngineConfig::builder().build());
    let (ra, rb) = (engine.order(&a), engine.order(&b));
    let mut cache = PatternCache::new(CacheConfig::default());
    let fp = 0x00DD_BA11; // deliberately shared
    cache.insert(fp, &a, &ra, StartNode::GeorgeLiu);
    cache.insert(fp, &b, &rb, StartNode::GeorgeLiu);
    assert_eq!(
        cache
            .lookup(fp, &a, StartNode::GeorgeLiu)
            .expect("entry a")
            .perm,
        ra.perm
    );
    assert_eq!(
        cache
            .lookup(fp, &b, StartNode::GeorgeLiu)
            .expect("entry b")
            .perm,
        rb.perm
    );
    assert_eq!(cache.stats().entries, 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random patterns through the full service path: one miss then one
    /// hit per pattern, the hit bit-identical to the fresh single-shot
    /// ordering on all four backends.
    #[test]
    fn service_cache_roundtrip_is_bit_identical(
        n in 20usize..100, deg in 1usize..6, seed in 0u64..300
    ) {
        let a = random_graph(n, deg, seed);
        let twin = random_graph_scrambled_build(n, deg, seed);
        prop_assert_eq!(&a, &twin);
        for kind in backend_kinds() {
            let service = OrderingService::start(
                ServiceConfig::new(EngineConfig::from_env().backend(kind).build()).shards(1),
            );
            let miss = service.submit(OrderingRequest::new(a.clone())).wait();
            let hit = service.submit(OrderingRequest::new(twin.clone())).wait();
            prop_assert_eq!(hit.cache, Some(CacheOutcome::Hit));
            let fresh = fresh_perm(&a, kind);
            prop_assert_eq!(
                &miss.perm, &fresh,
                "{} miss diverged (n={}, deg={}, seed={})", kind.name(), n, deg, seed
            );
            prop_assert_eq!(
                &hit.perm, &fresh,
                "{} hit diverged (n={}, deg={}, seed={})", kind.name(), n, deg, seed
            );
        }
    }
}
