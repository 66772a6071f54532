//! Direction-optimizing frontier layer: forced push, forced pull, adaptive,
//! and the alternating policy (which forces a direction *switch at every
//! level boundary*) must all produce the bit-identical permutation on all
//! four backends — the tentpole invariant of the dual sparse/dense frontier
//! representation.

use distributed_rcm::core::thread_counts_from_env;
use distributed_rcm::prelude::*;
use distributed_rcm::sparse::Vidx;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const POLICIES: [ExpandDirection; 4] = [
    ExpandDirection::Push,
    ExpandDirection::Pull,
    ExpandDirection::Adaptive,
    ExpandDirection::Alternating,
];

/// `a` ordered on a fresh engine over `backend` under `policy`, starting
/// from the environment's configuration (`RCM_START_NODE`).
fn directed(a: &CscMatrix, backend: BackendKind, policy: ExpandDirection) -> OrderingReport {
    let config = EngineConfig::from_env()
        .backend(backend)
        .direction(policy)
        .build();
    OrderingEngine::new(config).order(a)
}

/// The simulated configurations: flat MPI on a 2×2 process grid, and 24
/// hybrid cores at 6 threads/process (the Edison model either way).
const FLAT: BackendKind = BackendKind::Dist { cores: 4 };
const HYBRID: BackendKind = BackendKind::Hybrid {
    cores: 24,
    threads_per_proc: 6,
};

/// Random symmetric graph from a seed: n vertices, ~avg_deg·n/2 edges.
fn random_graph(n: usize, avg_deg: usize, seed: u64) -> CscMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = CooBuilder::new(n, n);
    for _ in 0..(n * avg_deg / 2) {
        let u = rng.gen_range(0..n) as u32;
        let v = rng.gen_range(0..n) as u32;
        if u != v {
            b.push_sym(u, v);
        }
    }
    b.build()
}

/// Assert every `(policy, backend)` combination reproduces the serial push
/// ordering on `a`. The pooled sweep honors `RCM_THREADS` so CI exercises
/// it at several thread counts.
fn assert_all_directions_agree(name: &str, a: &CscMatrix) {
    let expect = directed(a, BackendKind::Serial, ExpandDirection::Push).perm;
    for policy in POLICIES {
        let mut kinds = vec![BackendKind::Serial];
        kinds.extend(
            thread_counts_from_env(&[1, 3])
                .into_iter()
                .map(|threads| BackendKind::Pooled { threads }),
        );
        kinds.push(FLAT);
        kinds.push(HYBRID);
        for kind in kinds {
            assert_eq!(
                directed(a, kind, policy).perm,
                expect,
                "{name}: {} backend diverged under {} policy",
                kind.name(),
                policy.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The alternating policy switches direction at *every* level boundary,
    /// so each random graph round-trips the sparse ↔ dense representation
    /// on every consecutive level pair — and still matches push-only,
    /// pull-only and adaptive bit for bit on all four backends.
    #[test]
    fn forced_switches_keep_all_backends_bit_identical(
        n in 2usize..100, deg in 1usize..8, seed in 0u64..500
    ) {
        let a = random_graph(n, deg, seed);
        let serial_push = directed(&a, BackendKind::Serial, ExpandDirection::Push).perm;
        for policy in POLICIES {
            let serial = directed(&a, BackendKind::Serial, policy);
            let sstats = &serial.stats;
            prop_assert_eq!(&serial.perm, &serial_push, "serial {} diverged", policy.name());
            if policy == ExpandDirection::Alternating && sstats.push_expands > 0 {
                // The whole point of the policy: both directions ran.
                prop_assert!(
                    sstats.pull_expands > 0,
                    "alternating never pulled ({} expansions)",
                    sstats.push_expands
                );
            }
            for threads in thread_counts_from_env(&[2]) {
                let pooled = directed(&a, BackendKind::Pooled { threads }, policy).perm;
                prop_assert_eq!(
                    &pooled, &serial_push,
                    "pooled({}) {} diverged", threads, policy.name()
                );
            }
            let dist = directed(&a, FLAT, policy);
            prop_assert!(dist.sim.is_some());
            prop_assert_eq!(&dist.perm, &serial_push, "dist {} diverged", policy.name());
            let hybrid = directed(&a, HYBRID, policy);
            prop_assert!(hybrid.sim.is_some());
            prop_assert_eq!(&hybrid.perm, &serial_push, "hybrid {} diverged", policy.name());
        }
    }

    /// Forced pull must actually pull (and forced push must not) — guards
    /// against a fallback silently routing everything through one kernel.
    #[test]
    fn forced_modes_use_their_kernel(n in 4usize..60, deg in 1usize..6, seed in 0u64..200) {
        let a = random_graph(n, deg, seed);
        let push_stats = directed(&a, BackendKind::Serial, ExpandDirection::Push).stats;
        prop_assert_eq!(push_stats.pull_expands, 0);
        prop_assert!(push_stats.push_expands > 0);
        let pull_stats = directed(&a, BackendKind::Serial, ExpandDirection::Pull).stats;
        prop_assert_eq!(pull_stats.push_expands, 0);
        prop_assert!(pull_stats.pull_expands > 0);
    }
}

/// The degenerate shapes every backend must survive under every policy:
/// empty, single vertex, star (one giant pull level), path (hundreds of
/// singleton frontiers), and a disconnected forest whose pull masks span
/// not-yet-ordered components.
#[test]
fn degenerates_agree_under_every_direction() {
    let star = {
        let n = 41;
        let mut b = CooBuilder::new(n, n);
        for v in 1..n as Vidx {
            b.push_sym(0, v);
        }
        b.build()
    };
    let path = {
        let n = 37;
        let mut b = CooBuilder::new(n, n);
        for v in 0..(n - 1) as Vidx {
            b.push_sym(v, v + 1);
        }
        b.build()
    };
    let forest = {
        // 30 vertices: a 7-path, a 5-star, two 2-edges, and isolated rest.
        let mut b = CooBuilder::new(30, 30);
        for v in 0..6u32 {
            b.push_sym(v, v + 1);
        }
        for v in 8..12u32 {
            b.push_sym(7, v);
        }
        b.push_sym(13, 14);
        b.push_sym(16, 15);
        b.build()
    };
    for (name, a) in [
        ("empty", CscMatrix::empty(0)),
        ("single-vertex", CscMatrix::empty(1)),
        ("star", star),
        ("path", path),
        ("forest", forest),
    ] {
        assert_all_directions_agree(name, &a);
    }
}

/// Suite classes under every policy — the wide-frontier FEM shapes are
/// where adaptive actually engages its pull levels.
#[test]
fn suite_classes_agree_under_every_direction() {
    for m in distributed_rcm::graphgen::suite() {
        let a = m.generate(m.default_scale * 0.05);
        assert_all_directions_agree(m.name, &a);
    }
}

/// A wide-level caterpillar pushes the pooled backend's *parallel* pull
/// pipeline (frontiers above the sequential cutover) through a forced
/// switch at every level, at every `RCM_THREADS` count.
#[test]
fn parallel_pull_pipeline_is_bit_identical_above_the_cutover() {
    let (hubs, leaves) = (10usize, 300usize);
    let n = hubs * (leaves + 1);
    let mut b = CooBuilder::new(n, n);
    for h in 0..hubs {
        let hub = (h * (leaves + 1)) as Vidx;
        if h + 1 < hubs {
            b.push_sym(hub, hub + (leaves + 1) as Vidx);
        }
        for l in 1..=leaves {
            b.push_sym(hub, hub + l as Vidx);
        }
    }
    let a = b.build();
    let expect = directed(&a, BackendKind::Serial, ExpandDirection::Push).perm;
    for threads in thread_counts_from_env(&[2, 5, 8]) {
        for policy in [ExpandDirection::Pull, ExpandDirection::Alternating] {
            let report = directed(&a, BackendKind::Pooled { threads }, policy);
            let stats = report.stats;
            assert_eq!(
                report.perm,
                expect,
                "{threads} threads diverged under {}",
                policy.name()
            );
            assert!(stats.pull_expands > 0, "{threads} threads never pulled");
        }
    }
}
