//! Component-parallel equivalence — the bit-identity contract of
//! `EngineConfig::split_components`: a splitting engine must return
//! permutations bit-identical to fresh sequential engine orderings on
//! every backend, at every `RCM_THREADS` count (CI sweeps 1/2/8; configs
//! start from `EngineConfig::from_env`), across degenerate component structures — empty, all-isolated,
//! a single giant component, a forest of small trees, a star+path mix —
//! and on random (frequently disconnected) proptest matrices. Plus the
//! steady-state check: resplitting matrices the warm splitter has already
//! seen allocates nothing.

use distributed_rcm::core::thread_counts_from_env;
use distributed_rcm::graphgen::{forest, multi_body};
use distributed_rcm::prelude::*;
use distributed_rcm::sparse::Vidx;
use proptest::prelude::*;

/// A star on `s` vertices and a path on `p` vertices, disjoint in one
/// matrix plus two trailing isolated vertices: one fat-level component,
/// one long-thin component, and size-1 components all at once.
fn star_path_mix(s: usize, p: usize) -> CscMatrix {
    let n = s + p + 2;
    let mut b = CooBuilder::new(n, n);
    for v in 1..s as Vidx {
        b.push_sym(0, v);
    }
    for v in 0..(p - 1) as Vidx {
        b.push_sym(s as Vidx + v, s as Vidx + v + 1);
    }
    b.build()
}

/// A connected 2D grid, stride-scrambled (`gcd(stride, w²) == 1`) so ids
/// are shuffled: the single-giant-component case where the split path
/// must fall through to the ordinary driver.
fn scrambled_grid(w: usize, stride: usize) -> CscMatrix {
    let n = w * w;
    let mut b = CooBuilder::new(n, n);
    for y in 0..w {
        for x in 0..w {
            let u = (y * w + x) as Vidx;
            if x + 1 < w {
                b.push_sym(u, u + 1);
            }
            if y + 1 < w {
                b.push_sym(u, u + w as Vidx);
            }
        }
    }
    let perm: Vec<Vidx> = (0..n).map(|i| ((i * stride) % n) as Vidx).collect();
    b.build()
        .permute_sym(&Permutation::from_new_of_old(perm).unwrap())
}

fn degenerate_inputs() -> Vec<(&'static str, CscMatrix)> {
    vec![
        ("empty", CscMatrix::empty(0)),
        ("single-vertex", CscMatrix::empty(1)),
        ("all-isolated", CscMatrix::empty(25)),
        ("single-giant", scrambled_grid(9, 7)),
        ("forest", forest(6, 9, 5)),
        ("multi-body", multi_body(4, 5, 6)),
        ("star-path-mix", star_path_mix(11, 8)),
    ]
}

fn backends(threads: usize) -> Vec<BackendKind> {
    vec![
        BackendKind::Serial,
        BackendKind::Pooled { threads },
        BackendKind::Dist { cores: 16 },
        BackendKind::Hybrid {
            cores: 24,
            threads_per_proc: 6,
        },
    ]
}

#[test]
fn split_engines_match_fresh_sequential_orderings_on_degenerate_inputs() {
    for threads in thread_counts_from_env(&[1, 3]) {
        for kind in backends(threads) {
            // One warm engine per backend across the whole input list:
            // reuse is part of the contract under test.
            let mut engine = OrderingEngine::new(
                EngineConfig::from_env()
                    .backend(kind)
                    .split_components(true)
                    .build(),
            );
            for (name, a) in degenerate_inputs() {
                let expect = OrderingEngine::new(EngineConfig::from_env().build())
                    .order(&a)
                    .perm;
                let got = engine.order(&a).perm;
                assert_eq!(
                    got, expect,
                    "{name} diverged on {kind:?} at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn resplitting_warm_inputs_allocates_nothing() {
    for threads in thread_counts_from_env(&[3]) {
        let mut engine = OrderingEngine::new(
            EngineConfig::from_env()
                .backend(BackendKind::Pooled { threads })
                .split_components(true)
                .build(),
        );
        let mats: Vec<CscMatrix> = degenerate_inputs().into_iter().map(|(_, a)| a).collect();
        for a in &mats {
            engine.order(a);
        }
        let warm = engine.growth_events();
        for _ in 0..3 {
            for a in &mats {
                engine.order(a);
            }
        }
        assert_eq!(
            engine.growth_events(),
            warm,
            "resplitting warm inputs must not grow any buffer"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random sparse symmetric matrices — with few edges they are usually
    /// disconnected, exercising arbitrary component structures — ordered
    /// by splitting serial and pooled engines against the classical
    /// George–Liu reference.
    #[test]
    fn split_ordering_equals_sequential_on_random_matrices(
        n in 1usize..40,
        pairs in proptest::collection::vec((0usize..40, 0usize..40), 0..60),
    ) {
        let mut b = CooBuilder::new(n, n);
        for (u, v) in pairs {
            b.push_sym((u % n) as Vidx, (v % n) as Vidx);
        }
        let a = b.build();
        let expect = rcm(&a);
        for kind in [BackendKind::Serial, BackendKind::Pooled { threads: 2 }] {
            let mut engine = OrderingEngine::new(
                EngineConfig::from_env()
                    .start_node(StartNode::GeorgeLiu)
                    .backend(kind)
                    .split_components(true)
                    .build(),
            );
            prop_assert_eq!(&engine.order(&a).perm, &expect);
        }
    }
}
