//! Cross-backend integration tests: the four `RcmRuntime` backends run the
//! *same* generic driver (`rcm_core::driver::drive_cm_with`) and must therefore
//! agree bit for bit wherever determinism is guaranteed — on every suite
//! class and on every degenerate shape — and in quality where internal
//! relabeling is allowed.

use distributed_rcm::core::thread_counts_from_env;
use distributed_rcm::graphgen::suite;
use distributed_rcm::prelude::*;
use distributed_rcm::sparse::Vidx;

/// `a` ordered on a fresh engine over `backend`, under the environment's
/// direction policy and start node (`RCM_DIRECTION`, `RCM_START_NODE`).
fn engine_order(a: &CscMatrix, backend: BackendKind) -> OrderingReport {
    OrderingEngine::new(EngineConfig::from_env().backend(backend).build()).order(a)
}

/// The simulated run of `a` on a fresh engine under `dist` (George–Liu
/// start nodes, the environment's direction policy).
fn simulate(a: &CscMatrix, dist: DistRcmConfig) -> DistRcmResult {
    let config = EngineConfig::from_env()
        .start_node(StartNode::GeorgeLiu)
        .dist(dist)
        .build();
    let report = OrderingEngine::new(config).order(a);
    report
        .sim
        .expect("dist/hybrid orderings carry a simulated result")
}

/// Tiny but structurally faithful instances of every suite class.
fn tiny_suite() -> Vec<(String, CscMatrix)> {
    suite()
        .into_iter()
        .map(|m| (m.name.to_string(), m.generate(m.default_scale * 0.05)))
        .collect()
}

/// The degenerate shapes every backend must survive: empty, single vertex,
/// star, path, and a disconnected forest (isolated vertices + fragments).
fn degenerates() -> Vec<(String, CscMatrix)> {
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
    vec![
        ("empty".to_string(), CscMatrix::empty(0)),
        ("single-vertex".to_string(), CscMatrix::empty(1)),
        ("star".to_string(), star),
        ("path".to_string(), path),
        ("forest".to_string(), forest),
    ]
}

/// The suite-level acceptance check of the `RcmRuntime` refactor: serial ==
/// pooled == dist == hybrid, bit for bit, on every suite graph and every
/// degenerate. The pooled sweep honors `RCM_THREADS` so CI exercises it at
/// several thread counts.
#[test]
fn all_four_backends_agree_bitwise_on_suite_and_degenerates() {
    let mut graphs = tiny_suite();
    graphs.extend(degenerates());
    for (name, a) in graphs {
        // The classical George–Liu serial ordering is the ground truth the
        // algebraic formulation provably matches.
        let expect = rcm(&a);
        assert_eq!(
            engine_order(&a, BackendKind::Serial).perm,
            expect,
            "{name}: serial backend vs classical"
        );
        for threads in thread_counts_from_env(&[1, 3]) {
            assert_eq!(
                engine_order(&a, BackendKind::Pooled { threads }).perm,
                expect,
                "{name}: pooled backend diverged at {threads} threads"
            );
        }
        for cores in [1usize, 4, 9] {
            assert_eq!(
                engine_order(&a, BackendKind::Dist { cores }).perm,
                expect,
                "{name}: dist backend diverged on {cores} ranks"
            );
        }
        for (cores, threads_per_proc) in [(24usize, 6usize), (54, 6)] {
            assert_eq!(
                engine_order(
                    &a,
                    BackendKind::Hybrid {
                        cores,
                        threads_per_proc
                    }
                )
                .perm,
                expect,
                "{name}: hybrid backend diverged at {cores} cores x {threads_per_proc} threads"
            );
        }
    }
}

#[test]
fn shared_backend_is_thread_count_independent_on_suite_classes() {
    // The acceptance sweep: bit-identical to the algebraic ordering at
    // every Table II thread count, on a graph large enough that interior
    // frontiers take the work-stealing parallel path.
    let m = distributed_rcm::graphgen::suite_matrix("ldoor").unwrap();
    let a = m.generate(m.default_scale * 0.5);
    let expect = engine_order(&a, BackendKind::Serial).perm;
    for threads in [1usize, 2, 4, 8, 16] {
        let report = engine_order(&a, BackendKind::Pooled { threads });
        assert_eq!(report.perm, expect, "ldoor diverged at {threads} threads");
        if threads > 1 {
            assert!(
                report.parallel_levels > 0,
                "{threads} threads never exercised the parallel pipeline"
            );
        }
    }
}

#[test]
fn hybrid_and_flat_share_the_data_path_at_every_scale() {
    // Fig. 6's sweep axis: for a fixed process grid, the thread count only
    // rescales compute cost — the permutation and the communication volume
    // must be unchanged.
    let m = distributed_rcm::graphgen::suite_matrix("nd24k").unwrap();
    let a = m.generate(m.default_scale * 0.1);
    let flat = simulate(&a, DistRcmConfig::flat_on_edison(16));
    for threads in [2usize, 6, 12] {
        let cfg = DistRcmConfig {
            hybrid: HybridConfig::new(16 * threads, threads),
            ..DistRcmConfig::flat_on_edison(16)
        };
        let hybrid = simulate(&a, cfg);
        assert_eq!(hybrid.perm, flat.perm, "{threads} threads/proc diverged");
        assert_eq!(hybrid.grid_side, flat.grid_side);
        assert_eq!(hybrid.messages, flat.messages);
        assert_eq!(hybrid.bytes, flat.bytes);
        assert!(
            hybrid.breakdown.compute_total() < flat.breakdown.compute_total(),
            "{threads} threads/proc must cut modeled compute"
        );
    }
}

#[test]
fn load_balance_permutation_keeps_quality() {
    for (name, a) in tiny_suite() {
        let baseline = {
            let p = rcm(&a);
            ordering_bandwidth(&a, &p)
        };
        let cfg = DistRcmConfig {
            balance_seed: Some(42),
            ..DistRcmConfig::flat_on_edison(4)
        };
        let r = simulate(&a, cfg);
        let bw = ordering_bandwidth(&a, &r.perm);
        // Internal relabeling may shift tie-breaks; allow a modest band.
        assert!(
            bw as f64 <= baseline as f64 * 1.5 + 16.0,
            "{name}: balanced bandwidth {bw} vs baseline {baseline}"
        );
    }
}

#[test]
fn rcm_quality_direction_matches_paper() {
    // The paper's Fig. 3: RCM helps a lot on the FEM classes, and is nearly
    // a no-op on Serena/Flan-like and CI-like matrices.
    for (name, a) in tiny_suite() {
        let p = rcm(&a);
        let q = quality_report(&a, &p);
        assert!(
            q.bandwidth_after <= q.bandwidth_before,
            "{name}: RCM must not worsen the bandwidth ({} -> {})",
            q.bandwidth_before,
            q.bandwidth_after
        );
        // audikw/dielFilter shrink to ~6³ cubes at test scale, where the
        // bandwidth floor (a cube face × 3 dofs) caps the reduction factor;
        // check the strong-reduction claim on classes that keep shape.
        if matches!(name.as_str(), "ldoor" | "thermal2" | "nlpkkt240") {
            assert!(
                q.bandwidth_after * 3 < q.bandwidth_before,
                "{name}: expected a strong reduction, got {} -> {}",
                q.bandwidth_before,
                q.bandwidth_after
            );
        }
    }
}

#[test]
fn permutations_are_bijections_with_reversal_symmetry() {
    for (name, a) in tiny_suite() {
        let cm = distributed_rcm::core::cuthill_mckee(&a);
        let rcm_p = rcm(&a);
        assert_eq!(cm.reversed(), rcm_p, "{name}: RCM must reverse CM");
        assert_eq!(
            cm.then(&cm.inverse()),
            Permutation::identity(a.n_rows()),
            "{name}: not a bijection"
        );
    }
}
