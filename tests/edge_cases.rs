//! Edge-case and failure-injection integration tests across the workspace:
//! the degenerate inputs a downstream user will eventually feed every API.

use distributed_rcm::prelude::*;
use distributed_rcm::sparse::{connected_components, mm, spy};

/// Flat MPI on `procs` ranks (Edison model, no load balancing).
fn dist_cfg(procs: usize) -> DistRcmConfig {
    DistRcmConfig::flat_on_edison(procs)
}

/// The simulated run of `a` on a fresh engine under `dist`.
fn simulate(a: &CscMatrix, dist: DistRcmConfig) -> DistRcmResult {
    let report = OrderingEngine::new(EngineConfig::builder().dist(dist).build()).order(a);
    report
        .sim
        .expect("dist/hybrid orderings carry a simulated result")
}

/// `a`'s permutation from a fresh engine on `kind`.
fn engine_rcm(a: &CscMatrix, kind: BackendKind) -> Permutation {
    OrderingEngine::with_backend(kind).order(a).perm
}

#[test]
fn empty_matrix_all_pipelines() {
    let a = CscMatrix::empty(0);
    assert_eq!(rcm(&a).len(), 0);
    assert_eq!(engine_rcm(&a, BackendKind::Serial).len(), 0);
    assert_eq!(engine_rcm(&a, BackendKind::Pooled { threads: 4 }).len(), 0);
    let r = simulate(&a, dist_cfg(1));
    assert_eq!(r.perm.len(), 0);
    assert_eq!(r.components, 0);
}

#[test]
fn single_vertex_all_pipelines() {
    let a = CscMatrix::empty(1);
    for p in [
        rcm(&a),
        engine_rcm(&a, BackendKind::Serial),
        engine_rcm(&a, BackendKind::Pooled { threads: 2 }),
        sloan(&a),
    ] {
        assert_eq!(p.len(), 1);
        assert_eq!(p.new_of(0), 0);
    }
    let r = simulate(&a, dist_cfg(4));
    assert_eq!(r.perm.len(), 1);
    assert_eq!(r.components, 1);
}

#[test]
fn all_isolated_vertices() {
    let a = CscMatrix::empty(9);
    let expect = engine_rcm(&a, BackendKind::Serial);
    for procs in [1usize, 4, 9] {
        let r = simulate(&a, dist_cfg(procs));
        assert_eq!(r.perm, expect, "{procs} ranks");
        assert_eq!(r.components, 9);
    }
    // Isolated vertices in min-degree order: vertex 0 first in CM → last in
    // RCM.
    assert_eq!(expect.new_of(0), 8);
}

#[test]
fn star_graph_hub_is_labeled_last_in_cm() {
    // Star: leaves have degree 1, the pseudo-peripheral search lands on a
    // leaf, the hub is its only child.
    let n = 50;
    let mut b = CooBuilder::new(n, n);
    for v in 1..n as u32 {
        b.push_sym(0, v);
    }
    let a = b.build();
    let perm = rcm(&a);
    let q = quality_report(&a, &perm);
    // A star cannot be banded: best achievable bandwidth is ~n/2.
    assert!(q.bandwidth_after >= (n - 1) / 2);
    assert!(q.bandwidth_after < n);
}

#[test]
fn complete_graph_any_order_is_equivalent() {
    let n = 20;
    let mut b = CooBuilder::new(n, n);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            b.push_sym(u, v);
        }
    }
    let a = b.build();
    let perm = rcm(&a);
    let q = quality_report(&a, &perm);
    assert_eq!(q.bandwidth_after, n - 1); // dense stays dense
    assert_eq!(q.bandwidth_before, q.bandwidth_after);
}

#[test]
fn self_loops_are_tolerated() {
    let mut b = CooBuilder::new(6, 6);
    for v in 0..5u32 {
        b.push_sym(v, v + 1);
    }
    for v in 0..6u32 {
        b.push(v, v); // structural diagonal
    }
    let a = b.build();
    assert_eq!(a.nnz(), 16);
    let perm = rcm(&a);
    assert_eq!(ordering_bandwidth(&a, &perm), 1);
    assert_eq!(perm, engine_rcm(&a, BackendKind::Serial));
}

#[test]
fn two_vertex_graph() {
    let mut b = CooBuilder::new(2, 2);
    b.push_sym(0, 1);
    let a = b.build();
    for procs in [1usize, 4] {
        let r = simulate(&a, dist_cfg(procs));
        assert_eq!(r.perm.len(), 2);
    }
    assert_eq!(ordering_bandwidth(&a, &rcm(&a)), 1);
}

#[test]
fn more_ranks_than_vertices() {
    // 16 ranks, 5 vertices: most ranks own nothing; everything must still
    // agree with the sequential result.
    let mut b = CooBuilder::new(5, 5);
    for v in 0..4u32 {
        b.push_sym(v, v + 1);
    }
    let a = b.build();
    let expect = engine_rcm(&a, BackendKind::Serial);
    let r = simulate(&a, dist_cfg(16));
    assert_eq!(r.perm, expect);
    let r25 = simulate(&a, dist_cfg(25));
    assert_eq!(r25.perm, expect);
}

#[test]
fn non_square_process_count_panics() {
    let a = CscMatrix::eye(4);
    let result = std::panic::catch_unwind(|| simulate(&a, dist_cfg(12)));
    assert!(result.is_err(), "12 ranks is not a square grid");
}

#[test]
fn mm_reader_rejects_garbage_gracefully() {
    assert!(mm::read_pattern("not a matrix".as_bytes()).is_err());
    assert!(
        mm::read_pattern("%%MatrixMarket matrix array real general\n1 1\n1.0\n".as_bytes())
            .is_err()
    );
    assert!(mm::read_pattern_file("/nonexistent/path.mtx").is_err());
}

#[test]
fn spy_plot_of_every_suite_matrix_renders() {
    for m in distributed_rcm::graphgen::suite() {
        let a = m.generate(m.default_scale * 0.05);
        let plot = spy(&a, 16);
        assert!(plot.lines().count() >= 18, "{}", m.name);
    }
}

#[test]
fn components_match_driver_component_count() {
    let mut b = CooBuilder::new(40, 40);
    for v in 0..10u32 {
        b.push_sym(v * 4, v * 4 + 1);
        b.push_sym(v * 4 + 1, v * 4 + 2);
    }
    let a = b.build();
    let comps = connected_components(&a);
    let r = simulate(&a, dist_cfg(4));
    assert_eq!(r.components, comps.count());
}

#[test]
fn sort_modes_agree_where_they_must() {
    // Full and GeneralSamplesort implement the same specification; their
    // outputs must be identical (only the charged time differs).
    let mut b = CooBuilder::new(30, 30);
    for v in 0..29u32 {
        b.push_sym(v, v + 1);
        if v % 3 == 0 && v + 3 < 30 {
            b.push_sym(v, v + 3);
        }
    }
    let a = b.build();
    let mut full = dist_cfg(9);
    full.sort_mode = SortMode::Full;
    let mut sample = dist_cfg(9);
    sample.sort_mode = SortMode::GeneralSamplesort;
    let rf = simulate(&a, full);
    let rs = simulate(&a, sample);
    assert_eq!(rf.perm, rs.perm);
    assert!(
        rs.sim_seconds >= rf.sim_seconds,
        "general sort should not be cheaper: {} vs {}",
        rs.sim_seconds,
        rf.sim_seconds
    );
}

#[test]
fn level_stats_sum_to_vertex_count() {
    let m = suite_matrix("Serena").unwrap();
    let a = m.generate(m.default_scale * 0.1);
    let r = simulate(&a, dist_cfg(4));
    let labeled: usize = r.level_stats.iter().map(|l| l.frontier).sum();
    // Every vertex except the per-component roots is labeled by a level.
    assert_eq!(labeled + r.components, a.n_rows());
    assert!(r.level_stats.iter().all(|l| l.seconds >= 0.0));
}
