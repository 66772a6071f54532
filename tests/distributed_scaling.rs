//! Integration tests of the distributed simulation's *performance shape* —
//! the qualitative claims of the paper's §V that the reproduction must hold:
//!
//! * compute shrinks and communication grows with core count,
//! * SpMSpV dominates at low concurrency, sorting latency at high
//!   concurrency (Fig. 4),
//! * communication overtakes computation inside SpMSpV as p grows (Fig. 5),
//! * flat MPI is slower than hybrid at scale (Fig. 6),
//! * high-diameter matrices stop scaling earlier than low-diameter ones.

use distributed_rcm::dist::Phase;
use distributed_rcm::graphgen::suite_matrix;
use distributed_rcm::prelude::*;

/// The paper's hybrid configuration (6 threads/process) on `cores`.
fn hybrid(cores: usize) -> EngineConfigBuilder {
    EngineConfig::builder().dist(DistRcmConfig::hybrid_on_edison(cores))
}

/// Flat MPI on `cores`.
fn flat(cores: usize) -> EngineConfigBuilder {
    EngineConfig::builder().dist(DistRcmConfig::flat_on_edison(cores))
}

/// The simulated run of `a` on a fresh engine under `config`.
fn simulate(a: &CscMatrix, config: EngineConfigBuilder) -> DistRcmResult {
    let report = OrderingEngine::new(config.build()).order(a);
    report
        .sim
        .expect("dist/hybrid orderings carry a simulated result")
}

#[test]
fn communication_grows_and_compute_shrinks_with_cores() {
    let m = suite_matrix("Serena").unwrap();
    let a = m.generate(m.default_scale * 0.2);
    let r24 = simulate(&a, hybrid(24));
    let r216 = simulate(&a, hybrid(216));
    assert!(r216.breakdown.compute_total() < r24.breakdown.compute_total());
    assert!(r216.breakdown.comm_total() > r24.breakdown.comm_total());
}

#[test]
fn spmspv_communication_fraction_increases_with_cores() {
    let m = suite_matrix("ldoor").unwrap();
    let a = m.generate(m.default_scale * 0.2);
    let frac = |cores: usize| {
        let r = simulate(&a, hybrid(cores));
        let s = r.breakdown.spmspv_split();
        s.comm / s.total()
    };
    let f24 = frac(24);
    let f1014 = frac(1014);
    assert!(
        f1014 > f24,
        "SpMSpV comm fraction should grow: {f24:.3} -> {f1014:.3}"
    );
    // At ~1K cores on a (scaled-down) high-diameter matrix the paper shows
    // communication dominating.
    assert!(
        f1014 > 0.5,
        "expected comm-bound SpMSpV at 1K cores: {f1014:.3}"
    );
}

#[test]
fn sorting_latency_dominates_at_high_concurrency() {
    let m = suite_matrix("ldoor").unwrap();
    let a = m.generate(m.default_scale * 0.2);
    let r = simulate(&a, hybrid(4056));
    let sort = r.breakdown.get(Phase::OrderingSort).total();
    let spmspv = r.breakdown.get(Phase::OrderingSpmspv).total();
    // Fig. 4: "SORTPERM starts to dominate on high concurrency because it
    // performs an AllToAll among all processes".
    assert!(
        sort > spmspv,
        "at 4056 cores sorting ({sort:.4}s) should outweigh ordering SpMSpV ({spmspv:.4}s)"
    );
}

#[test]
fn flat_mpi_slower_than_hybrid_at_scale() {
    let m = suite_matrix("ldoor").unwrap();
    let a = m.generate(m.default_scale * 0.2);
    let flat = simulate(&a, flat(1024));
    let hybrid = simulate(&a, hybrid(1014));
    assert!(
        flat.sim_seconds > hybrid.sim_seconds * 1.5,
        "flat {:.4}s vs hybrid {:.4}s — paper reports ~5x at 4096 cores",
        flat.sim_seconds,
        hybrid.sim_seconds
    );
}

#[test]
fn low_diameter_matrix_scales_further_than_high_diameter() {
    // Li7Nmax6 (diameter ~7) vs ldoor (high diameter): compare the speedup
    // still available when moving from 216 to 1014 cores.
    let gain = |name: &str| {
        let m = suite_matrix(name).unwrap();
        let a = m.generate(m.default_scale * 0.2);
        let t216 = simulate(&a, hybrid(216)).sim_seconds;
        let t1014 = simulate(&a, hybrid(1014)).sim_seconds;
        t216 / t1014
    };
    let li7 = gain("Li7Nmax6");
    let ldoor = gain("ldoor");
    assert!(
        li7 > ldoor,
        "low-diameter should keep scaling: Li7 {li7:.2}x vs ldoor {ldoor:.2}x"
    );
}

#[test]
fn single_core_run_has_zero_communication() {
    let m = suite_matrix("nd24k").unwrap();
    let a = m.generate(m.default_scale * 0.2);
    let r = simulate(&a, hybrid(1));
    assert_eq!(r.breakdown.comm_total(), 0.0);
    assert_eq!(r.messages, 0);
    assert_eq!(r.grid_side, 1);
}

#[test]
fn speedup_at_1024_cores_is_substantial() {
    // §V-D headline: up to 38x on 1024 cores. At reduced scale we just check
    // the sweep achieves a healthy double-digit speedup for a low-diameter
    // matrix. The paper's measurement is of the push-only algorithm, so pin
    // the direction: the adaptive pull layer shrinks the 1-core baseline
    // (cheap masked row-scans on Li7's fat frontiers), which compresses
    // this ratio — that effect is reported by `repro direction` instead.
    let m = suite_matrix("Li7Nmax6").unwrap();
    let a = m.generate(m.default_scale * 0.5);
    let push = ExpandDirection::Push;
    let t1 = simulate(&a, hybrid(1).direction(push)).sim_seconds;
    let t1014 = simulate(&a, hybrid(1014).direction(push)).sim_seconds;
    let speedup = t1 / t1014;
    assert!(
        speedup > 8.0,
        "expected a substantial speedup at 1014 cores, got {speedup:.1}x"
    );
}
