//! The distributed-memory RCM algorithm — Algorithms 3 and 4 of the paper
//! executed on the `rcm-dist` simulated runtime.
//!
//! This module holds only the run configuration and result types: the
//! BFS/peripheral/labeling pipeline lives **once** in
//! [`crate::driver::drive_cm_with`], and an [`crate::OrderingEngine`]
//! built with [`crate::EngineConfigBuilder::dist`] runs it on
//! [`crate::backends::DistBackend`] (flat MPI) or
//! [`crate::backends::HybridBackend`] (`threads_per_proc > 1`, the Fig. 6
//! MPI×OpenMP configuration), attaching the result to
//! [`crate::OrderingReport::sim`]:
//!
//! ```
//! use rcm_core::{DistRcmConfig, EngineConfig, OrderingEngine};
//! use rcm_sparse::CooBuilder;
//!
//! let mut b = CooBuilder::new(6, 6);
//! for v in 0..5 {
//!     b.push_sym(v, v + 1);
//! }
//! let config = EngineConfig::builder()
//!     .dist(DistRcmConfig::hybrid_on_edison(24))
//!     .build();
//! let report = OrderingEngine::new(config).order(&b.build());
//! let sim = report.sim.expect("dist/hybrid orderings carry a sim result");
//! assert_eq!(sim.threads_per_proc, 6);
//! assert!(sim.sim_seconds > 0.0);
//! ```
//!
//! Every step charges simulated time to a
//! [`rcm_dist::SimClock`] under the phase taxonomy of Fig. 4
//! (`Peripheral/Ordering × SpMSpV/Sort/Other`), which is what the
//! benchmark harness plots.
//!
//! Determinism: with `balance_seed = None` the returned permutation is
//! *identical* to the serial backend's for every grid size
//! and thread count — the cross-backend tests rely on this. A load-balance
//! permutation relabels vertices internally, which can change
//! `(degree, id)` tie-breaks; quality is unaffected but exact orderings may
//! differ.

use crate::driver::{DriverStats, ExpandDirection, StartNode};
pub use crate::driver::{LevelStat, PeripheralStat};
use rcm_dist::{HybridConfig, MachineModel};
use rcm_sparse::Permutation;

/// How (and whether) frontier vertices are sorted before labeling — the
/// §VI "future work" ablation knob.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SortMode {
    /// Per-level distributed bucket sort (the paper's algorithm).
    #[default]
    Full,
    /// No sorting: label frontier vertices in global index order. Saves the
    /// per-level AllToAlls at the price of ordering quality.
    NoSort,
    /// Label by BFS level only, with one global sort at the very end keyed
    /// by `(level, degree, vertex)`.
    GlobalSortAtEnd,
    /// Per-level sorting like [`SortMode::Full`], but with a *general* PSRS
    /// sample sort instead of the paper's specialized bucket sort — the
    /// §IV-B "state-of-the-art general sorting library" baseline. Produces
    /// the identical ordering at a higher simulated cost.
    GeneralSamplesort,
}

/// Configuration of a distributed RCM run.
#[derive(Clone, Copy, Debug)]
pub struct DistRcmConfig {
    /// Machine cost model.
    pub machine: MachineModel,
    /// Cores and threads-per-process.
    pub hybrid: HybridConfig,
    /// Seed of the load-balance permutation (§IV-A); `None` disables it.
    pub balance_seed: Option<u64>,
    /// Sorting strategy (ablation; default = the paper's algorithm).
    pub sort_mode: SortMode,
    /// Frontier-expansion direction policy (forced push/pull or the
    /// Beamer-style adaptive switch) for a backend driven directly. Every
    /// policy produces the identical permutation; the constructors default
    /// it to [`ExpandDirection::Adaptive`]. An engine applies its own
    /// [`crate::EngineConfig::direction`] instead.
    pub direction: ExpandDirection,
    /// Start-node selection strategy (George–Liu sweep, RCM++ bi-criteria,
    /// a fixed vertex, or zero-sweep min-degree) for a backend driven
    /// directly. The constructors default it to [`StartNode::GeorgeLiu`];
    /// an engine applies its own [`crate::EngineConfig::start_node`].
    pub start_node: StartNode,
}

impl DistRcmConfig {
    /// The paper's preferred configuration: Edison model, 6 threads/process.
    pub fn hybrid_on_edison(cores: usize) -> Self {
        DistRcmConfig {
            machine: MachineModel::edison(),
            hybrid: HybridConfig::new(cores, 6),
            balance_seed: None,
            sort_mode: SortMode::Full,
            direction: ExpandDirection::Adaptive,
            start_node: StartNode::GeorgeLiu,
        }
    }

    /// Flat-MPI configuration (1 thread per process, Fig. 6).
    pub fn flat_on_edison(cores: usize) -> Self {
        DistRcmConfig {
            machine: MachineModel::edison(),
            hybrid: HybridConfig::new(cores, 1),
            balance_seed: None,
            sort_mode: SortMode::Full,
            direction: ExpandDirection::Adaptive,
            start_node: StartNode::GeorgeLiu,
        }
    }
}

/// Result of a distributed RCM run.
#[derive(Clone, Debug)]
pub struct DistRcmResult {
    /// The RCM ordering (old vertex id → new label), in *original* ids.
    pub perm: Permutation,
    /// Simulated wall-clock seconds (sum of all phases).
    pub sim_seconds: f64,
    /// Per-phase compute/communication breakdown (Figs. 4–6).
    pub breakdown: rcm_dist::Breakdown,
    /// Process-grid side length (`√p′`).
    pub grid_side: usize,
    /// Threads per process used by the cost model.
    pub threads_per_proc: usize,
    /// Connected components labeled.
    pub components: usize,
    /// BFS sweeps spent in pseudo-peripheral searches.
    pub peripheral_bfs: usize,
    /// Frontier-expansion iterations in the ordering passes.
    pub levels: usize,
    /// Total messages the cost model counted.
    pub messages: u64,
    /// Total bytes the cost model counted.
    pub bytes: u64,
    /// Frontier expansions (ordering and peripheral) that ran top-down.
    pub push_expands: usize,
    /// Frontier expansions (ordering and peripheral) that ran bottom-up
    /// (dense-allgather pull).
    pub pull_expands: usize,
    /// Per-level trace of the ordering passes (concatenated across
    /// components), including the direction chosen per level.
    pub level_stats: Vec<LevelStat>,
    /// Per-component peripheral-search trace (start vertex, sweeps run,
    /// BFS levels traversed, final eccentricity).
    pub peripheral_stats: Vec<PeripheralStat>,
}

impl DistRcmResult {
    /// The run's generic-driver execution record (the simulated runtime
    /// counts no SpMSpV work).
    pub(crate) fn driver_stats(&self) -> DriverStats {
        DriverStats {
            components: self.components,
            peripheral_bfs: self.peripheral_bfs,
            levels: self.levels,
            spmspv_work: 0,
            push_expands: self.push_expands,
            pull_expands: self.pull_expands,
            level_stats: self.level_stats.clone(),
            peripheral_stats: self.peripheral_stats.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackendKind, EngineConfig, OrderingEngine};
    use rcm_dist::Phase;
    use rcm_sparse::{matrix_bandwidth, CooBuilder, CscMatrix, Vidx};

    /// The simulated result of ordering `a` on a fresh engine.
    fn simulate(a: &CscMatrix, config: &DistRcmConfig) -> DistRcmResult {
        let report = OrderingEngine::new(EngineConfig::builder().dist(*config).build()).order(a);
        report
            .sim
            .expect("dist/hybrid orderings carry a sim result")
    }

    /// The serial (algebraic specification) backend's permutation.
    fn serial_backend_rcm(a: &CscMatrix) -> Permutation {
        OrderingEngine::with_backend(BackendKind::Serial)
            .order(a)
            .perm
    }

    fn scrambled_path(n: usize, stride: usize) -> CscMatrix {
        let mut b = CooBuilder::new(n, n);
        for v in 0..n - 1 {
            b.push_sym(v as Vidx, (v + 1) as Vidx);
        }
        let a = b.build();
        let perm: Vec<Vidx> = (0..n).map(|i| ((i * stride) % n) as Vidx).collect();
        a.permute_sym(&Permutation::from_new_of_old(perm).unwrap())
    }

    fn grid_graph(w: usize) -> CscMatrix {
        let mut b = CooBuilder::new(w * w, w * w);
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
        b.build()
    }

    fn config_with_cores(cores: usize) -> DistRcmConfig {
        DistRcmConfig::flat_on_edison(cores)
    }

    #[test]
    fn distributed_equals_algebraic_on_every_grid() {
        let a = scrambled_path(37, 11);
        let expect = serial_backend_rcm(&a);
        for procs in [1usize, 4, 9, 16] {
            let res = simulate(&a, &config_with_cores(procs));
            assert_eq!(res.perm, expect, "diverged on {procs} ranks");
        }
    }

    #[test]
    fn distributed_equals_algebraic_on_2d_grid_graph() {
        let a = grid_graph(11);
        let expect = serial_backend_rcm(&a);
        for procs in [1usize, 9, 25] {
            let res = simulate(&a, &config_with_cores(procs));
            assert_eq!(res.perm, expect, "diverged on {procs} ranks");
        }
    }

    #[test]
    fn distributed_handles_components() {
        let mut b = CooBuilder::new(12, 12);
        b.push_sym(0, 1);
        b.push_sym(1, 2);
        b.push_sym(5, 6);
        b.push_sym(7, 8);
        b.push_sym(8, 9);
        b.push_sym(9, 7);
        let a = b.build();
        let expect = serial_backend_rcm(&a);
        let res = simulate(&a, &config_with_cores(4));
        assert_eq!(res.perm, expect);
        assert_eq!(res.components, 7); // {0,1,2} {3} {4} {5,6} {7,8,9} {10} {11}
    }

    #[test]
    fn balance_permutation_preserves_quality() {
        let a = scrambled_path(60, 17);
        let plain = simulate(&a, &config_with_cores(4));
        let mut cfg = config_with_cores(4);
        cfg.balance_seed = Some(99);
        let balanced = simulate(&a, &cfg);
        let bw_plain = matrix_bandwidth(&a.permute_sym(&plain.perm));
        let bw_balanced = matrix_bandwidth(&a.permute_sym(&balanced.perm));
        assert_eq!(bw_plain, 1);
        assert_eq!(bw_balanced, 1);
    }

    #[test]
    fn more_ranks_cost_more_communication() {
        let a = grid_graph(14);
        let r1 = simulate(&a, &config_with_cores(1));
        let r16 = simulate(&a, &config_with_cores(16));
        assert_eq!(r1.breakdown.comm_total(), 0.0);
        assert!(r16.breakdown.comm_total() > 0.0);
        assert!(r16.messages > 0);
        // Compute per rank shrinks: the max-over-ranks compute on 16 ranks
        // must be below the single-rank compute.
        assert!(r16.breakdown.compute_total() < r1.breakdown.compute_total());
    }

    #[test]
    fn hybrid_threads_speed_up_compute() {
        let a = grid_graph(14);
        let mut flat = config_with_cores(4);
        flat.hybrid = HybridConfig::new(4, 1);
        let mut hybrid = config_with_cores(4);
        hybrid.hybrid = HybridConfig::new(24, 6); // same 4-rank grid, 6 threads
        let rf = simulate(&a, &flat);
        let rh = simulate(&a, &hybrid);
        assert_eq!(rf.perm, rh.perm);
        assert!(rh.breakdown.compute_total() < rf.breakdown.compute_total());
        assert_eq!(rf.grid_side, rh.grid_side);
    }

    #[test]
    fn nosort_is_valid_but_lower_quality_on_grids() {
        let a = grid_graph(13);
        let mut cfg = config_with_cores(4);
        cfg.sort_mode = SortMode::NoSort;
        let res = simulate(&a, &cfg);
        assert_eq!(res.perm.len(), a.n_rows());
        // Still a bandwidth reducer on a shuffled path, just not optimal.
        let full = simulate(&a, &config_with_cores(4));
        let bw_nosort = matrix_bandwidth(&a.permute_sym(&res.perm));
        let bw_full = matrix_bandwidth(&a.permute_sym(&full.perm));
        assert!(bw_full <= bw_nosort);
    }

    #[test]
    fn global_sort_at_end_is_valid() {
        let a = grid_graph(9);
        let mut cfg = config_with_cores(4);
        cfg.sort_mode = SortMode::GlobalSortAtEnd;
        let res = simulate(&a, &cfg);
        assert_eq!(res.perm.len(), a.n_rows());
        let bw = matrix_bandwidth(&a.permute_sym(&res.perm));
        assert!(
            bw < a.n_rows() / 2,
            "global-sort RCM should still help: {bw}"
        );
    }

    #[test]
    fn breakdown_phases_are_populated() {
        let a = grid_graph(12);
        let res = simulate(&a, &config_with_cores(9));
        for ph in Phase::ALL {
            let pair = res.breakdown.get(ph);
            assert!(pair.compute > 0.0 || pair.comm > 0.0, "{ph:?} empty");
        }
        assert!(res.peripheral_bfs >= 2);
        assert!(res.levels > 0);
        assert!((res.sim_seconds - res.breakdown.total()).abs() < 1e-12);
    }
}
