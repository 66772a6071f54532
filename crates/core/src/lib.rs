//! Reverse Cuthill-McKee orderings — sequential, shared-memory parallel, and
//! distributed-memory (the reproduction target: Azad, Jacquelin, Buluç, Ng,
//! *The Reverse Cuthill-McKee Algorithm in Distributed-Memory*, IPDPS 2017).
//!
//! There is one ordering pipeline and one way into it. [`driver::drive_cm_with`]
//! writes the pseudo-peripheral search, level-synchronous BFS, and labeling
//! `SORTPERM` once over the Table-I primitives trait [`driver::RcmRuntime`];
//! an [`OrderingEngine`] configured by an [`EngineConfig`] runs it on one of
//! four backends and reports the permutation with its [`DriverStats`]:
//!
//! | [`BackendKind`] | runtime | use case |
//! |---|---|---|
//! | `Serial` | sequential `rcm-sparse` vectors (Algorithms 3–4) | the distributed algorithm's specification |
//! | `Pooled { threads }` | work-stealing thread pool ([`pool`]) | SpMP-style baseline of Table II |
//! | `Dist { cores }` | 2D-decomposed simulated runtime, flat MPI | the paper's contribution (Figs. 4–5) |
//! | `Hybrid { cores, threads_per_proc }` | the same, MPI × OpenMP | Fig. 6 ([`EngineConfigBuilder::dist`]) |
//!
//! The classical George–Liu RCM of [`serial`] (Algorithm 1) stays as the
//! independent test oracle, and [`rcm`] is the convenience call for
//! single-machine use. All backends produce *identical* orderings (ties
//! broken by vertex id); the distributed ones match exactly whenever no
//! load-balance permutation is applied. This cross-backend equality is the
//! backbone of the test suite.
//!
//! ```
//! use rcm_core::{rcm, EngineConfig, OrderingEngine};
//! use rcm_sparse::CooBuilder;
//!
//! // A path graph with scrambled vertex numbering.
//! let mut b = CooBuilder::new(5, 5);
//! for (u, v) in [(0, 3), (3, 1), (1, 4), (4, 2)] {
//!     b.push_sym(u, v);
//! }
//! let a = b.build();
//! let perm = rcm(&a);
//! let reordered = a.permute_sym(&perm);
//! assert_eq!(rcm_sparse::matrix_bandwidth(&reordered), 1);
//!
//! // The same ordering from a warm engine, with its execution record.
//! let mut engine = OrderingEngine::new(EngineConfig::builder().threads(2).build());
//! let report = engine.order(&a);
//! assert_eq!(report.perm, perm);
//! assert_eq!(report.stats.components, 1);
//! ```

pub mod backends;
pub mod compress;
pub mod distributed;
pub mod driver;
pub mod engine;
pub mod peripheral;
pub mod pool;
pub mod quality;
pub mod serial;
pub mod service;
pub mod sloan;
pub mod unordered;

pub use backends::{DistBackend, HybridBackend, PooledBackend, SerialBackend, SerialWorkspace};
pub use compress::{find_supervariables, rcm_compressed, CompressStats};
pub use distributed::{DistRcmConfig, DistRcmResult, LevelStat, SortMode};
pub use driver::{
    drive_cm_with, BackendKind, DenseTarget, DriverStats, ExpandDirection, LabelingMode,
    PeripheralStat, RcmRuntime, StartNode, StartNodeStrategy, BI_CRITERIA_GAIN_DIV, PULL_ALPHA,
    PULL_BETA,
};
pub use engine::{
    CacheConfig, EngineConfig, EngineConfigBuilder, OrderingEngine, OrderingReport,
    DEFAULT_CACHE_NNZ,
};
pub use peripheral::{bfs_level_structure, pseudo_peripheral, LevelStructure, PseudoPeripheral};
pub use pool::{
    thread_counts_from_env, ChunkQueue, PoolConfig, PooledWorkspace, RcmPool, DEFAULT_CHUNK,
    DEFAULT_SEQ_CUTOFF,
};
pub use quality::{
    ordering_bandwidth, ordering_profile, ordering_wavefront, quality_report, OrderingQuality,
};
pub use serial::{cuthill_mckee, rcm_from_root};
pub use service::{
    CacheOutcome, CacheStats, CachedOrdering, JobHandle, OrderingRequest, OrderingService,
    PatternCache, ServiceConfig, ServiceStats,
};
pub use sloan::{sloan, sloan_with_weights, SloanWeights};
pub use unordered::{rcm_globalsort, rcm_nosort};

use rcm_sparse::{CscMatrix, Permutation};

/// Compute the Reverse Cuthill-McKee ordering of a symmetric pattern matrix
/// with the sequential George–Liu algorithm (the right default for
/// single-machine use).
pub fn rcm(a: &CscMatrix) -> Permutation {
    serial::rcm(a)
}

/// Shared test fixtures (one copy instead of one per test module).
#[cfg(test)]
pub(crate) mod testutil {
    use rcm_sparse::{CooBuilder, CscMatrix, Permutation, Vidx};

    /// A `w × w` 2D grid graph with its vertices scrambled by the affine
    /// map `i ↦ (i · stride) mod n` — the standard adversarial input of
    /// the cross-backend tests (a known-good topology under an ordering
    /// the algorithms must undo).
    pub(crate) fn scrambled_grid(w: usize, stride: usize) -> CscMatrix {
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
        let n = w * w;
        let perm: Vec<Vidx> = (0..n).map(|i| ((i * stride) % n) as Vidx).collect();
        b.build()
            .permute_sym(&Permutation::from_new_of_old(perm).unwrap())
    }
}
