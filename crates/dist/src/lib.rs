//! Simulated distributed-memory runtime for the RCM reproduction.
//!
//! The paper (Azad, Jacquelin, Buluç, Ng — *The Reverse Cuthill-McKee
//! Algorithm in Distributed-Memory*, IPDPS 2017) runs RCM on a `√p′ × √p′`
//! process grid through a handful of matrix-algebraic primitives (Table I).
//! This crate provides that runtime as a deterministic *simulation*: one
//! process executes the exact distributed data path (2D-blocked matrix,
//! block-distributed vectors, semiring SpMSpV, distributed bucket sort)
//! while a [`SimClock`] charges every step the α–β cost it would incur on a
//! real machine, split per [`Phase`] of the Fig. 4 taxonomy.
//!
//! Layering:
//!
//! * [`mod@grid`] — [`ProcGrid`], [`HybridConfig`], the balanced
//!   [`block_range`]/[`block_index`] decomposition, and the paper's core
//!   -count sweeps ([`PAPER_HYBRID_CORES`], [`PAPER_FLAT_CORES`]).
//! * [`mod@machine`] — [`MachineModel`] (incl. [`MachineModel::edison`])
//!   with collective cost formulas and the hybrid thread speedup.
//! * [`mod@clock`] — [`SimClock`], [`Phase`], [`PhaseCost`], [`Breakdown`].
//! * [`mod@vec`] / [`mod@matrix`] — [`VecLayout`], [`DistDenseVec`],
//!   [`DistSparseVec`], [`DistCscMatrix`] (with the §IV-A load-balance
//!   relabeling).
//! * [`mod@primitives`] / [`mod@sortperm`] — the Table-I operations:
//!   [`dist_spmspv`], [`dist_select`], [`dist_set`], [`dist_gather_values`],
//!   [`dist_argmin`], [`dist_is_nonempty`],
//!   [`dist_find_unvisited_min_degree`], and the two `SORTPERM`s
//!   ([`dist_sortperm`], [`dist_sortperm_samplesort`]).
//!
//! This crate supplies *primitives only*: the BFS, pseudo-peripheral and
//! labeling drivers that compose them live once in `rcm-core`'s generic
//! driver (`rcm_core::driver::drive_cm_with`), which runs on this runtime
//! through its `DistBackend`/`HybridBackend`.
//!
//! Determinism contract: all primitives produce exactly the values their
//! sequential specifications produce, for every grid size — `rcm-core`'s
//! `DistBackend`/`HybridBackend` rely on this to match its serial backend
//! bit for bit whenever no balance permutation is applied.
//!
//! ```
//! use rcm_dist::{
//!     dist_spmspv, DistCscMatrix, DistSparseVec, DistSpmspvWorkspace, MachineModel, ProcGrid,
//!     SimClock,
//! };
//! use rcm_sparse::{CooBuilder, Select2ndMin};
//!
//! let mut b = CooBuilder::new(4, 4);
//! for v in 0..3 {
//!     b.push_sym(v, v + 1);
//! }
//! let a = DistCscMatrix::from_global(ProcGrid::square(4).unwrap(), &b.build(), None);
//! let x = DistSparseVec::singleton(a.layout().clone(), 0, 0i64);
//! let mut clock = SimClock::new(MachineModel::edison(), 1);
//! let mut ws = DistSpmspvWorkspace::new();
//! let y = dist_spmspv::<i64, Select2ndMin>(&a, &x, &mut ws, &mut clock);
//! assert_eq!(y.iter_entries().collect::<Vec<_>>(), vec![(1, 0)]);
//! assert!(clock.now() > 0.0);
//! ```

pub mod clock;
pub mod grid;
pub mod machine;
pub mod matrix;
pub mod primitives;
pub mod sortperm;
pub mod vec;

pub use clock::{Breakdown, Phase, PhaseCost, SimClock};
pub use grid::{
    block_index, block_range, HybridConfig, ProcGrid, PAPER_FLAT_CORES, PAPER_HYBRID_CORES,
};
pub use machine::MachineModel;
pub use matrix::DistCscMatrix;
pub use primitives::{
    dist_argmin, dist_find_unvisited_min_degree, dist_gather_values, dist_is_nonempty, dist_select,
    dist_set, dist_spmspv, dist_spmspv_pull, DistSpmspvWorkspace,
};
pub use sortperm::{dist_sortperm, dist_sortperm_samplesort};
pub use vec::{DistDenseVec, DistSparseVec, VecLayout};
