//! The four [`RcmRuntime`](crate::driver::RcmRuntime) implementations.
//!
//! | backend | Table-I primitives supplied by | cost accounting |
//! |---|---|---|
//! | [`SerialBackend`] | sequential `rcm-sparse` SpMSpV/sort | none |
//! | [`PooledBackend`] | the work-stealing pool of [`crate::pool`] | none |
//! | [`DistBackend`] | `rcm-dist` distributed primitives | [`rcm_dist::SimClock`] (flat MPI) |
//! | [`HybridBackend`] | [`DistBackend`] | compute divided by [`rcm_dist::MachineModel::thread_speedup`] |
//!
//! Every backend executes the identical generic driver
//! ([`crate::driver::drive_cm_with`]) and produces the bit-identical
//! permutation; only the execution substrate and the modeled cost differ.

mod dist;
mod hybrid;
mod pooled;
pub(crate) mod serial;

pub use dist::DistBackend;
pub use hybrid::HybridBackend;
pub use pooled::PooledBackend;
pub use serial::{SerialBackend, SerialWorkspace};
