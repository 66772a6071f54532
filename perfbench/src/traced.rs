//! A tracing decorator over the public `RcmRuntime` trait, and traced
//! drives of the serial, pooled and hybrid backends.
//!
//! [`Traced`] forwards every trait method, the defaulted ones included, to
//! the wrapped backend. It charges the wall time between `set_phase` calls
//! to the phase that was current (the Fig. 4 breakdown, measured instead of
//! modelled) and times every primitive call. The drives below return the
//! permutation and `DriverStats` so the caller can assert they equal the
//! untraced engine's.

use rcm_core::driver::{DenseTarget, DriverStats, RcmRuntime};
use rcm_core::pool::{PoolConfig, RcmPool};
use rcm_core::{
    drive_cm_with, DistRcmConfig, DistRcmResult, ExpandDirection, HybridBackend, LabelingMode,
    PooledBackend, SerialBackend, StartNode,
};
use rcm_dist::Phase;
use rcm_sparse::{CscMatrix, Label, Permutation, Vidx};
use std::time::Instant;

/// Primitive names, in the order of [`Traced::calls`].
pub const PRIMITIVES: [&str; 16] = [
    "singleton",
    "is_nonempty",
    "frontier_nnz",
    "append",
    "stamp",
    "spmspv",
    "select_unvisited",
    "expand_pull",
    "set_dense",
    "set_dense_at",
    "gather_values",
    "reset_levels",
    "end_peripheral_search",
    "sortperm",
    "argmin_degree",
    "find_unvisited_min_degree",
];

const SPMSPV: usize = 5;
const EXPAND_PULL: usize = 7;
const SORTPERM: usize = 13;

fn phase_index(p: Phase) -> usize {
    Phase::ALL.iter().position(|&q| q == p).unwrap_or(0)
}

/// Per-phase and per-primitive wall time of one traced drive.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Nanoseconds spent in each of the five Fig. 4 phases
    /// ([`Phase::ALL`] order).
    pub phase_ns: [u64; 5],
    /// `(calls, nanoseconds)` per primitive ([`PRIMITIVES`] order).
    pub calls: [(u64, u64); 16],
    /// Vertices labeled by all `sortperm` calls.
    pub sorted_vertices: u64,
}

impl Trace {
    pub fn phase_ms(&self, p: Phase) -> f64 {
        self.phase_ns[phase_index(p)] as f64 / 1e6
    }

    pub fn total_ms(&self) -> f64 {
        self.phase_ns.iter().sum::<u64>() as f64 / 1e6
    }

    /// Nanoseconds in frontier expansion (push SpMSpV plus pull).
    pub fn expand_ns(&self) -> u64 {
        self.calls[SPMSPV].1 + self.calls[EXPAND_PULL].1
    }

    pub fn sortperm_ns(&self) -> u64 {
        self.calls[SORTPERM].1
    }
}

/// The decorator. `R` is any backend; `Traced<R>` is one too.
pub struct Traced<R> {
    inner: R,
    phase: Phase,
    mark: Instant,
    trace: Trace,
}

impl<R: RcmRuntime> Traced<R> {
    pub fn new(inner: R) -> Self {
        Traced {
            inner,
            phase: Phase::PeripheralOther,
            mark: Instant::now(),
            trace: Trace::default(),
        }
    }

    fn close_interval(&mut self) {
        let now = Instant::now();
        self.trace.phase_ns[phase_index(self.phase)] += (now - self.mark).as_nanos() as u64;
        self.mark = now;
    }

    /// The wrapped backend and the trace, with the open phase interval
    /// closed.
    pub fn finish(mut self) -> (R, Trace) {
        self.close_interval();
        (self.inner, self.trace)
    }

    fn timed<T>(&mut self, which: usize, f: impl FnOnce(&mut R) -> T) -> T {
        let t = Instant::now();
        let out = f(&mut self.inner);
        let slot = &mut self.trace.calls[which];
        slot.0 += 1;
        slot.1 += t.elapsed().as_nanos() as u64;
        out
    }
}

impl<R: RcmRuntime> RcmRuntime for Traced<R> {
    type Frontier = R::Frontier;

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn set_phase(&mut self, phase: Phase) {
        if phase != self.phase {
            self.close_interval();
            self.phase = phase;
        }
        self.inner.set_phase(phase);
    }

    fn now(&self) -> f64 {
        self.inner.now()
    }

    fn singleton(&mut self, v: Vidx, value: Label) -> Self::Frontier {
        self.timed(0, |r| r.singleton(v, value))
    }

    fn is_nonempty(&mut self, x: &Self::Frontier) -> bool {
        self.timed(1, |r| r.is_nonempty(x))
    }

    fn frontier_nnz(&mut self, x: &Self::Frontier) -> usize {
        self.timed(2, |r| r.frontier_nnz(x))
    }

    fn pull_profitable(&self) -> bool {
        self.inner.pull_profitable()
    }

    fn append(&mut self, acc: &mut Self::Frontier, x: &Self::Frontier) {
        self.timed(3, |r| r.append(acc, x))
    }

    fn stamp(&mut self, x: &mut Self::Frontier, value: Label) {
        self.timed(4, |r| r.stamp(x, value))
    }

    fn spmspv(&mut self, x: &Self::Frontier) -> Self::Frontier {
        self.timed(SPMSPV, |r| r.spmspv(x))
    }

    fn select_unvisited(&mut self, x: &Self::Frontier, which: DenseTarget) -> Self::Frontier {
        self.timed(6, |r| r.select_unvisited(x, which))
    }

    fn expand_pull(&mut self, x: &Self::Frontier, which: DenseTarget) -> Self::Frontier {
        self.timed(EXPAND_PULL, |r| r.expand_pull(x, which))
    }

    fn set_dense(&mut self, which: DenseTarget, x: &Self::Frontier) {
        self.timed(8, |r| r.set_dense(which, x))
    }

    fn set_dense_at(&mut self, which: DenseTarget, v: Vidx, value: Label) {
        self.timed(9, |r| r.set_dense_at(which, v, value))
    }

    fn gather_values(&mut self, x: &mut Self::Frontier, which: DenseTarget) {
        self.timed(10, |r| r.gather_values(x, which))
    }

    fn reset_levels(&mut self) {
        self.timed(11, |r| r.reset_levels())
    }

    fn end_peripheral_search(&mut self) {
        self.timed(12, |r| r.end_peripheral_search())
    }

    fn sortperm(
        &mut self,
        x: &Self::Frontier,
        batch: (Label, Label),
        nv: Label,
    ) -> (Self::Frontier, usize) {
        let out = self.timed(SORTPERM, |r| r.sortperm(x, batch, nv));
        self.trace.sorted_vertices += out.1 as u64;
        out
    }

    fn argmin_degree(&mut self, x: &Self::Frontier) -> Option<Vidx> {
        self.timed(14, |r| r.argmin_degree(x))
    }

    fn find_unvisited_min_degree(&mut self) -> Option<Vidx> {
        self.timed(15, |r| r.find_unvisited_min_degree())
    }

    fn spmspv_work(&self) -> usize {
        self.inner.spmspv_work()
    }
}

/// One traced ordering: the RCM permutation, the driver's statistics, the
/// trace, and the wall time of install, drive and extraction.
pub struct TracedRun {
    pub perm: Permutation,
    pub stats: DriverStats,
    pub trace: Trace,
    pub install_ms: f64,
    pub drive_ms: f64,
    pub extract_ms: f64,
    /// The simulated result on the hybrid backend.
    pub sim: Option<DistRcmResult>,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn drive<R: RcmRuntime>(
    rt: R,
    direction: ExpandDirection,
    start: StartNode,
) -> (R, DriverStats, Trace, f64) {
    let t = Instant::now();
    let mut traced = Traced::new(rt);
    let stats = drive_cm_with(&mut traced, LabelingMode::PerLevel, direction, &start);
    let (rt, trace) = traced.finish();
    (rt, stats, trace, ms_since(t))
}

/// Traced drive on a fresh [`SerialBackend`].
pub fn serial(a: &CscMatrix, direction: ExpandDirection, start: StartNode) -> TracedRun {
    let t = Instant::now();
    let rt = SerialBackend::new(a);
    let install_ms = ms_since(t);
    let (rt, stats, trace, drive_ms) = drive(rt, direction, start);
    let t = Instant::now();
    let perm = rt.into_cm_permutation().reversed();
    TracedRun {
        perm,
        stats,
        trace,
        install_ms,
        drive_ms,
        extract_ms: ms_since(t),
        sim: None,
    }
}

/// Traced drive on a [`PooledBackend`] over `pool`'s warm workers.
pub fn pooled(
    a: &CscMatrix,
    pool: &mut RcmPool,
    direction: ExpandDirection,
    start: StartNode,
) -> TracedRun {
    let t = Instant::now();
    pool.run_warm(a, |exec, ws| {
        let rt = PooledBackend::new(exec, ws);
        let install_ms = ms_since(t);
        let (rt, stats, trace, drive_ms) = drive(rt, direction, start);
        let t = Instant::now();
        let (cm, _) = rt.into_cm_permutation();
        TracedRun {
            perm: cm.reversed(),
            stats,
            trace,
            install_ms,
            drive_ms,
            extract_ms: ms_since(t),
            sim: None,
        }
    })
}

/// A pool of `threads` workers for [`pooled`].
pub fn pool(threads: usize) -> RcmPool {
    RcmPool::new(PoolConfig::new(threads))
}

/// Traced drive on a fresh [`HybridBackend`] (the 2D decomposition is
/// part of its install).
pub fn hybrid(a: &CscMatrix, config: &DistRcmConfig) -> TracedRun {
    let t = Instant::now();
    let rt = HybridBackend::new(a, config);
    let install_ms = ms_since(t);
    let (rt, stats, trace, drive_ms) = drive(rt, config.direction, config.start_node);
    let t = Instant::now();
    let result = rt.into_result(stats.clone());
    TracedRun {
        perm: result.perm.clone(),
        stats,
        trace,
        install_ms,
        drive_ms,
        extract_ms: ms_since(t),
        sim: Some(result),
    }
}

/// The driver counts that must not change under tracing. `spmspv_work` is
/// compared only where both sides track it.
pub fn same_counts(traced: &DriverStats, engine: &DriverStats) -> bool {
    let work_ok = traced.spmspv_work == 0
        || engine.spmspv_work == 0
        || traced.spmspv_work == engine.spmspv_work;
    work_ok
        && traced.components == engine.components
        && traced.peripheral_bfs == engine.peripheral_bfs
        && traced.levels == engine.levels
        && traced.push_expands == engine.push_expands
        && traced.pull_expands == engine.pull_expands
        && traced.peripheral_stats == engine.peripheral_stats
        && traced.level_stats.len() == engine.level_stats.len()
        && traced
            .level_stats
            .iter()
            .zip(&engine.level_stats)
            .all(|(x, y)| x.frontier == y.frontier && x.direction == y.direction)
}
