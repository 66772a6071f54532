//! [`PooledBackend`]: the Table-I primitives on the work-stealing pool of
//! [`crate::pool`].
//!
//! The pool's three-phase level pipeline (dynamic expansion → epoch-stamped
//! `fetch_min` dedup → parallel per-parent bucket sort) *is* the semiring
//! SpMSpV fused with `SELECT` and the sort half of `SORTPERM`:
//! [`RcmRuntime::spmspv`] runs one [`LevelExecutor::expand`], whose output
//! is already restricted to unvisited vertices (the pool's unvisited
//! bitmap mirrors both dense companions) with minimum parent labels,
//! sorted by `(parent, degree, vertex)`. The trait's `SELECT` then re-filters (a
//! no-op pass that keeps the contract honest) and `SORTPERM` assigns
//! consecutive labels over the already-bucketed tuples.
//!
//! Lifecycle: construction is the *install* phase — the dense companions
//! live in the pool-owned [`PooledWorkspace`] (warm across orderings and
//! matrices; [`PooledBackend::new`] resets their active prefix, grow-only),
//! and the executor borrows the pool's persistent workers and arenas. One
//! `RcmPool` therefore serves any number of orderings with zero
//! steady-state growth of its install-managed buffers.
//!
//! Determinism: the pool's claim array converges to the same minima under
//! any interleaving, so every primitive returns the exact sequential value
//! for any thread count — the backend is bit-identical to
//! [`crate::backends::SerialBackend`].
//!
//! Contract note: when every frontier value is equal (BFS sweeps, level
//! stamps), the pool's expansion emits frontier *positions* as values
//! instead of the shared input value. The driver never observes them — it
//! stamps or re-gathers before the next read — and the result's *support*
//! (the semiring's select set) is always exact; frontiers mixing duplicate
//! and distinct values are rejected with a panic.

use crate::driver::{DenseTarget, RcmRuntime};
use crate::pool::{LevelExecutor, PooledWorkspace};
use rcm_dist::Phase;
use rcm_sparse::{counting_sortperm, Label, Permutation, Vidx, UNVISITED};

/// Work-stealing shared-memory backend over a borrowed [`LevelExecutor`]
/// and the pool-owned [`PooledWorkspace`] (construct inside
/// [`crate::pool::RcmPool::run`] / [`crate::pool::RcmPool::run_warm`]).
pub struct PooledBackend<'x, 's> {
    exec: &'x mut LevelExecutor<'s>,
    ws: &'x mut PooledWorkspace,
    n: usize,
    phase: Phase,
    parallel_levels: usize,
}

impl<'x, 's> PooledBackend<'x, 's> {
    /// Backend over the executor's installed matrix and the pool-owned
    /// workspace. The pool's install pass (inside
    /// [`crate::pool::RcmPool::run`]) has already grown the workspace and
    /// reset its dense companions to unvisited, so construction allocates
    /// nothing.
    pub fn new(exec: &'x mut LevelExecutor<'s>, ws: &'x mut PooledWorkspace) -> Self {
        let n = exec.n();
        PooledBackend {
            exec,
            ws,
            n,
            phase: Phase::OrderingOther,
            parallel_levels: 0,
        }
    }

    /// The raw CM labels plus the count of frontier expansions that ran
    /// through the parallel pipeline (the rest fell under the pool's
    /// sequential cutover).
    pub fn into_order(self) -> (Vec<Label>, usize) {
        (self.ws.order[..self.n].to_vec(), self.parallel_levels)
    }

    /// The (unreversed) Cuthill-McKee permutation after
    /// [`crate::driver::drive_cm_with`], plus the parallel-expansion count.
    pub fn into_cm_permutation(self) -> (Permutation, usize) {
        let new_of_old: Vec<Vidx> = self.ws.order[..self.n].iter().map(|&l| l as Vidx).collect();
        (
            Permutation::from_new_of_old(new_of_old).expect("labels form a bijection"),
            self.parallel_levels,
        )
    }

    fn dense(&self, which: DenseTarget) -> &[Label] {
        match which {
            DenseTarget::Order => &self.ws.order[..self.n],
            DenseTarget::Levels => &self.ws.levels[..self.n],
        }
    }

    /// Load `x` into the pool's frontier array and return the base label.
    ///
    /// When the stored values are the consecutive labels of the previous
    /// SORTPERM batch, position `k` of the pool frontier must hold the
    /// vertex labeled `base + k` so expansion emits true parent labels.
    /// Otherwise (BFS sweeps, level stamps: all values equal) positions are
    /// only dedup keys and entry order is used. A mix of duplicated and
    /// distinct values is outside this backend's contract — the occupancy
    /// check turns it into a loud panic instead of a silently corrupted
    /// frontier.
    fn load_frontier(&mut self, x: &[(Vidx, Label)]) -> Vidx {
        let min = x.iter().map(|&(_, v)| v).min().unwrap_or(0);
        let max = x.iter().map(|&(_, v)| v).max().unwrap_or(-1);
        let consecutive = !x.is_empty() && (max - min + 1) as usize == x.len();
        let base: Vidx = if consecutive { min as Vidx } else { 0 };
        self.exec.with_state(|_, frontier| {
            frontier.clear();
            if consecutive {
                frontier.resize(x.len(), Vidx::MAX);
                for &(v, value) in x {
                    frontier[(value - min) as usize] = v;
                }
                assert!(
                    !frontier.contains(&Vidx::MAX),
                    "PooledBackend frontier values must be all-equal or distinct \
                     consecutive labels"
                );
            } else {
                frontier.extend(x.iter().map(|&(v, _)| v));
            }
        });
        base
    }
}

impl RcmRuntime for PooledBackend<'_, '_> {
    /// `(vertex, value)` pairs; entry order is backend-private (the pool
    /// keeps its `(parent, degree, vertex)` bucket order).
    type Frontier = Vec<(Vidx, Label)>;

    fn n(&self) -> usize {
        self.n
    }

    fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    fn singleton(&mut self, v: Vidx, value: Label) -> Self::Frontier {
        vec![(v, value)]
    }

    fn is_nonempty(&mut self, x: &Self::Frontier) -> bool {
        !x.is_empty()
    }

    fn append(&mut self, acc: &mut Self::Frontier, x: &Self::Frontier) {
        acc.extend_from_slice(x);
    }

    fn stamp(&mut self, x: &mut Self::Frontier, value: Label) {
        for (_, v) in x.iter_mut() {
            *v = value;
        }
    }

    fn spmspv(&mut self, x: &Self::Frontier) -> Self::Frontier {
        let base = self.load_frontier(x);
        let parallel = self.exec.expand(base, &mut self.ws.cands);
        if parallel && self.phase == Phase::OrderingSpmspv {
            self.parallel_levels += 1;
        }
        self.ws
            .cands
            .iter()
            .map(|&(v, p, _)| (v, p as Label))
            .collect()
    }

    fn expand_pull(&mut self, x: &Self::Frontier, _which: DenseTarget) -> Self::Frontier {
        // The pool's unvisited bitmap mirrors both dense companions for the
        // vertices the current component can reach, so it *is* the pull
        // mask — the bottom-up pipeline already returns only unvisited
        // vertices, exactly what `SELECT` would keep.
        let base = self.load_frontier(x);
        let parallel = self.exec.expand_pull(base, &mut self.ws.cands);
        if parallel && self.phase == Phase::OrderingSpmspv {
            self.parallel_levels += 1;
        }
        self.ws
            .cands
            .iter()
            .map(|&(v, p, _)| (v, p as Label))
            .collect()
    }

    fn frontier_nnz(&mut self, x: &Self::Frontier) -> usize {
        x.len()
    }

    fn pull_profitable(&self) -> bool {
        // Pull's shared-memory payoff is skipping the per-edge atomic
        // `fetch_min` dedup, which only exists when workers actually run
        // concurrently.
        self.exec.nthreads() > 1
    }

    fn select_unvisited(&mut self, x: &Self::Frontier, which: DenseTarget) -> Self::Frontier {
        // The expansion already filtered against the pool's visited array
        // (which mirrors both companions), so this keeps everything — the
        // explicit filter documents and enforces the SELECT contract.
        let dense = self.dense(which);
        x.iter()
            .copied()
            .filter(|&(v, _)| dense[v as usize] == UNVISITED)
            .collect()
    }

    fn set_dense(&mut self, which: DenseTarget, x: &Self::Frontier) {
        match which {
            DenseTarget::Order => {
                for &(v, value) in x {
                    self.ws.order[v as usize] = value;
                }
            }
            DenseTarget::Levels => {
                for &(v, value) in x {
                    self.ws.levels[v as usize] = value;
                    self.ws.touched.push(v);
                }
            }
        }
        self.exec.with_state(|unvisited, _| {
            for &(v, _) in x {
                unvisited.remove(v);
            }
        });
    }

    fn set_dense_at(&mut self, which: DenseTarget, v: Vidx, value: Label) {
        match which {
            DenseTarget::Order => self.ws.order[v as usize] = value,
            DenseTarget::Levels => {
                self.ws.levels[v as usize] = value;
                self.ws.touched.push(v);
            }
        }
        self.exec.with_state(|unvisited, _| {
            unvisited.remove(v);
        });
    }

    fn gather_values(&mut self, x: &mut Self::Frontier, which: DenseTarget) {
        let dense = self.dense(which);
        for (v, value) in x.iter_mut() {
            *value = dense[*v as usize];
        }
    }

    fn reset_levels(&mut self) {
        // Undo the BFS marks (they all lie inside a not-yet-ordered
        // component, so unconditional unmarking is safe).
        for &v in &self.ws.touched {
            self.ws.levels[v as usize] = UNVISITED;
        }
        let touched = &self.ws.touched;
        self.exec.with_state(|unvisited, _| {
            for &v in touched {
                unvisited.insert(v);
            }
        });
        self.ws.touched.clear();
    }

    fn end_peripheral_search(&mut self) {
        // The BFS marks live in the shared unvisited bitmap the ordering
        // pass is about to own — roll them back.
        self.reset_levels();
    }

    fn sortperm(
        &mut self,
        x: &Self::Frontier,
        batch: (Label, Label),
        nv: Label,
    ) -> (Self::Frontier, usize) {
        // The pool already delivers (parent, degree, vertex) bucket order,
        // so this pass is a (cheap) verification sort for the general case
        // — a two-pass counting sort keyed on the batch's label range, like
        // the serial backend's.
        let degrees = self.exec.degrees();
        let sorted = counting_sortperm(x, batch, degrees, &mut self.ws.sort_scratch);
        let count = sorted.len();
        let labeled: Self::Frontier = sorted
            .iter()
            .enumerate()
            .map(|(k, &(_, v))| (v, nv + k as Label))
            .collect();
        (labeled, count)
    }

    fn argmin_degree(&mut self, x: &Self::Frontier) -> Option<Vidx> {
        let degrees = self.exec.degrees();
        x.iter()
            .map(|&(v, _)| v)
            .min_by_key(|&w| (degrees[w as usize], w))
    }

    fn find_unvisited_min_degree(&mut self) -> Option<Vidx> {
        let degrees = self.exec.degrees();
        (0..self.n)
            .filter(|&v| self.ws.order[v] == UNVISITED)
            .min_by_key(|&v| (degrees[v], v as Vidx))
            .map(|v| v as Vidx)
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::pooled_cm_raw;
    use crate::pool::{thread_counts_from_env, PoolConfig, RcmPool};
    use crate::testutil::scrambled_grid;
    use crate::{serial, EngineConfig, OrderingEngine, OrderingReport};
    use rcm_sparse::{CooBuilder, CscMatrix, Vidx};

    /// `a` ordered by a fresh pooled engine at `threads` workers, under the
    /// environment's direction and start-node overrides.
    fn pooled(a: &CscMatrix, threads: usize) -> OrderingReport {
        OrderingEngine::new(EngineConfig::from_env().threads(threads).build()).order(a)
    }

    #[test]
    fn matches_serial_for_any_thread_count() {
        let a = scrambled_grid(13, 23);
        let expect = serial::rcm(&a);
        for t in thread_counts_from_env(&[1, 2, 3, 4, 8]) {
            assert_eq!(pooled(&a, t).perm, expect, "{t} threads diverged");
        }
    }

    /// Caterpillar: `hubs` path-connected hub vertices, each with `leaves`
    /// pendant vertices. Every interior BFS level holds `leaves + 1`
    /// vertices, safely above [`crate::pool::DEFAULT_SEQ_CUTOFF`].
    fn wide_level_graph(hubs: usize, leaves: usize) -> CscMatrix {
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
        b.build()
    }

    #[test]
    fn matches_serial_above_the_cutover() {
        let a = wide_level_graph(10, 300);
        let expect = serial::rcm(&a);
        for t in thread_counts_from_env(&[2, 5, 8]) {
            let report = pooled(&a, t);
            assert_eq!(report.perm, expect, "{t} threads diverged");
            if t > 1 {
                assert!(
                    report.parallel_levels > 0,
                    "{t} threads never took the parallel path"
                );
            }
        }
    }

    #[test]
    fn cutover_threshold_is_configurable() {
        // With seq_cutoff = 1 even tiny frontiers go parallel; the answer
        // must not change.
        let a = scrambled_grid(9, 7);
        let mut pool = RcmPool::new(PoolConfig {
            nthreads: 3,
            seq_cutoff: 1,
            chunk: 2,
        });
        let config = EngineConfig::from_env().build();
        let (cm, stats, parallel_levels) =
            pooled_cm_raw(&a, &mut pool, config.direction, config.start_node);
        assert_eq!(cm, serial::cuthill_mckee(&a));
        // Every ordering expansion goes parallel: one per level plus each
        // component's final empty expansion.
        assert_eq!(parallel_levels, stats.levels + stats.components);
    }

    #[test]
    fn large_frontier_takes_threaded_path() {
        // A star graph has one giant level — forces the parallel branch.
        let n = 2000;
        let mut b = CooBuilder::new(n, n);
        for v in 1..n {
            b.push_sym(0, v as Vidx);
        }
        let a = b.build();
        let report = pooled(&a, 4);
        assert_eq!(report.perm.len(), n);
        assert_eq!(report.stats.components, 1);
        assert!(
            report.parallel_levels > 0,
            "star level must run in parallel"
        );
        assert_eq!(report.perm, serial::rcm(&a));
    }

    #[test]
    fn components_counted() {
        let mut b = CooBuilder::new(6, 6);
        b.push_sym(0, 1);
        b.push_sym(2, 3);
        let a = b.build();
        let report = pooled(&a, 2);
        assert_eq!(report.perm.len(), 6);
        assert_eq!(report.stats.components, 4);
    }

    #[test]
    fn duplicate_candidates_keep_min_parent() {
        // Diamond: 0-1, 0-2, 1-3, 2-3. From root 0, vertex 3 is reachable
        // from both 1 and 2; it must attach to the smaller label.
        let mut b = CooBuilder::new(4, 4);
        b.push_sym(0, 1);
        b.push_sym(0, 2);
        b.push_sym(1, 3);
        b.push_sym(2, 3);
        let a = b.build();
        assert_eq!(pooled(&a, 2).perm, serial::rcm(&a));
    }

    #[test]
    fn pool_reuse_across_matrices_is_clean() {
        let mut engine = OrderingEngine::new(EngineConfig::from_env().threads(4).build());
        for (w, stride) in [(20usize, 13usize), (31, 17), (12, 7)] {
            let a = scrambled_grid(w, stride);
            assert_eq!(
                engine.order(&a).perm,
                serial::rcm(&a),
                "{w}x{w} grid diverged"
            );
        }
    }
}
