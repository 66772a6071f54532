//! [`SerialBackend`]: the Table-I primitives on sequential `rcm-sparse`
//! vectors — the *specification* backend every other one must match bit
//! for bit, and itself bit-identical to the classical George–Liu oracle of
//! [`crate::serial`] (the `(select2nd, min)` semiring and the
//! `(parent label, degree, vertex)` sort make the computation fully
//! deterministic).
//!
//! The backend's allocation lifecycle is split in two, the pattern every
//! backend follows since the engine refactor:
//!
//! * **construct** — [`SerialWorkspace::new`] allocates nothing; buffers
//!   grow to the first installed matrix and then only ever grow
//!   ([`SerialWorkspace::growth_events`] counts when).
//! * **install** — [`SerialBackend::warm`] binds a matrix to a workspace:
//!   the active prefixes of the dense companions are reset to unvisited and
//!   the degree vector recomputed, all without allocating when the matrix
//!   is no larger than any the workspace has seen.
//!
//! [`SerialBackend::finish`] hands the warm workspace back for the next
//! ordering; [`SerialBackend::new`] remains the one-shot convenience that
//! owns a fresh workspace.

use crate::driver::{DenseTarget, RcmRuntime};
use rcm_sparse::{
    counting_sortperm, dense_set, spmspv, spmspv_pull, CscMatrix, DenseFrontier, Label,
    Permutation, PullBuffer, Select2ndMin, SortpermScratch, SparseVec, SpmspvWorkspace,
    VertexBitmap, Vidx, UNVISITED,
};

/// The grow-only, reusable state of a [`SerialBackend`]: dense ordering and
/// level companions (each shadowed by an unvisited-vertex bitmap so the
/// pull kernel can skip fully visited 64-vertex words in one compare), the
/// degree vector, and the SpMSpV scratch (sparse accumulator + dense pull
/// frontier + warm pull output buffer + SORTPERM counting-sort scratch).
/// Keep one per session and thread it through successive orderings to
/// amortize every allocation.
pub struct SerialWorkspace {
    degrees: Vec<Vidx>,
    order: Vec<Label>,
    levels: Vec<Label>,
    /// Vertices with `order[v] == UNVISITED`, bit per vertex.
    unvisited_order: VertexBitmap,
    /// Vertices with `levels[v] == UNVISITED`, bit per vertex.
    unvisited_levels: VertexBitmap,
    spa: SpmspvWorkspace<Label>,
    pull: DenseFrontier<Label>,
    pull_buf: PullBuffer<Label>,
    sort_scratch: SortpermScratch,
    growth_events: usize,
}

impl Default for SerialWorkspace {
    fn default() -> Self {
        SerialWorkspace::new()
    }
}

impl SerialWorkspace {
    /// Empty workspace; buffers grow on first install.
    pub fn new() -> Self {
        SerialWorkspace {
            degrees: Vec::new(),
            order: Vec::new(),
            levels: Vec::new(),
            unvisited_order: VertexBitmap::new(0),
            unvisited_levels: VertexBitmap::new(0),
            spa: SpmspvWorkspace::new(0),
            pull: DenseFrontier::new(0),
            pull_buf: PullBuffer::new(),
            sort_scratch: SortpermScratch::new(),
            growth_events: 0,
        }
    }

    /// Times any buffer had to grow (the first install counts once). A
    /// warm workspace re-installed on matrices no larger than any it has
    /// seen reports a stable count.
    pub fn growth_events(&self) -> usize {
        self.growth_events
            + self.spa.growth_events()
            + self.pull_buf.growth_events()
            + self.sort_scratch.growth_events()
    }

    /// Bind an `n`-vertex matrix: recompute degrees, reset the active
    /// prefix of both dense companions, pre-grow the SpMSpV scratch.
    /// Grow-only — no allocation when `n` is within the high-water mark.
    fn install(&mut self, a: &CscMatrix) {
        let n = a.n_rows();
        let dense_grew = self.order.capacity() < n || self.degrees.capacity() < n;
        a.degrees_into(&mut self.degrees);
        if self.order.len() < n {
            self.order.resize(n, UNVISITED);
            self.levels.resize(n, UNVISITED);
        }
        self.order[..n].fill(UNVISITED);
        self.levels[..n].fill(UNVISITED);
        // `|` not `||`: both bitmaps must be re-bound even when the first
        // one reports growth.
        let bits_grew = self.unvisited_order.reset_ones(n) | self.unvisited_levels.reset_ones(n);
        if dense_grew || bits_grew {
            self.growth_events += 1;
        }
        self.spa.ensure(n);
        self.pull.ensure(n);
        // Pre-grow the shape-dependent scratch to its n-bounded ceiling so
        // growth stays monotone in the matrix size: a level's pull results
        // and SORTPERM entries are both ≤ n, but their per-level peaks do
        // not track n (a 200-vertex star has a fatter level than a bigger
        // grid), so without this a warm workspace could grow on a smaller
        // matrix.
        self.pull_buf.ensure(n);
        self.sort_scratch.ensure(n);
    }
}

/// Sequential reference backend over [`rcm_sparse`] containers.
pub struct SerialBackend<'a> {
    a: &'a CscMatrix,
    n: usize,
    ws: SerialWorkspace,
    spmspv_work: usize,
}

impl<'a> SerialBackend<'a> {
    /// One-shot backend over a square symmetric pattern matrix (a fresh
    /// workspace per call; use [`SerialBackend::warm`] to amortize).
    pub fn new(a: &'a CscMatrix) -> Self {
        SerialBackend::warm(a, SerialWorkspace::new())
    }

    /// Backend over `a` reusing a warm workspace from a previous ordering
    /// (the engine's install phase). Recover the workspace afterwards with
    /// [`SerialBackend::finish`].
    pub fn warm(a: &'a CscMatrix, mut ws: SerialWorkspace) -> Self {
        assert_eq!(a.n_rows(), a.n_cols(), "RCM needs a square matrix");
        ws.install(a);
        SerialBackend {
            a,
            n: a.n_rows(),
            ws,
            spmspv_work: 0,
        }
    }

    fn dense(&self, which: DenseTarget) -> &[Label] {
        match which {
            DenseTarget::Order => &self.ws.order[..self.n],
            DenseTarget::Levels => &self.ws.levels[..self.n],
        }
    }

    /// The raw Cuthill-McKee labels after [`crate::driver::drive_cm_with`].
    pub fn into_order(self) -> Vec<Label> {
        self.ws.order[..self.n].to_vec()
    }

    /// The (unreversed) Cuthill-McKee permutation after
    /// [`crate::driver::drive_cm_with`].
    pub fn into_cm_permutation(self) -> Permutation {
        self.finish().0
    }

    /// The (unreversed) Cuthill-McKee permutation plus the warm workspace,
    /// ready for the next install.
    pub fn finish(self) -> (Permutation, SerialWorkspace) {
        let new_of_old: Vec<Vidx> = self.ws.order[..self.n].iter().map(|&l| l as Vidx).collect();
        (
            Permutation::from_new_of_old(new_of_old).expect("labels form a bijection"),
            self.ws,
        )
    }
}

impl RcmRuntime for SerialBackend<'_> {
    type Frontier = SparseVec<Label>;

    fn n(&self) -> usize {
        self.n
    }

    fn singleton(&mut self, v: Vidx, value: Label) -> SparseVec<Label> {
        SparseVec::singleton(self.n, v, value)
    }

    fn is_nonempty(&mut self, x: &SparseVec<Label>) -> bool {
        !x.is_empty()
    }

    fn frontier_nnz(&mut self, x: &SparseVec<Label>) -> usize {
        x.nnz()
    }

    fn pull_profitable(&self) -> bool {
        // One core, no communication, no atomics: the SPA push is already
        // optimal and min-label pull cannot early-exit, so the adaptive
        // policy stays push-only here (forced pull still works and is what
        // the equivalence suite sweeps).
        false
    }

    fn append(&mut self, acc: &mut SparseVec<Label>, x: &SparseVec<Label>) {
        // The accumulator feeds only `sortperm`, which does a full tuple
        // sort — keeping it index-sorted here would be wasted work.
        acc.entries_mut().extend_from_slice(x.entries());
    }

    fn stamp(&mut self, x: &mut SparseVec<Label>, value: Label) {
        x.map_values(|_, _| value);
    }

    fn spmspv(&mut self, x: &SparseVec<Label>) -> SparseVec<Label> {
        let (y, work) = spmspv::<Label, Select2ndMin>(self.a, x, &mut self.ws.spa);
        self.spmspv_work += work;
        y
    }

    fn select_unvisited(&mut self, x: &SparseVec<Label>, which: DenseTarget) -> SparseVec<Label> {
        x.select(self.dense(which), |l| l == UNVISITED)
    }

    fn expand_pull(&mut self, x: &SparseVec<Label>, which: DenseTarget) -> SparseVec<Label> {
        // Sparse → dense conversion of the dual representation, then the
        // bitmap-masked row-scan kernel over the unvisited rows (all-visited
        // words cost one compare each) into the warm output buffer.
        let ws = &mut self.ws;
        ws.pull.load(x);
        let cands = match which {
            DenseTarget::Order => &ws.unvisited_order,
            DenseTarget::Levels => &ws.unvisited_levels,
        };
        self.spmspv_work +=
            spmspv_pull::<Label, Select2ndMin>(self.a, &ws.pull, cands, &mut ws.pull_buf);
        ws.pull_buf.to_sparse(self.n)
    }

    fn set_dense(&mut self, which: DenseTarget, x: &SparseVec<Label>) {
        // Only the active prefix of the warm (possibly longer) buffer; the
        // unvisited bitmap shadows every write.
        let ws = &mut self.ws;
        let (dense, bits) = match which {
            DenseTarget::Order => (&mut ws.order[..self.n], &mut ws.unvisited_order),
            DenseTarget::Levels => (&mut ws.levels[..self.n], &mut ws.unvisited_levels),
        };
        dense_set(dense, x);
        for &(v, value) in x.entries() {
            if value == UNVISITED {
                bits.insert(v);
            } else {
                bits.remove(v);
            }
        }
    }

    fn set_dense_at(&mut self, which: DenseTarget, v: Vidx, value: Label) {
        let ws = &mut self.ws;
        let (dense, bits) = match which {
            DenseTarget::Order => (&mut ws.order, &mut ws.unvisited_order),
            DenseTarget::Levels => (&mut ws.levels, &mut ws.unvisited_levels),
        };
        dense[v as usize] = value;
        if value == UNVISITED {
            bits.insert(v);
        } else {
            bits.remove(v);
        }
    }

    fn gather_values(&mut self, x: &mut SparseVec<Label>, which: DenseTarget) {
        match which {
            DenseTarget::Order => x.gather_from_dense(&self.ws.order[..self.n]),
            DenseTarget::Levels => x.gather_from_dense(&self.ws.levels[..self.n]),
        }
    }

    fn reset_levels(&mut self) {
        self.ws.levels[..self.n].fill(UNVISITED);
        self.ws.unvisited_levels.reset_ones(self.n);
    }

    fn sortperm(
        &mut self,
        x: &SparseVec<Label>,
        batch: (Label, Label),
        nv: Label,
    ) -> (SparseVec<Label>, usize) {
        // Parent labels fall in the previous level's half-open `batch`
        // range, so a two-pass counting sort keyed on the label replaces
        // the full (value, degree, vertex) tuple sort — bit-identical
        // because the per-bucket (degree, vertex) sort is the same
        // tie-break over unique vertex ids.
        let ws = &mut self.ws;
        let sorted = counting_sortperm(x.entries(), batch, &ws.degrees, &mut ws.sort_scratch);
        let count = sorted.len();
        let labeled: Vec<(Vidx, Label)> = sorted
            .iter()
            .enumerate()
            .map(|(k, &(_, v))| (v, nv + k as Label))
            .collect();
        (SparseVec::from_entries(self.n, labeled), count)
    }

    fn argmin_degree(&mut self, x: &SparseVec<Label>) -> Option<Vidx> {
        x.ind().min_by_key(|&w| (self.ws.degrees[w as usize], w))
    }

    fn find_unvisited_min_degree(&mut self) -> Option<Vidx> {
        // Iterate the unvisited bitmap instead of testing every label:
        // fully visited 64-vertex words cost one compare each, and the
        // ascending-index iteration keeps the tie-break identical.
        self.ws
            .unvisited_order
            .ones()
            .min_by_key(|&v| (self.ws.degrees[v as usize], v))
    }

    fn spmspv_work(&self) -> usize {
        self.spmspv_work
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::scrambled_grid;
    use crate::{serial, BackendKind, OrderingEngine, OrderingReport};
    use rcm_sparse::{matrix_bandwidth, CooBuilder, CscMatrix, Permutation, Vidx};

    /// `a` ordered by a fresh engine on the serial backend — the
    /// matrix-algebraic formulation (Algorithms 3 and 4).
    fn algebraic(a: &CscMatrix) -> OrderingReport {
        OrderingEngine::with_backend(BackendKind::Serial).order(a)
    }

    fn path(n: usize) -> CscMatrix {
        let mut b = CooBuilder::new(n, n);
        for v in 0..n - 1 {
            b.push_sym(v as Vidx, (v + 1) as Vidx);
        }
        b.build()
    }

    fn scrambled(a: &CscMatrix, stride: usize) -> CscMatrix {
        let n = a.n_rows();
        let perm: Vec<Vidx> = (0..n).map(|i| ((i * stride) % n) as Vidx).collect();
        a.permute_sym(&Permutation::from_new_of_old(perm).unwrap())
    }

    #[test]
    fn algebraic_equals_classical_on_path() {
        let a = scrambled(&path(40), 13);
        assert_eq!(algebraic(&a).perm, serial::rcm(&a));
    }

    #[test]
    fn algebraic_equals_classical_on_grid() {
        let a = scrambled_grid(9, 23);
        let report = algebraic(&a);
        assert_eq!(report.perm, serial::rcm(&a));
        assert_eq!(report.stats.components, 1);
        assert!(report.stats.spmspv_work > 0);
    }

    #[test]
    fn algebraic_handles_components() {
        let mut b = CooBuilder::new(7, 7);
        b.push_sym(0, 1);
        b.push_sym(2, 3);
        b.push_sym(3, 4);
        let a = b.build();
        let report = algebraic(&a);
        assert_eq!(report.perm.len(), 7);
        assert_eq!(report.stats.components, 4); // {0,1}, {2,3,4}, {5}, {6}
        assert_eq!(report.perm, serial::rcm(&a));
    }

    #[test]
    fn algebraic_rcm_reduces_bandwidth() {
        let a = scrambled(&path(60), 17);
        let p = algebraic(&a).perm;
        assert_eq!(matrix_bandwidth(&a.permute_sym(&p)), 1);
    }

    #[test]
    fn empty_matrix() {
        assert_eq!(algebraic(&CscMatrix::empty(0)).perm.len(), 0);
    }

    #[test]
    fn single_vertex() {
        let report = algebraic(&CscMatrix::empty(1));
        assert_eq!(report.perm.len(), 1);
        assert_eq!(report.stats.components, 1);
        assert_eq!(report.stats.levels, 0);
    }
}
