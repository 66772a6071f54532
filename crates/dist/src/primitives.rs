//! The paper's Table-I primitives over distributed containers.
//!
//! Each primitive computes the *exact* sequential result (the simulation is
//! data-deterministic: `rcm-core`'s distributed backends must reproduce its
//! serial backend bit for bit) while charging the [`SimClock`] the α–β cost the operation would
//! incur on a real 2D-decomposed run:
//!
//! * compute = **max over ranks** of local work (that is what wall-clock
//!   time follows on an SPMD machine),
//! * communication = latency + bandwidth terms of the collectives the
//!   CombBLAS formulation uses (§IV-A), charged only when `p′ > 1`.

use crate::clock::SimClock;
use crate::matrix::DistCscMatrix;
use crate::vec::{DistDenseVec, DistSparseVec};
use rcm_sparse::{Label, Semiring, VertexBitmap, Vidx, UNVISITED};

/// Bytes of one `(index, value)` pair on the wire.
const ENTRY_BYTES: u64 = 16;

/// Bytes per vertex of the dense frontier-label array the pull expansion
/// allgathers (one `Label` per vertex, no index — the position is the
/// index).
const DENSE_LABEL_BYTES: u64 = 8;

/// Reusable scratch for [`dist_spmspv`] — the distributed mirror of
/// `rcm_sparse::SpmspvWorkspace`: a stamped dense accumulator (values +
/// epoch stamps, so no `O(n)` clearing between calls), the thin-frontier
/// product buffer, and the per-block cost tallies. Own one per BFS/RCM
/// driver and reuse it across iterations; after warm-up a call performs no
/// heap allocation on the dense-accumulator path.
pub struct DistSpmspvWorkspace<T> {
    values: Vec<T>,
    stamp: Vec<u32>,
    epoch: u32,
    touched: Vec<Vidx>,
    products: Vec<(Vidx, T)>,
    block_work: Vec<usize>,
    col_frontier: Vec<usize>,
    row_result: Vec<usize>,
    growth_events: usize,
}

impl<T: Copy + Default> DistSpmspvWorkspace<T> {
    /// Empty workspace; buffers grow to the first call's sizes.
    pub fn new() -> Self {
        DistSpmspvWorkspace {
            values: Vec::new(),
            stamp: Vec::new(),
            epoch: 0,
            touched: Vec::new(),
            products: Vec::new(),
            block_work: Vec::new(),
            col_frontier: Vec::new(),
            row_result: Vec::new(),
            growth_events: 0,
        }
    }

    /// Times any buffer had to grow (first use counts once). A driver that
    /// reuses its workspace across a whole BFS sees exactly one event.
    pub fn growth_events(&self) -> usize {
        self.growth_events
    }

    /// Grow (never shrink) to a matrix with `n` rows on a `pr × pr` grid.
    fn ensure(&mut self, n: usize, pr: usize) {
        let mut grew = false;
        if self.values.len() < n {
            self.values.resize(n, T::default());
            self.stamp.resize(n, 0);
            grew = true;
        }
        if self.block_work.len() < pr * pr {
            self.block_work.resize(pr * pr, 0);
            grew = true;
        }
        if self.col_frontier.len() < pr {
            self.col_frontier.resize(pr, 0);
            self.row_result.resize(pr, 0);
            grew = true;
        }
        if grew {
            self.growth_events += 1;
        }
    }

    /// Start a call: bump the stamp epoch and zero the per-call tallies.
    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrapped around: reset to keep correctness.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.touched.clear();
        self.products.clear();
        self.block_work.fill(0);
        self.col_frontier.fill(0);
        self.row_result.fill(0);
    }
}

impl<T: Copy + Default> Default for DistSpmspvWorkspace<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// `SPMSPV(A, x, SR)`: sparse matrix–sparse vector product over semiring
/// `S` on the 2D-decomposed matrix, accumulating through `ws`.
///
/// Communication pattern (§IV-A): frontier entries are gathered along
/// process columns, block-local products computed, and partial results
/// merged along process rows, then scattered to the vector owners. Compute
/// is the maximum per-block traversal work.
pub fn dist_spmspv<T, S>(
    a: &DistCscMatrix,
    x: &DistSparseVec<T>,
    ws: &mut DistSpmspvWorkspace<T>,
    clock: &mut SimClock,
) -> DistSparseVec<T>
where
    T: Copy + Default,
    S: Semiring<T>,
{
    let layout = a.layout();
    assert_eq!(*layout, x.layout, "SpMSpV: layout mismatch");
    let n = layout.len();
    let pr = a.grid().pr;
    let p = layout.nprocs();
    ws.ensure(n, pr);
    ws.begin();

    // --- data + per-block work tally -----------------------------------
    // Thin frontiers (the common case on high-diameter matrices: one BFS
    // level touches few vertices) use a sort-merge accumulator whose cost
    // follows the traversed work; fat frontiers amortize the stamped dense
    // accumulator. Either way the semiring's associative/commutative `add`
    // makes the result independent of merge order.
    let dense = n > 0 && x.total_nnz() >= n / 64;
    for (g, xv) in x.iter_entries() {
        let jc = a.strip_of(g);
        ws.col_frontier[jc] += 1;
        let lc = g as usize - a.strip_start(jc);
        let prod = S::multiply(xv);
        for ir in 0..pr {
            let col = a.block(ir, jc).col(lc);
            if col.is_empty() {
                continue;
            }
            ws.block_work[ir * pr + jc] += col.len();
            let r0 = a.strip_start(ir) as Vidx;
            for &lr in col {
                let r = (r0 + lr) as usize;
                if dense {
                    if ws.stamp[r] == ws.epoch {
                        ws.values[r] = S::add(ws.values[r], prod);
                    } else {
                        ws.stamp[r] = ws.epoch;
                        ws.values[r] = prod;
                        ws.touched.push(r as Vidx);
                    }
                } else {
                    ws.products.push((r as Vidx, prod));
                }
            }
        }
    }

    let mut out = DistSparseVec::empty(layout.clone());
    if dense {
        ws.touched.sort_unstable();
        for &g in &ws.touched {
            out.parts[layout.owner(g)].push((g, ws.values[g as usize]));
            ws.row_result[a.strip_of(g)] += 1;
        }
    } else {
        ws.products.sort_unstable_by_key(|&(g, _)| g);
        let mut it = ws.products.iter().copied().peekable();
        while let Some((g, mut v)) = it.next() {
            while let Some(&(g2, v2)) = it.peek() {
                if g2 != g {
                    break;
                }
                v = S::add(v, v2);
                it.next();
            }
            out.parts[layout.owner(g)].push((g, v));
            ws.row_result[a.strip_of(g)] += 1;
        }
    }

    // --- cost -----------------------------------------------------------
    let max_block_work = ws.block_work.iter().copied().max().unwrap_or(0);
    clock.charge_edges(max_block_work);
    if p > 1 {
        let machine = *clock.machine();
        let max_frontier = ws.col_frontier.iter().copied().max().unwrap_or(0) as u64;
        let max_result = ws.row_result.iter().copied().max().unwrap_or(0) as u64;
        // Gather x along columns, reduce partials along rows, scatter to
        // vector owners (folded into the reduce volume).
        let t = machine.t_tree(pr, ENTRY_BYTES * max_frontier)
            + machine.t_tree(pr, ENTRY_BYTES * max_result);
        clock.charge_comm(t, 2 * p as u64, ENTRY_BYTES * (max_frontier + max_result));
    }
    out
}

/// Pull (bottom-up) expansion fused with `SELECT`: for every candidate row
/// `g` (a set bit in `cands`), the semiring-sum of `S::multiply(x[w])` over
/// `g`'s frontier neighbours — the direction-optimizing dual of
/// [`dist_spmspv`] for symmetric patterns.
///
/// **Data path.** Bit-identical to
/// `dist_select(dist_spmspv(a, x), mask, pred)` when `cands` holds exactly
/// the rows the mask would keep: for a symmetric `A`, scanning the column
/// `A(:, g)` enumerates exactly the frontier columns whose push expansion
/// reaches `g`, and the semiring's associative/commutative `add` makes the
/// merge order irrelevant.
///
/// **Cost model.** The communication is the Beamer-style trade: instead of
/// shipping `(index, value)` pairs proportional to the frontier
/// ([`dist_spmspv`]'s gather/reduce trees), every process column
/// **allgathers the dense frontier-label array** for its strip and the
/// partial row minima are reduced densely — volume `Θ(n/√p′)`
/// (`DENSE_LABEL_BYTES = 8` per vertex) *independent of `nnz(x)`*, which wins
/// exactly when the frontier is a large fraction of the matrix. Compute is
/// the max over blocks of the scanned candidate-row adjacencies, charged at
/// the *streaming* element rate (`elem_cost`) rather than the irregular
/// edge rate: the pull scan reads each candidate row's adjacency
/// sequentially and probes a dense array, with none of push's scattered
/// accumulator writes. The candidate sweep itself is a 64-way word scan of
/// the unvisited bitmap (`⌈n/p′/64⌉` words per rank), so a fully visited
/// word costs one compare instead of 64 dense-label loads — the shared-
/// memory kernels' trick, reflected here in the `div_ceil(64)` term.
pub fn dist_spmspv_pull<T, S>(
    a: &DistCscMatrix,
    x: &DistSparseVec<T>,
    cands: &VertexBitmap,
    ws: &mut DistSpmspvWorkspace<T>,
    clock: &mut SimClock,
) -> DistSparseVec<T>
where
    T: Copy + Default,
    S: Semiring<T>,
{
    let layout = a.layout();
    assert_eq!(*layout, x.layout, "pull SpMSpV: frontier layout mismatch");
    let n = layout.len();
    assert!(
        cands.len() >= n,
        "pull SpMSpV: candidate bitmap shorter than the matrix"
    );
    let pr = a.grid().pr;
    let p = layout.nprocs();
    ws.ensure(n, pr);
    ws.begin();

    // --- scatter the frontier into the (allgathered) dense label array ---
    for (g, xv) in x.iter_entries() {
        let gi = g as usize;
        ws.stamp[gi] = ws.epoch;
        ws.values[gi] = xv;
    }

    // --- candidate row scan, per vector owner -----------------------------
    let mut out = DistSparseVec::empty(layout.clone());
    for rank in 0..p {
        let (s, e) = layout.local_range(rank);
        for g in cands.ones_in(s..e.min(n)) {
            let g = g as usize;
            // Column A(:, g) = row g's neighbours (symmetric pattern),
            // spread over the pr blocks of column strip jc.
            let jc = a.strip_of(g as Vidx);
            let lc = g - a.strip_start(jc);
            let mut acc = S::identity();
            let mut found = false;
            for ir in 0..pr {
                let col = a.block(ir, jc).col(lc);
                if col.is_empty() {
                    continue;
                }
                ws.block_work[ir * pr + jc] += col.len();
                let r0 = a.strip_start(ir);
                for &lr in col {
                    let w = r0 + lr as usize;
                    if ws.stamp[w] == ws.epoch {
                        acc = S::add(acc, S::multiply(ws.values[w]));
                        found = true;
                    }
                }
            }
            if found {
                out.parts[rank].push((g as Vidx, acc));
            }
        }
    }

    // --- cost -------------------------------------------------------------
    let max_block_work = ws.block_work.iter().copied().max().unwrap_or(0);
    // Streaming candidate-row scans plus the word-level bitmap sweep.
    clock.charge_elems(max_block_work + layout.max_local_len().div_ceil(64));
    if p > 1 {
        let machine = *clock.machine();
        let dense_bytes = DENSE_LABEL_BYTES * layout.max_local_len() as u64;
        // Allgather the dense frontier labels along process columns, reduce
        // dense partial minima along process rows.
        let t = 2.0 * machine.t_tree(pr, dense_bytes);
        clock.charge_comm(t, 2 * p as u64, 2 * dense_bytes);
    }
    out
}

/// `SELECT(x, y, pred)`: keep entries of `x` whose dense companion value in
/// `y` satisfies `pred`. Purely rank-local (the layouts are aligned).
pub fn dist_select<T, Y>(
    x: &DistSparseVec<T>,
    y: &DistDenseVec<Y>,
    pred: impl Fn(Y) -> bool,
    clock: &mut SimClock,
) -> DistSparseVec<T>
where
    T: Copy,
    Y: Copy,
{
    assert_eq!(x.layout, y.layout, "SELECT: layout mismatch");
    clock.charge_elems(x.max_part_nnz());
    let parts = x
        .parts
        .iter()
        .enumerate()
        .map(|(rank, part)| {
            let (s, _) = x.layout.local_range(rank);
            part.iter()
                .copied()
                .filter(|&(g, _)| pred(y.parts[rank][g as usize - s]))
                .collect()
        })
        .collect();
    DistSparseVec {
        layout: x.layout.clone(),
        parts,
    }
}

/// `SET(y, x)` (dense side): overwrite `y[i]` with `x[i]` for every stored
/// entry of `x`. Purely rank-local.
pub fn dist_set<T: Copy>(y: &mut DistDenseVec<T>, x: &DistSparseVec<T>, clock: &mut SimClock) {
    assert_eq!(y.layout, x.layout, "SET: layout mismatch");
    clock.charge_elems(x.max_part_nnz());
    for (rank, part) in x.parts.iter().enumerate() {
        let (s, _) = x.layout.local_range(rank);
        for &(g, v) in part {
            y.parts[rank][g as usize - s] = v;
        }
    }
}

/// `SET(x, y)` (sparse side): refresh the values of `x` from its dense
/// companion `y` (Algorithm 3 line 6). Purely rank-local.
pub fn dist_gather_values<T: Copy>(
    x: &mut DistSparseVec<T>,
    y: &DistDenseVec<T>,
    clock: &mut SimClock,
) {
    assert_eq!(x.layout, y.layout, "SET: layout mismatch");
    clock.charge_elems(x.max_part_nnz());
    for (rank, part) in x.parts.iter_mut().enumerate() {
        let (s, _) = x.layout.local_range(rank);
        for (g, v) in part.iter_mut() {
            *v = y.parts[rank][*g as usize - s];
        }
    }
}

/// Frontier-emptiness test (`L_next = ∅`, the loop exit of Algorithms 3
/// and 4): a 1-byte AllReduce when distributed.
pub fn dist_is_nonempty<T: Copy>(x: &DistSparseVec<T>, clock: &mut SimClock) -> bool {
    let p = x.layout.nprocs();
    if p > 1 {
        let machine = *clock.machine();
        clock.charge_comm(machine.t_allreduce(p, 8), p as u64, 8);
    }
    !x.is_empty()
}

/// `REDUCE(x, keys, argmin)`: the stored index of `x` minimizing
/// `(keys[i], i)` — Algorithm 4's minimum-degree pick from the last BFS
/// level. An AllReduce over `(key, index)` pairs when distributed.
pub fn dist_argmin<T: Copy>(
    x: &DistSparseVec<T>,
    keys: &DistDenseVec<Vidx>,
    clock: &mut SimClock,
) -> Option<Vidx> {
    assert_eq!(x.layout, keys.layout, "REDUCE: layout mismatch");
    clock.charge_elems(x.max_part_nnz());
    let p = x.layout.nprocs();
    if p > 1 {
        let machine = *clock.machine();
        clock.charge_comm(machine.t_allreduce(p, 8), p as u64, 8);
    }
    let mut best: Option<(Vidx, Vidx)> = None;
    for (rank, part) in x.parts.iter().enumerate() {
        let (s, _) = x.layout.local_range(rank);
        for &(g, _) in part {
            let key = (keys.parts[rank][g as usize - s], g);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
    }
    best.map(|(_, g)| g)
}

/// Seed selection for the next connected component: the unvisited vertex
/// (order value `-1`) of minimum `(degree, id)`. A local scan plus an
/// AllReduce when distributed.
pub fn dist_find_unvisited_min_degree(
    order: &DistDenseVec<Label>,
    degrees: &DistDenseVec<Vidx>,
    clock: &mut SimClock,
) -> Option<Vidx> {
    assert_eq!(order.layout, degrees.layout, "layout mismatch");
    clock.charge_elems(order.layout.max_local_len());
    let p = order.layout.nprocs();
    if p > 1 {
        let machine = *clock.machine();
        clock.charge_comm(machine.t_allreduce(p, 8), p as u64, 8);
    }
    let mut best: Option<(Vidx, Vidx)> = None;
    for (rank, part) in order.parts.iter().enumerate() {
        let (s, _) = order.layout.local_range(rank);
        for (offset, &label) in part.iter().enumerate() {
            if label == UNVISITED {
                let g = (s + offset) as Vidx;
                let key = (degrees.parts[rank][offset], g);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
    }
    best.map(|(_, g)| g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ProcGrid;
    use crate::machine::MachineModel;
    use crate::vec::VecLayout;
    use rcm_sparse::{spmspv_ref, CooBuilder, CscMatrix, Select2ndMin, SparseVec};

    fn clock() -> SimClock {
        SimClock::new(MachineModel::edison(), 1)
    }

    fn figure2_matrix() -> CscMatrix {
        let mut b = CooBuilder::new(8, 8);
        for (u, v) in [
            (0, 1),
            (0, 4),
            (1, 2),
            (1, 3),
            (4, 2),
            (4, 5),
            (2, 6),
            (5, 6),
            (3, 7),
        ] {
            b.push_sym(u, v);
        }
        b.build()
    }

    #[test]
    fn spmspv_matches_sequential_on_every_grid() {
        let a = figure2_matrix();
        let entries = vec![(4 as Vidx, 2 as Label), (1, 3)];
        let reference =
            spmspv_ref::<Label, Select2ndMin>(&a, &SparseVec::from_entries(8, entries.clone()));
        for procs in [1usize, 4, 9, 16] {
            let grid = ProcGrid::square(procs).unwrap();
            let d = DistCscMatrix::from_global(grid, &a, None);
            let x = DistSparseVec::from_entries(d.layout().clone(), entries.clone());
            let mut clk = clock();
            let mut ws = DistSpmspvWorkspace::new();
            let y = dist_spmspv::<Label, Select2ndMin>(&d, &x, &mut ws, &mut clk);
            let got: Vec<(Vidx, Label)> = y.iter_entries().collect();
            assert_eq!(got, reference.entries().to_vec(), "{procs} procs");
            if procs == 1 {
                assert_eq!(clk.messages, 0);
            } else {
                assert!(clk.messages > 0);
                assert!(clk.breakdown().comm_total() > 0.0);
            }
        }
    }

    #[test]
    fn spmspv_workspace_reuse_is_clean_and_allocation_free() {
        let a = figure2_matrix();
        let d = DistCscMatrix::from_global(ProcGrid::square(4).unwrap(), &a, None);
        let mut ws = DistSpmspvWorkspace::new();
        let mut clk = clock();
        // Dense-path input (nnz >= n/64 trips the dense accumulator).
        let x1 = DistSparseVec::from_entries(d.layout().clone(), vec![(4 as Vidx, 2 as Label)]);
        let first: Vec<_> = dist_spmspv::<Label, Select2ndMin>(&d, &x1, &mut ws, &mut clk)
            .iter_entries()
            .collect();
        assert_eq!(ws.growth_events(), 1, "first call grows the buffers");
        // Different frontier: stale stamps must not leak values across calls.
        let x2 = DistSparseVec::from_entries(d.layout().clone(), vec![(3 as Vidx, 9 as Label)]);
        let second: Vec<_> = dist_spmspv::<Label, Select2ndMin>(&d, &x2, &mut ws, &mut clk)
            .iter_entries()
            .collect();
        assert_eq!(second, vec![(1, 9), (7, 9)]);
        // Same input as the first call: identical result, zero growth.
        for _ in 0..10 {
            let again: Vec<_> = dist_spmspv::<Label, Select2ndMin>(&d, &x1, &mut ws, &mut clk)
                .iter_entries()
                .collect();
            assert_eq!(again, first);
        }
        assert_eq!(ws.growth_events(), 1, "steady state must not allocate");
    }

    #[test]
    fn pull_matches_push_plus_select_on_every_grid() {
        let a = figure2_matrix();
        let entries = vec![(4 as Vidx, 2 as Label), (1, 3)];
        // Mask: a, d visited (label >= 0), the rest unvisited.
        let mask_global: Vec<Label> = vec![0, UNVISITED, UNVISITED, 1, 2, UNVISITED, UNVISITED, 3];
        let mut cands = VertexBitmap::new(mask_global.len());
        for (v, &l) in mask_global.iter().enumerate() {
            if l == UNVISITED {
                cands.insert(v as Vidx);
            }
        }
        for procs in [1usize, 4, 9, 16] {
            let grid = ProcGrid::square(procs).unwrap();
            let d = DistCscMatrix::from_global(grid, &a, None);
            let x = DistSparseVec::from_entries(d.layout().clone(), entries.clone());
            let mask = DistDenseVec::from_global(d.layout().clone(), &mask_global);
            let mut ws = DistSpmspvWorkspace::new();
            let mut clk = clock();
            let push = dist_spmspv::<Label, Select2ndMin>(&d, &x, &mut ws, &mut clk);
            let selected = dist_select(&push, &mask, |l| l == UNVISITED, &mut clk);
            let expect: Vec<_> = selected.iter_entries().collect();
            let mut pull_clk = clock();
            let pull =
                dist_spmspv_pull::<Label, Select2ndMin>(&d, &x, &cands, &mut ws, &mut pull_clk);
            let got: Vec<_> = pull.iter_entries().collect();
            assert_eq!(got, expect, "{procs} procs");
            if procs == 1 {
                assert_eq!(pull_clk.messages, 0);
            } else {
                assert!(pull_clk.messages > 0);
                assert!(pull_clk.breakdown().comm_total() > 0.0);
            }
        }
    }

    #[test]
    fn pull_comm_is_dense_and_frontier_independent() {
        // The Beamer trade the model must reflect: pull's communication
        // volume depends on n (dense allgather), not on the frontier size,
        // while push's grows with the frontier.
        let n = 64usize;
        let mut b = CooBuilder::new(n, n);
        for v in 0..n - 1 {
            b.push_sym(v as Vidx, (v + 1) as Vidx);
        }
        let a = b.build();
        let d = DistCscMatrix::from_global(ProcGrid::square(4).unwrap(), &a, None);
        let mut cands = VertexBitmap::new(0);
        cands.reset_ones(n);
        let mut ws = DistSpmspvWorkspace::new();
        let mut bytes = Vec::new();
        for nnz in [1usize, 32] {
            let entries: Vec<(Vidx, Label)> = (0..nnz).map(|k| (k as Vidx, k as Label)).collect();
            let x = DistSparseVec::from_entries(d.layout().clone(), entries);
            let mut clk = clock();
            let _ = dist_spmspv_pull::<Label, Select2ndMin>(&d, &x, &cands, &mut ws, &mut clk);
            bytes.push(clk.bytes);
        }
        assert_eq!(bytes[0], bytes[1], "pull volume must not track nnz(x)");
    }

    #[test]
    fn select_set_gather_are_consistent() {
        let grid = ProcGrid::square(4).unwrap();
        let layout = VecLayout::new(10, grid);
        let mut clk = clock();
        let mut dense: DistDenseVec<Label> = DistDenseVec::filled(layout.clone(), UNVISITED);
        let x = DistSparseVec::from_entries(
            layout.clone(),
            vec![(0 as Vidx, 5 as Label), (3, 6), (7, 7), (9, 8)],
        );
        let kept = dist_select(&x, &dense, |v| v == UNVISITED, &mut clk);
        assert_eq!(kept.total_nnz(), 4);
        dist_set(&mut dense, &x, &mut clk);
        let kept2 = dist_select(&x, &dense, |v| v == UNVISITED, &mut clk);
        assert!(kept2.is_empty());
        let mut probe = x.clone();
        dist_gather_values(&mut probe, &dense, &mut clk);
        let vals: Vec<Label> = probe.iter_entries().map(|(_, v)| v).collect();
        assert_eq!(vals, vec![5, 6, 7, 8]);
    }

    #[test]
    fn argmin_breaks_ties_toward_smaller_vertex() {
        let grid = ProcGrid::square(4).unwrap();
        let layout = VecLayout::new(8, grid);
        let degrees = DistDenseVec::from_global(layout.clone(), &[3, 1, 2, 1, 9, 1, 4, 0]);
        let x = DistSparseVec::from_entries(
            layout.clone(),
            vec![(1 as Vidx, 0 as Label), (3, 0), (5, 0), (6, 0)],
        );
        let mut clk = clock();
        assert_eq!(dist_argmin(&x, &degrees, &mut clk), Some(1));
        let empty: DistSparseVec<Label> = DistSparseVec::empty(layout);
        assert_eq!(dist_argmin(&empty, &degrees, &mut clk), None);
    }

    #[test]
    fn find_unvisited_scans_globally() {
        let grid = ProcGrid::square(4).unwrap();
        let layout = VecLayout::new(9, grid);
        let degrees = DistDenseVec::from_global(layout.clone(), &[5, 4, 3, 2, 1, 2, 3, 4, 5]);
        let mut order: DistDenseVec<Label> = DistDenseVec::filled(layout, UNVISITED);
        let mut clk = clock();
        assert_eq!(
            dist_find_unvisited_min_degree(&order, &degrees, &mut clk),
            Some(4)
        );
        for g in 0..9 {
            order.set(g, 0);
        }
        assert_eq!(
            dist_find_unvisited_min_degree(&order, &degrees, &mut clk),
            None
        );
    }

    #[test]
    fn single_rank_primitives_charge_no_comm() {
        let grid = ProcGrid::square(1).unwrap();
        let layout = VecLayout::new(6, grid);
        let degrees = DistDenseVec::from_global(layout.clone(), &[1, 1, 1, 1, 1, 1]);
        let x: DistSparseVec<Label> =
            DistSparseVec::from_entries(layout.clone(), vec![(2, 0), (4, 0)]);
        let mut clk = clock();
        assert!(dist_is_nonempty(&x, &mut clk));
        let _ = dist_argmin(&x, &degrees, &mut clk);
        assert_eq!(clk.messages, 0);
        assert_eq!(clk.breakdown().comm_total(), 0.0);
        assert!(clk.breakdown().compute_total() > 0.0);
    }
}
