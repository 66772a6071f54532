//! Sequential ablation variants of RCM — the paper's §VI "immediate future
//! work involves finding alternatives to sorting (i.e. global sorting at the
//! end, or not sorting at all and sacrifice some quality)".
//!
//! * [`rcm_nosort`] — plain FIFO BFS: children are labeled in adjacency
//!   order, skipping the per-level degree sort entirely.
//! * [`rcm_globalsort`] — BFS records levels only; one global sort keyed by
//!   `(level, degree, vertex)` assigns each component's labels at the end
//!   (the generic driver's [`LabelingMode::GlobalAtEnd`]).
//!
//! Distributed counterparts live in
//! [`SortMode`](crate::distributed::SortMode); the `repro -- ablation`
//! experiment compares bandwidth and simulated time across all variants.

use crate::backends::SerialBackend;
use crate::driver::{drive_cm_with, ExpandDirection, LabelingMode, StartNode};
use crate::peripheral::pseudo_peripheral_with_degrees;
use rcm_sparse::{CscMatrix, Permutation, Vidx};

/// RCM without any sorting: BFS in adjacency order (reversed at the end).
pub fn rcm_nosort(a: &CscMatrix) -> Permutation {
    assert_eq!(a.n_rows(), a.n_cols());
    let n = a.n_rows();
    let degrees = a.degrees();
    let mut visited = vec![false; n];
    let mut order: Vec<Vidx> = Vec::with_capacity(n);
    while order.len() < n {
        let seed = (0..n)
            .filter(|&v| !visited[v])
            .min_by_key(|&v| (degrees[v], v as Vidx))
            .unwrap() as Vidx;
        let root = pseudo_peripheral_with_degrees(a, seed, &degrees).vertex;
        visited[root as usize] = true;
        order.push(root);
        let mut head = order.len() - 1;
        while head < order.len() {
            let v = order[head];
            head += 1;
            for &w in a.col(v as usize) {
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    order.push(w);
                }
            }
        }
    }
    Permutation::from_order(&order)
        .expect("BFS visits each vertex once")
        .reversed()
}

/// RCM with a single global sort at the end: the generic driver's
/// [`LabelingMode::GlobalAtEnd`] on the serial backend — each component's
/// BFS stamps levels only, and one `SORTPERM` keyed by
/// `(level, degree, vertex)` assigns its labels, reversed at the end.
pub fn rcm_globalsort(a: &CscMatrix) -> Permutation {
    let mut rt = SerialBackend::new(a);
    drive_cm_with(
        &mut rt,
        LabelingMode::GlobalAtEnd,
        ExpandDirection::Adaptive,
        &StartNode::GeorgeLiu,
    );
    rt.into_cm_permutation().reversed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::ordering_bandwidth;
    use crate::serial;
    use rcm_sparse::CooBuilder;

    use crate::testutil::scrambled_grid;

    #[test]
    fn variants_produce_valid_permutations() {
        let a = scrambled_grid(10, 17);
        assert_eq!(rcm_nosort(&a).len(), 100);
        assert_eq!(rcm_globalsort(&a).len(), 100);
    }

    #[test]
    fn variants_still_reduce_bandwidth_substantially() {
        let a = scrambled_grid(14, 41);
        let before = rcm_sparse::matrix_bandwidth(&a);
        for p in [rcm_nosort(&a), rcm_globalsort(&a)] {
            let after = ordering_bandwidth(&a, &p);
            assert!(
                after * 3 < before,
                "ablation variant failed to reduce bandwidth: {before} -> {after}"
            );
        }
    }

    #[test]
    fn full_sort_is_at_least_as_good_on_grids() {
        let a = scrambled_grid(12, 29);
        let full = serial::rcm(&a);
        let bw_full = ordering_bandwidth(&a, &full);
        let bw_nosort = ordering_bandwidth(&a, &rcm_nosort(&a));
        assert!(bw_full <= bw_nosort, "full {bw_full} vs nosort {bw_nosort}");
    }

    #[test]
    fn handles_components() {
        let mut b = CooBuilder::new(8, 8);
        b.push_sym(0, 1);
        b.push_sym(4, 5);
        b.push_sym(5, 6);
        let a = b.build();
        assert_eq!(rcm_nosort(&a).len(), 8);
        assert_eq!(rcm_globalsort(&a).len(), 8);
    }
}
