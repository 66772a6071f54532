//! Classical sequential Cuthill-McKee / Reverse Cuthill-McKee
//! (Algorithm 1 of the paper, in the George–Liu formulation).
//!
//! Vertices are numbered level by level from a pseudo-peripheral root; the
//! unnumbered neighbours of each vertex are labeled in increasing order of
//! degree. Ties are broken by vertex id, which makes this implementation
//! produce *exactly* the same ordering as the matrix-algebraic formulation
//! (Algorithm 3) — each vertex is claimed by its minimum-label parent
//! (first-touch in label order ≡ the `(select2nd, min)` semiring) and
//! children sort by `(degree, id)` within a parent. This equality is
//! verified by cross-implementation tests.
//!
//! Graphs with several connected components are handled George–Liu style:
//! each new component starts from a pseudo-peripheral vertex found from the
//! unnumbered vertex of minimum degree.
//!
//! This module is independent of the algebraic driver and serves as the
//! test oracle every [`crate::OrderingEngine`] backend is checked against;
//! execution statistics come from the engine's [`crate::DriverStats`].

use crate::peripheral::pseudo_peripheral_with_degrees;
use rcm_sparse::{CscMatrix, Permutation, Vidx};

/// Cuthill-McKee ordering of a symmetric pattern matrix.
///
/// Returns the permutation mapping old vertex ids to new labels. Reverse it
/// (`.reversed()`) for RCM.
pub fn cuthill_mckee(a: &CscMatrix) -> Permutation {
    assert_eq!(
        a.n_rows(),
        a.n_cols(),
        "CM needs a square (symmetric) matrix"
    );
    let n = a.n_rows();
    let degrees = a.degrees();
    let mut label_of = vec![Vidx::MAX; n];
    let mut order: Vec<Vidx> = Vec::with_capacity(n);
    // Scratch reused across components.
    let mut children: Vec<Vidx> = Vec::new();

    let mut next_component_scan = 0usize;
    while order.len() < n {
        // Seed: unnumbered vertex of minimum degree (deterministic).
        let mut seed = None;
        let mut best = (Vidx::MAX, Vidx::MAX);
        for v in next_component_scan..n {
            if label_of[v] == Vidx::MAX {
                let key = (degrees[v], v as Vidx);
                if key < best {
                    best = key;
                    seed = Some(v as Vidx);
                }
            }
        }
        // All labeled vertices are before the first unlabeled one only in
        // pathological orders; keep the scan start conservative.
        next_component_scan = 0;
        let seed = seed.expect("unlabeled vertex must exist");
        // Number the component from the pseudo-peripheral root.
        let root = pseudo_peripheral_with_degrees(a, seed, &degrees).vertex;
        let comp_start = order.len();
        label_of[root as usize] = comp_start as Vidx;
        order.push(root);
        let mut head = comp_start;
        while head < order.len() {
            let v = order[head];
            head += 1;
            children.clear();
            for &w in a.col(v as usize) {
                if label_of[w as usize] == Vidx::MAX {
                    // Reserve immediately so later parents skip it; the
                    // final label is assigned after sorting.
                    label_of[w as usize] = Vidx::MAX - 1;
                    children.push(w);
                }
            }
            children.sort_unstable_by_key(|&w| (degrees[w as usize], w));
            for &w in &children {
                label_of[w as usize] = order.len() as Vidx;
                order.push(w);
            }
        }
    }
    Permutation::from_order(&order).expect("CM visits each vertex exactly once")
}

/// Reverse Cuthill-McKee ordering: [`cuthill_mckee`] with labels reversed.
pub fn rcm(a: &CscMatrix) -> Permutation {
    cuthill_mckee(a).reversed()
}

/// RCM rooted at a caller-supplied vertex (skips the pseudo-peripheral
/// search for the first component — useful for differential testing).
pub fn rcm_from_root(a: &CscMatrix, root: Vidx) -> Permutation {
    assert_eq!(a.n_rows(), a.n_cols());
    let n = a.n_rows();
    let degrees = a.degrees();
    let mut label_of = vec![Vidx::MAX; n];
    let mut order: Vec<Vidx> = Vec::with_capacity(n);
    let mut children: Vec<Vidx> = Vec::new();
    let mut root = Some(root);
    while order.len() < n {
        let start = match root.take() {
            Some(r) => r,
            None => {
                let mut best = (Vidx::MAX, Vidx::MAX);
                for v in 0..n {
                    if label_of[v] == Vidx::MAX {
                        best = best.min((degrees[v], v as Vidx));
                    }
                }
                pseudo_peripheral_with_degrees(a, best.1, &degrees).vertex
            }
        };
        label_of[start as usize] = order.len() as Vidx;
        order.push(start);
        let mut head = order.len() - 1;
        while head < order.len() {
            let v = order[head];
            head += 1;
            children.clear();
            for &w in a.col(v as usize) {
                if label_of[w as usize] == Vidx::MAX {
                    label_of[w as usize] = Vidx::MAX - 1;
                    children.push(w);
                }
            }
            children.sort_unstable_by_key(|&w| (degrees[w as usize], w));
            for &w in &children {
                label_of[w as usize] = order.len() as Vidx;
                order.push(w);
            }
        }
    }
    Permutation::from_order(&order)
        .expect("CM visits each vertex exactly once")
        .reversed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackendKind, OrderingEngine};
    use rcm_sparse::{envelope_size, matrix_bandwidth, CooBuilder};

    /// Components the engine's driver counted on `a`, after checking that
    /// it produced the oracle's permutation.
    fn engine_components(a: &CscMatrix) -> usize {
        let report = OrderingEngine::with_backend(BackendKind::Serial).order(a);
        assert_eq!(report.perm, rcm(a));
        report.stats.components
    }

    fn path(n: usize) -> CscMatrix {
        let mut b = CooBuilder::new(n, n);
        for v in 0..n - 1 {
            b.push_sym(v as Vidx, (v + 1) as Vidx);
        }
        b.build()
    }

    fn shuffled_path(n: usize) -> CscMatrix {
        // Deterministic scramble: reverse bit-ish pattern via stride.
        let stride = 7usize;
        assert!(!n.is_multiple_of(stride), "stride must be coprime with n");
        let perm: Vec<Vidx> = (0..n).map(|i| ((i * stride) % n) as Vidx).collect();
        let p = Permutation::from_new_of_old(perm).unwrap();
        path(n).permute_sym(&p)
    }

    #[test]
    fn rcm_restores_path_bandwidth() {
        let a = shuffled_path(50);
        assert!(matrix_bandwidth(&a) > 1);
        let p = rcm(&a);
        let pa = a.permute_sym(&p);
        assert_eq!(matrix_bandwidth(&pa), 1);
        assert_eq!(engine_components(&a), 1);
    }

    #[test]
    fn rcm_is_valid_permutation() {
        let a = shuffled_path(23);
        let p = rcm(&a);
        assert_eq!(p.len(), 23);
        // Permutation type guarantees bijectivity; double-check round trip.
        assert_eq!(p.then(&p.inverse()), Permutation::identity(23));
    }

    #[test]
    fn rcm_is_reverse_of_cm() {
        let a = shuffled_path(31);
        assert_eq!(cuthill_mckee(&a).reversed(), rcm(&a));
    }

    #[test]
    fn handles_multiple_components() {
        let mut b = CooBuilder::new(9, 9);
        // Component 1: path 0-1-2; component 2: triangle 3-4-5;
        // component 3: isolated vertices 6, 7, 8.
        b.push_sym(0, 1);
        b.push_sym(1, 2);
        b.push_sym(3, 4);
        b.push_sym(4, 5);
        b.push_sym(3, 5);
        let a = b.build();
        let p = rcm(&a);
        assert_eq!(p.len(), 9);
        assert_eq!(engine_components(&a), 5);
        let pa = a.permute_sym(&p);
        // Each component stays contiguous → bandwidth ≤ 2 (triangle width).
        assert!(matrix_bandwidth(&pa) <= 2);
    }

    #[test]
    fn empty_and_singleton() {
        let a = CscMatrix::empty(0);
        assert_eq!(rcm(&a).len(), 0);
        let a1 = CscMatrix::empty(1);
        assert_eq!(rcm(&a1).len(), 1);
        assert_eq!(engine_components(&a1), 1);
    }

    #[test]
    fn rcm_never_increases_path_profile() {
        let a = shuffled_path(40);
        let before = envelope_size(&a);
        let p = rcm(&a);
        let after = envelope_size(&a.permute_sym(&p));
        assert!(after <= before, "profile {before} -> {after}");
    }

    #[test]
    fn rcm_from_root_respects_root() {
        let a = path(6);
        let p = rcm_from_root(&a, 0);
        // Rooted at 0, CM numbers 0..5 in order; RCM reverses.
        assert_eq!(p.as_new_of_old(), &[5, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn grid_rcm_beats_shuffled_bandwidth() {
        // 2D grid shuffled, then RCM: bandwidth should come back near grid
        // width.
        let w = 12usize;
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
        let a = b.build();
        let stride = 37usize;
        let perm: Vec<Vidx> = (0..w * w)
            .map(|i| ((i * stride) % (w * w)) as Vidx)
            .collect();
        let shuffled = a.permute_sym(&Permutation::from_new_of_old(perm).unwrap());
        let bw_shuffled = matrix_bandwidth(&shuffled);
        let p = rcm(&shuffled);
        let bw_rcm = matrix_bandwidth(&shuffled.permute_sym(&p));
        assert!(bw_rcm <= 2 * w, "RCM bandwidth {bw_rcm} vs grid width {w}");
        assert!(
            bw_rcm * 3 < bw_shuffled,
            "no real improvement: {bw_shuffled} -> {bw_rcm}"
        );
    }
}
