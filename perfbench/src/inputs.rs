//! Seeded inputs. Every matrix the program sees is made here from the
//! benchmark's `--seed`; the same seed gives the same matrices and the same
//! request sequence.

use rcm_core::DEFAULT_CACHE_NNZ;
use rcm_graphgen::{
    block_diag, forest, grid2d_5pt, grid3d_27pt, grid3d_7pt, kkt_3d, multi_body, shuffled,
    suite_matrix,
};
use rcm_sparse::CscMatrix;

/// SplitMix64: small, seedable, and stable across platforms.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next() >> 11) as f64) / ((1u64 << 53) as f64) < p
    }
}

/// `cli-large`: an nlpkkt240-class KKT matrix on a 47³ grid (311,469 rows,
/// about 2.45M stored entries) under a seeded vertex shuffle.
pub fn kkt_large(seed: u64) -> CscMatrix {
    shuffled(&kkt_3d(47), Rng::new(seed, 1).next())
}

/// `dist-sim`: `count` ldoor-class structural matrices (18,816 rows, about
/// 0.89M stored entries each) under distinct seeded vertex shuffles.
pub fn ldoor_class(seed: u64, count: usize) -> Vec<CscMatrix> {
    let ldoor = suite_matrix("ldoor").expect("ldoor is in the suite registry");
    let natural = ldoor.generate_natural(0.02);
    let mut rng = Rng::new(seed, 2);
    (0..count).map(|_| shuffled(&natural, rng.next())).collect()
}

/// The matrix classes of the service stream. Each class has four size
/// tiers; tier 0 of `Tiny` sits below the service's 256-row batch cutover.
const CLASSES: usize = 8;
const TIERS: usize = 4;

/// One stream matrix of class `class`, size tier `tier` (200 to 6k rows),
/// with seeded size jitter and a seeded vertex shuffle, so every call
/// yields a pattern never seen before.
pub fn stream_matrix(class: usize, tier: usize, rng: &mut Rng) -> CscMatrix {
    let j = |rng: &mut Rng| rng.range(0, 1);
    let m = match class {
        // Below the batch cutover: 196 to 255 rows.
        0 => grid2d_5pt(14 + j(rng), 14 + tier / 2 + j(rng)),
        1 => {
            let side = [18, 32, 48, 70][tier] + j(rng);
            grid2d_5pt(side, side + j(rng))
        }
        2 => {
            let side = [7, 10, 13, 17][tier] + j(rng);
            grid3d_7pt(side, side, side + j(rng))
        }
        3 => {
            let side = [6, 8, 10, 13][tier] + j(rng);
            grid3d_27pt(side, side, side + j(rng))
        }
        // Multi-component: one giant body plus smaller ones.
        4 => multi_body(3 + tier, [6, 9, 12, 15][tier] + j(rng), rng.next()),
        // Many small components.
        5 => forest(4 + 6 * tier, [60, 80, 100, 150][tier] + j(rng), rng.next()),
        6 => block_diag(2 + tier, [5, 6, 7, 8][tier] + j(rng), rng.next()),
        // Long thin strip: high diameter, narrow frontiers.
        _ => grid2d_5pt([4, 5, 6, 6][tier], [60, 200, 500, 900][tier] + j(rng)),
    };
    shuffled(&m, rng.next())
}

/// The `service-stream` inputs: a hot set that fits the cache and a ring of
/// never-seen patterns whose total size exceeds the cache bound, so a long
/// run keeps computing and evicting.
pub struct StreamInputs {
    pub hot: Vec<CscMatrix>,
    pub fresh: Vec<CscMatrix>,
}

pub fn stream_inputs(seed: u64) -> StreamInputs {
    let mut rng = Rng::new(seed, 3);
    let mut hot = Vec::new();
    for class in 0..CLASSES {
        for tier in 0..TIERS {
            hot.push(stream_matrix(class, tier, &mut rng));
        }
    }
    let target = DEFAULT_CACHE_NNZ + DEFAULT_CACHE_NNZ / 2;
    let mut fresh = Vec::new();
    let mut total = 0usize;
    let mut k = 0usize;
    while total < target {
        let m = stream_matrix(k % CLASSES, (k / CLASSES) % TIERS, &mut rng);
        total += m.nnz();
        fresh.push(m);
        k += 1;
    }
    StreamInputs { hot, fresh }
}

/// Bytes of a matrix's CSC arrays.
pub fn csc_bytes(a: &CscMatrix) -> usize {
    std::mem::size_of_val(a.col_ptr()) + std::mem::size_of_val(a.row_idx())
}
