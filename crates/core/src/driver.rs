//! The algebraic RCM driver, written **once** over the Table-I primitives.
//!
//! The paper's central claim is that RCM is expressible in a handful of
//! matrix-algebra operations (Table I): SpMSpV over the `(select2nd, min)`
//! semiring, `SELECT`, `SET`, `REDUCE`, and `SORTPERM` — and that any
//! runtime supplying those primitives can execute the same algorithm,
//! whether it is one core, a multithreaded node, or an MPI+OpenMP cluster.
//! This module *is* that claim in code:
//!
//! * [`RcmRuntime`] captures exactly the Table-I surface plus an associated
//!   frontier type and a cost hook ([`RcmRuntime::set_phase`] /
//!   [`RcmRuntime::now`]), and
//! * [`drive_cm_with`] runs the pseudo-peripheral search (Algorithm 4), the
//!   level-synchronous BFS, and the labeling/`SORTPERM` pass (Algorithm 3)
//!   generically — the only copy of that pipeline in the workspace.
//!
//! Four backends implement the trait (see [`crate::backends`]); the
//! [`crate::OrderingEngine`] selects one through [`BackendKind`]:
//!
//! | backend | runtime | [`BackendKind`] |
//! |---|---|---|
//! | [`SerialBackend`] | sequential `rcm-sparse` vectors | `Serial` |
//! | [`PooledBackend`] | work-stealing thread pool ([`crate::pool`]) | `Pooled { threads }` |
//! | [`DistBackend`] | simulated 2D runtime (`rcm-dist`), flat MPI | `Dist { cores }` |
//! | [`HybridBackend`] | `DistBackend` with `threads_per_proc > 1` (Fig. 6) | `Hybrid { cores, threads_per_proc }` |
//!
//! All four produce **bit-identical** permutations — the cross-backend
//! equality is enforced by the integration suite on every suite graph.
//!
//! # Direction-optimizing frontier expansion
//!
//! The paper's Fig. 5 breakdown shows frontier expansion (SpMSpV over the
//! `(select2nd, min)` semiring) dominating the distributed runtime, and
//! RCM-on-mesh frontiers routinely grow to a large fraction of the
//! unvisited vertices — the regime where a push-only sparse expansion does
//! redundant per-edge work. The driver therefore keeps the frontier in a
//! **dual representation** and picks an expansion direction per level:
//!
//! | | **push** (top-down) | **pull** (bottom-up) |
//! |---|---|---|
//! | frontier rep | sorted sparse `(vertex, value)` list | dense label array / SPA bitmap |
//! | kernel | SpMSpV over the frontier's columns + `SELECT` | masked row-scan over the unvisited rows ([`RcmRuntime::expand_pull`]) |
//! | edges touched | `Σ deg(frontier)` | `Σ deg(unvisited)` |
//! | distributed comm | sparse gather/reduce ∝ `nnz(f)` | dense allgather/reduce `Θ(n/√p′)` |
//! | serial kernel | [`rcm_sparse::spmspv()`] | [`rcm_sparse::spmspv_pull()`] |
//! | pooled kernel | chunk-claimed expansion + atomic `fetch_min` dedup | chunk-claimed row-scan, no atomics (each row computed once) |
//! | dist kernel | [`rcm_dist::dist_spmspv`] | [`rcm_dist::dist_spmspv_pull`] |
//!
//! The switch heuristic ([`ExpandDirection::Adaptive`], the default) is
//! Beamer-style with two named threshold constants: a level **pulls** when
//! [`PULL_ALPHA`]` · nnz(frontier) ≥ |unvisited|` (the frontier is a large
//! fraction of the remaining work, so the masked row-scan touches no more
//! than ~`PULL_ALPHA×` the push edges) **and**
//! [`PULL_BETA`]` · nnz(frontier) ≥ n` (the dense representation's Θ(n)
//! scan/allgather is amortized); it **pushes** otherwise. Backends gate
//! the adaptive policy through [`RcmRuntime::pull_profitable`]: pull's
//! payoff is avoiding frontier-proportional communication (dist/hybrid)
//! or per-edge atomics (the pool with >1 worker), so the sequential
//! reference — where neither cost exists and min-label forbids Beamer's
//! early exit — keeps its adaptive runs push-only. Both directions
//! compute the identical `(select2nd, min)` result — forced modes
//! ([`drive_cm_with`], `EngineConfig::direction`, or
//! `RCM_DIRECTION=push|pull|adaptive|alternate` through
//! `EngineConfig::from_env`) are bit-identical by
//! construction and swept in CI. [`DriverStats`] records the direction
//! chosen per level ([`LevelStat::direction`],
//! [`DriverStats::pull_expands`]).
//!
//! # Worked example: running the generic driver on a backend
//!
//! ```
//! use rcm_core::backends::SerialBackend;
//! use rcm_core::driver::{drive_cm_with, ExpandDirection, LabelingMode, StartNode};
//! use rcm_sparse::CooBuilder;
//!
//! // A path graph with scrambled vertex numbering.
//! let mut b = CooBuilder::new(5, 5);
//! for (u, v) in [(0, 3), (3, 1), (1, 4), (4, 2)] {
//!     b.push_sym(u, v);
//! }
//! let a = b.build();
//!
//! // Any `RcmRuntime` runs the identical Algorithm 3/4 pipeline.
//! let mut rt = SerialBackend::new(&a);
//! let stats = drive_cm_with(
//!     &mut rt,
//!     LabelingMode::PerLevel,
//!     ExpandDirection::Adaptive,
//!     &StartNode::GeorgeLiu,
//! );
//! let cm = rt.into_cm_permutation();
//! assert_eq!(stats.components, 1);
//!
//! // Reversing Cuthill-McKee gives RCM; the path becomes tridiagonal.
//! let reordered = a.permute_sym(&cm.reversed());
//! assert_eq!(rcm_sparse::matrix_bandwidth(&reordered), 1);
//! ```
//!
//! # Pluggable start-node selection
//!
//! Every component is ordered from a start vertex, and the quality/cost
//! trade-off of finding that vertex is its own axis: the George–Liu search
//! (Algorithm 4) runs one full BFS per sweep, and the paper's Fig. 4
//! breakdown shows the peripheral phase as a visible slice of distributed
//! runtime — every sweep saved is a direct α–β communication win. The
//! driver therefore takes the selection as a [`StartNodeStrategy`]
//! ([`drive_cm_with`]); [`StartNode`] ships four implementations
//! (George–Liu, the RCM++-style bi-criteria early-terminating finder,
//! a fixed user vertex, and the zero-sweep minimum-degree baseline).
//!
//! ```
//! use rcm_core::backends::SerialBackend;
//! use rcm_core::driver::{drive_cm_with, ExpandDirection, LabelingMode, StartNode};
//! use rcm_sparse::CooBuilder;
//!
//! let mut b = CooBuilder::new(6, 6);
//! for (u, v) in [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5)] {
//!     b.push_sym(u, v);
//! }
//! let a = b.build();
//!
//! // The bi-criteria finder follows the same sweep trajectory as
//! // George–Liu but stops as soon as the eccentricity gain falls below
//! // its threshold — never more sweeps, often fewer.
//! let mut gl = SerialBackend::new(&a);
//! let gl_stats = drive_cm_with(
//!     &mut gl,
//!     LabelingMode::PerLevel,
//!     ExpandDirection::Push,
//!     &StartNode::GeorgeLiu,
//! );
//! let mut bc = SerialBackend::new(&a);
//! let bc_stats = drive_cm_with(
//!     &mut bc,
//!     LabelingMode::PerLevel,
//!     ExpandDirection::Push,
//!     &StartNode::BiCriteria,
//! );
//! assert!(bc_stats.peripheral_bfs <= gl_stats.peripheral_bfs);
//! assert_eq!(gl_stats.peripheral_stats[0].eccentricity, 5); // a true path end
//!
//! // The zero-sweep baseline orders straight from the min-degree seed.
//! let mut md = SerialBackend::new(&a);
//! let md_stats = drive_cm_with(
//!     &mut md,
//!     LabelingMode::PerLevel,
//!     ExpandDirection::Push,
//!     &StartNode::MinDegree,
//! );
//! assert_eq!(md_stats.peripheral_bfs, 0);
//! ```
//!
//! [`SerialBackend`]: crate::backends::SerialBackend
//! [`PooledBackend`]: crate::backends::PooledBackend
//! [`DistBackend`]: crate::backends::DistBackend
//! [`HybridBackend`]: crate::backends::HybridBackend

use rcm_dist::Phase;
use rcm_sparse::{Label, Vidx};

/// Adaptive push→pull switch, frontier-vs-remaining term: a level pulls
/// only when `PULL_ALPHA · nnz(frontier) ≥ |unvisited|` — the frontier is
/// at least `1/PULL_ALPHA` of the remaining work, so the masked row-scan
/// touches at most ~`PULL_ALPHA×` the edges the push expansion would
/// (Beamer's `m_f > m_u/α` in vertex form).
pub const PULL_ALPHA: usize = 2;

/// Adaptive push→pull switch, frontier-vs-graph term: a level pulls only
/// when additionally `PULL_BETA · nnz(frontier) ≥ n`. The pull
/// representation is dense — its distributed allgather and its mask scan
/// cost `Θ(n)` regardless of the frontier — so thin late levels (small
/// remaining *and* small frontier) must stay on the sparse push path even
/// though the `PULL_ALPHA` test passes there.
pub const PULL_BETA: usize = 16;

/// The frontier-expansion direction policy — and, per level, the direction
/// actually chosen (only [`ExpandDirection::Push`] / [`ExpandDirection::Pull`]
/// ever appear in [`LevelStat::direction`]).
///
/// The policy enters [`drive_cm_with`] explicitly, or through
/// `EngineConfig::direction` (read from the `RCM_DIRECTION` environment
/// variable — `push`, `pull`, `adaptive`, `alternate` — only by
/// `EngineConfig::from_env`) — every combination produces the
/// bit-identical permutation; only the cost changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExpandDirection {
    /// Always expand top-down: sparse SpMSpV over the frontier's columns.
    Push,
    /// Always expand bottom-up: masked row-scan over the unvisited rows
    /// against the dense frontier ([`RcmRuntime::expand_pull`]).
    Pull,
    /// Beamer-style per-level choice: pull when
    /// `PULL_ALPHA · nnz(f) ≥ |unvisited|` **and** `PULL_BETA · nnz(f) ≥ n`,
    /// push otherwise ([`PULL_ALPHA`], [`PULL_BETA`]).
    #[default]
    Adaptive,
    /// Alternate push/pull on every expansion — a test policy that forces a
    /// direction switch at every level boundary, exercising the dual
    /// representation's round-trip on each level.
    Alternating,
}

impl ExpandDirection {
    /// Short display name (`push`, `pull`, `adaptive`, `alternate`).
    pub fn name(&self) -> &'static str {
        match self {
            ExpandDirection::Push => "push",
            ExpandDirection::Pull => "pull",
            ExpandDirection::Adaptive => "adaptive",
            ExpandDirection::Alternating => "alternate",
        }
    }

    /// Parse a policy name (the `RCM_DIRECTION` vocabulary).
    pub fn parse(s: &str) -> Option<ExpandDirection> {
        match s.trim().to_ascii_lowercase().as_str() {
            "push" => Some(ExpandDirection::Push),
            "pull" => Some(ExpandDirection::Pull),
            "adaptive" => Some(ExpandDirection::Adaptive),
            "alternate" | "alternating" => Some(ExpandDirection::Alternating),
            _ => None,
        }
    }

    /// Resolve the policy to a concrete per-level direction.
    ///
    /// `expansions` is the count of expansions executed so far (the
    /// alternation parity), `frontier_nnz` the current frontier's stored
    /// entries, `remaining` the vertices the level's mask still admits, and
    /// `n` the matrix dimension.
    fn choose(
        &self,
        expansions: usize,
        frontier_nnz: usize,
        remaining: usize,
        n: usize,
    ) -> ExpandDirection {
        match self {
            ExpandDirection::Push => ExpandDirection::Push,
            ExpandDirection::Pull => ExpandDirection::Pull,
            ExpandDirection::Alternating => {
                if expansions % 2 == 1 {
                    ExpandDirection::Pull
                } else {
                    ExpandDirection::Push
                }
            }
            ExpandDirection::Adaptive => {
                if frontier_nnz * PULL_ALPHA >= remaining && frontier_nnz * PULL_BETA >= n {
                    ExpandDirection::Pull
                } else {
                    ExpandDirection::Push
                }
            }
        }
    }
}

/// Which dense `Label` companion vector a `SELECT`/`SET` targets.
///
/// Algorithms 3 and 4 keep two dense vectors: the ordering vector `R`
/// ([`DenseTarget::Order`], `-1` = unvisited) and the per-sweep BFS level
/// vector `L` ([`DenseTarget::Levels`], reset at every pseudo-peripheral
/// sweep via [`RcmRuntime::reset_levels`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DenseTarget {
    /// The ordering vector `R` of Algorithm 3.
    Order,
    /// The BFS level vector `L` of Algorithm 4.
    Levels,
}

/// How the driver assigns labels (the §VI sorting ablation, driver side).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LabelingMode {
    /// One `SORTPERM` per BFS level — the paper's algorithm.
    #[default]
    PerLevel,
    /// Stamp BFS levels only, then one global `SORTPERM` keyed by
    /// `(level, degree, vertex)` over the whole component.
    GlobalAtEnd,
}

/// Bi-criteria continuation threshold: a sweep must grow the eccentricity
/// by at least `max(1, previous_eccentricity / BI_CRITERIA_GAIN_DIV)`
/// levels for the search to continue. George–Liu demands a gain of exactly
/// 1 level; requiring a fraction of the current eccentricity instead stops
/// the search once sweeps stop paying for themselves — each skipped sweep
/// is a full BFS (and, distributed, its α–β communication).
pub const BI_CRITERIA_GAIN_DIV: i64 = 8;

/// The start-node selection strategy — how the driver turns a component's
/// min-degree seed into the vertex the ordering pass starts from.
///
/// Enters the driver through [`drive_cm_with`] (or
/// `EngineConfig::builder().start_node(..)`, `rcm-order --start-node`),
/// or through the `RCM_START_NODE` environment variable (`george-liu`,
/// `bi-criteria`, `min-degree`, `fixed:N`) read by
/// `EngineConfig::from_env`. Each variant implements
/// [`StartNodeStrategy`]; custom strategies implement the trait directly.
///
/// | strategy | sweeps | start vertex |
/// |---|---|---|
/// | [`StartNode::GeorgeLiu`] (default) | until eccentricity stops growing | pseudo-peripheral |
/// | [`StartNode::BiCriteria`] | ≤ George–Liu (early-terminating) | near-peripheral |
/// | [`StartNode::MinDegree`] | 0 | the min-degree seed |
/// | [`StartNode::Fixed`] | 0 (its component) | user-supplied |
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum StartNode {
    /// Algorithm 4, the classical George–Liu search: sweep until the
    /// eccentricity stops growing. The default — bit-identical to the
    /// pre-strategy driver.
    #[default]
    GeorgeLiu,
    /// The RCM++-style bi-criteria finder (arXiv 2409.04171): the
    /// candidate set is the last BFS level scored by degree×eccentricity,
    /// and the sweep loop terminates early once a sweep grows the
    /// eccentricity by less than `1/`[`BI_CRITERIA_GAIN_DIV`] of its
    /// previous value. All last-level candidates share their distance from
    /// the sweep root, so the degree×eccentricity score ranks them exactly
    /// like the degree `REDUCE` George–Liu already performs — the two
    /// strategies walk the *same* root trajectory, and the stronger
    /// continuation test means bi-criteria never runs **more** sweeps than
    /// George–Liu on any input (and the saved sweeps' α–β communication is
    /// never charged on the distributed backends).
    BiCriteria,
    /// Zero-sweep baseline: order straight from the min-degree seed.
    MinDegree,
    /// A user-supplied start vertex. Applies to the component containing
    /// the vertex (scheduled first); every other component — or the whole
    /// run, when the vertex is out of range — falls back to George–Liu
    /// from its seed.
    Fixed(
        /// The requested start vertex (original numbering).
        Vidx,
    ),
}

impl StartNode {
    /// Short display name (`george-liu`, `bi-criteria`, `min-degree`,
    /// `fixed`).
    pub fn name(&self) -> &'static str {
        match self {
            StartNode::GeorgeLiu => "george-liu",
            StartNode::BiCriteria => "bi-criteria",
            StartNode::MinDegree => "min-degree",
            StartNode::Fixed(_) => "fixed",
        }
    }

    /// Parse a strategy spec (the `RCM_START_NODE` / `--start-node`
    /// vocabulary): `george-liu`, `bi-criteria`, `min-degree`, or
    /// `fixed:N` (also a bare vertex number).
    pub fn parse(s: &str) -> Option<StartNode> {
        let s = s.trim().to_ascii_lowercase();
        match s.as_str() {
            "george-liu" | "georgeliu" | "gl" => Some(StartNode::GeorgeLiu),
            "bi-criteria" | "bicriteria" | "rcm++" => Some(StartNode::BiCriteria),
            "min-degree" | "mindegree" => Some(StartNode::MinDegree),
            other => {
                let v = other.strip_prefix("fixed:").unwrap_or(other);
                v.parse::<Vidx>().ok().map(StartNode::Fixed)
            }
        }
    }

    /// A discriminant folded into pattern-cache keys: two orderings of the
    /// same pattern under different strategies must never alias
    /// (`crate::service::PatternCache`). George–Liu salts with 0 so
    /// default-strategy keys match the pre-strategy cache layout.
    pub fn cache_salt(&self) -> u64 {
        match self {
            StartNode::GeorgeLiu => 0,
            StartNode::BiCriteria => 0x9e37_79b9_7f4a_7c15,
            StartNode::MinDegree => 0xc2b2_ae3d_27d4_eb4f,
            StartNode::Fixed(v) => {
                0xd6e8_feb8_6659_fd93 ^ (*v as u64).wrapping_mul(0x0000_0100_0000_01b3)
            }
        }
    }
}

/// Per-component record of the start-node selection phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PeripheralStat {
    /// The vertex the ordering pass started from.
    pub start: Vidx,
    /// BFS sweeps the strategy ran (0 for the zero-sweep strategies).
    pub sweeps: usize,
    /// Total BFS levels traversed across those sweeps.
    pub levels: usize,
    /// Final eccentricity measured from the returned vertex (0 when no
    /// sweep ran).
    pub eccentricity: usize,
}

/// A start-node selection strategy, generic over the runtime: given the
/// component's min-degree seed, produce the vertex the ordering pass
/// starts from.
///
/// Implementations run entirely on the Table-I primitives (any BFS sweeps
/// go through the same [`RcmRuntime`] surface as the ordering pass, so
/// the distributed backends charge — or save — the real α–β cost), must
/// return a vertex in `seed`'s component that is still unvisited in `R`,
/// and must be deterministic: the returned vertex may depend only on the
/// graph and `seed`, never on execution order. [`StartNode`] implements
/// this trait; [`drive_cm_with`] consumes it.
pub trait StartNodeStrategy {
    /// Select the start vertex for the component seeded at `seed`,
    /// returning it with the phase's execution record (the driver appends
    /// the record to [`DriverStats::peripheral_stats`]).
    fn select<R: RcmRuntime>(
        &self,
        rt: &mut R,
        seed: Vidx,
        policy: ExpandDirection,
        stats: &mut DriverStats,
    ) -> (Vidx, PeripheralStat);
}

impl StartNodeStrategy for StartNode {
    fn select<R: RcmRuntime>(
        &self,
        rt: &mut R,
        seed: Vidx,
        policy: ExpandDirection,
        stats: &mut DriverStats,
    ) -> (Vidx, PeripheralStat) {
        match self {
            StartNode::GeorgeLiu => peripheral_sweeps(rt, seed, policy, stats, |_| 1),
            StartNode::BiCriteria => peripheral_sweeps(rt, seed, policy, stats, |nlvl| {
                (nlvl / BI_CRITERIA_GAIN_DIV).max(1)
            }),
            StartNode::MinDegree => (
                seed,
                PeripheralStat {
                    start: seed,
                    ..PeripheralStat::default()
                },
            ),
            StartNode::Fixed(v) => {
                // Honor the request only when the vertex exists and is
                // still unvisited (i.e. this is its component's turn);
                // otherwise run the default search from the seed.
                if (*v as usize) < rt.n() {
                    let x = rt.singleton(*v, 0);
                    let kept = rt.select_unvisited(&x, DenseTarget::Order);
                    if rt.is_nonempty(&kept) {
                        return (
                            *v,
                            PeripheralStat {
                                start: *v,
                                ..PeripheralStat::default()
                            },
                        );
                    }
                }
                peripheral_sweeps(rt, seed, policy, stats, |_| 1)
            }
        }
    }
}

/// Per-BFS-level execution record of the ordering pass (level-synchronous
/// behaviour made visible: frontier width and simulated time per level).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LevelStat {
    /// Vertices labeled in this level.
    pub frontier: usize,
    /// Simulated seconds this level took (all phases; `0.0` on backends
    /// without a clock).
    pub seconds: f64,
    /// Expansion direction the per-level policy chose (always
    /// [`ExpandDirection::Push`] or [`ExpandDirection::Pull`]).
    pub direction: ExpandDirection,
}

/// Statistics of one generic driver run, common to every backend.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DriverStats {
    /// Connected components processed.
    pub components: usize,
    /// BFS sweeps in the pseudo-peripheral searches.
    pub peripheral_bfs: usize,
    /// Frontier-expansion iterations in the ordering passes.
    pub levels: usize,
    /// Matrix nonzeros traversed by all SpMSpV calls (backends that do not
    /// track it report 0).
    pub spmspv_work: usize,
    /// Expansions (ordering *and* peripheral) that ran top-down (push).
    pub push_expands: usize,
    /// Expansions (ordering *and* peripheral) that ran bottom-up (pull).
    pub pull_expands: usize,
    /// Per-level trace of the ordering passes, concatenated across
    /// components (empty in [`LabelingMode::GlobalAtEnd`]).
    pub level_stats: Vec<LevelStat>,
    /// Per-component record of the start-node selection phase, in
    /// component processing order.
    pub peripheral_stats: Vec<PeripheralStat>,
}

/// The Table-I primitives a backend must supply to run RCM.
///
/// Method-per-primitive, exactly the paper's surface: the semiring SpMSpV
/// ([`Self::spmspv`]), `SELECT` ([`Self::select_unvisited`]), `SET` in both
/// directions ([`Self::set_dense`] / [`Self::gather_values`]), `REDUCE`
/// ([`Self::argmin_degree`], [`Self::find_unvisited_min_degree`]) and
/// `SORTPERM` ([`Self::sortperm`]), plus an associated frontier type, a few
/// frontier utilities, and the cost hook ([`Self::set_phase`],
/// [`Self::now`]) that maps driver progress onto the backend's accounting
/// (a [`rcm_dist::SimClock`] for the simulated runtimes, nothing for the
/// native ones).
///
/// # Contract
///
/// Every primitive must produce the *value* its sequential specification
/// produces ([`crate::algebraic`]); how it executes — serially, on a
/// work-stealing pool, or on a simulated process grid — is the backend's
/// business. Backends are free to fuse work across primitives (the pooled
/// backend's SpMSpV already filters visited vertices and pre-sorts its
/// output), as long as each call site still observes its specified result.
/// See [`crate::driver`]'s module docs for a worked example, and the
/// README's "adding a backend" walk-through.
pub trait RcmRuntime {
    /// The backend's sparse frontier (a distributed/sequential sparse
    /// vector of `(vertex, Label)` pairs).
    type Frontier: Clone;

    /// Number of vertices (matrix rows).
    fn n(&self) -> usize;

    // --- cost hook -----------------------------------------------------

    /// Tell the backend which Fig. 4 phase subsequent work belongs to.
    fn set_phase(&mut self, _phase: Phase) {}

    /// Simulated seconds elapsed (0.0 for backends without a clock).
    fn now(&self) -> f64 {
        0.0
    }

    // --- frontier utilities --------------------------------------------

    /// The frontier `{v}` with one stored value.
    fn singleton(&mut self, v: Vidx, value: Label) -> Self::Frontier;

    /// `nnz(x) > 0` — the loop-exit test of Algorithms 3 and 4 (an
    /// AllReduce on distributed backends).
    fn is_nonempty(&mut self, x: &Self::Frontier) -> bool;

    /// `nnz(x)` — the density input of the per-level direction policy.
    /// Distributed backends already learn the global count from the
    /// emptiness AllReduce (the same 8-byte reduction carries it), so this
    /// must charge nothing extra.
    fn frontier_nnz(&mut self, x: &Self::Frontier) -> usize;

    /// Whether the bottom-up expansion can actually beat push on this
    /// backend — the [`ExpandDirection::Adaptive`] policy only considers
    /// pulling when this is `true`. Forced modes ignore it.
    ///
    /// Pull pays off by avoiding frontier-proportional *communication*
    /// (distributed backends) or per-edge *atomics* (parallel shared
    /// memory); a sequential SPA push has neither cost, and the
    /// `(select2nd, min)` semiring forbids Beamer's early exit, so the
    /// serial reference returns `false` (and the pooled backend does when
    /// running single-threaded).
    fn pull_profitable(&self) -> bool {
        true
    }

    /// Append `x`'s entries to `acc` (the [`LabelingMode::GlobalAtEnd`]
    /// accumulator). Entry sets must stay disjoint.
    fn append(&mut self, acc: &mut Self::Frontier, x: &Self::Frontier);

    /// Overwrite every stored value with `value` (level stamping).
    fn stamp(&mut self, x: &mut Self::Frontier, value: Label);

    // --- Table I -------------------------------------------------------

    /// `SPMSPV(A, x)` over the `(select2nd, min)` semiring: for every
    /// vertex adjacent to `x`'s support, the minimum stored value among its
    /// frontier neighbours.
    fn spmspv(&mut self, x: &Self::Frontier) -> Self::Frontier;

    /// `SELECT(x, R = -1)`: keep entries whose companion in `which` is
    /// unvisited.
    fn select_unvisited(&mut self, x: &Self::Frontier, which: DenseTarget) -> Self::Frontier;

    /// Pull (bottom-up) expansion fused with `SELECT`: for every vertex
    /// whose companion in `which` is unvisited, the semiring-sum of its
    /// frontier neighbours' values — a masked row-scan over the symmetric
    /// pattern against the *dense* frontier representation, reproducing
    /// `select_unvisited(spmspv(x), which)` **bit for bit** while touching
    /// the unvisited rows' edges instead of the frontier's.
    ///
    /// The default falls back to that push pair, so a backend without a
    /// native pull kernel still honors every forced-direction mode
    /// correctly (at push cost). All four in-tree backends override it.
    fn expand_pull(&mut self, x: &Self::Frontier, which: DenseTarget) -> Self::Frontier {
        let y = self.spmspv(x);
        self.select_unvisited(&y, which)
    }

    /// `SET(dense, x)`: overwrite the dense companion at `x`'s support.
    fn set_dense(&mut self, which: DenseTarget, x: &Self::Frontier);

    /// Point update of a dense companion (root seeding).
    fn set_dense_at(&mut self, which: DenseTarget, v: Vidx, value: Label);

    /// `SET(x, dense)`: refresh `x`'s values from the dense companion
    /// (Algorithm 3 line 6).
    fn gather_values(&mut self, x: &mut Self::Frontier, which: DenseTarget);

    /// Reset the BFS level vector `L` to all-unvisited (start of every
    /// pseudo-peripheral sweep).
    fn reset_levels(&mut self);

    /// Called when a pseudo-peripheral search finishes. Backends whose BFS
    /// marks share state with the ordering pass (the pooled backend's
    /// `visited` array) roll them back here; backends with a dedicated
    /// level vector need do nothing — the next search resets it, and the
    /// ordering pass never reads `L`.
    fn end_peripheral_search(&mut self) {}

    /// `SORTPERM(x, D)`: assign consecutive labels `nv, nv+1, …` in
    /// lexicographic `(stored value, degree, vertex)` order. `batch` is the
    /// half-open label range of the previous frontier (the possible parent
    /// values — the bucket structure the paper's specialized sort
    /// exploits). Returns the labels as a frontier of `(vertex, label)`
    /// entries plus the number labeled.
    fn sortperm(
        &mut self,
        x: &Self::Frontier,
        batch: (Label, Label),
        nv: Label,
    ) -> (Self::Frontier, usize);

    /// `REDUCE(x, D, argmin)`: the stored vertex minimizing
    /// `(degree, vertex)` — Algorithm 4's next-root pick.
    fn argmin_degree(&mut self, x: &Self::Frontier) -> Option<Vidx>;

    /// Seed selection: the unvisited vertex (in `R`) of minimum
    /// `(degree, vertex)`, or `None` when all are labeled.
    fn find_unvisited_min_degree(&mut self) -> Option<Vidx>;

    // --- introspection --------------------------------------------------

    /// Matrix nonzeros traversed by SpMSpV so far (0 if untracked).
    fn spmspv_work(&self) -> usize {
        0
    }
}

/// Resolve the policy to this level's direction, folding in the backend's
/// profitability hint: an adaptive policy never pulls on a backend that
/// declares pull unprofitable ([`RcmRuntime::pull_profitable`]); forced
/// and alternating policies are honored regardless.
fn resolve_direction<R: RcmRuntime>(
    rt: &R,
    policy: ExpandDirection,
    expansions: usize,
    frontier_nnz: usize,
    remaining: usize,
    n: usize,
) -> ExpandDirection {
    if policy == ExpandDirection::Adaptive && !rt.pull_profitable() {
        return ExpandDirection::Push;
    }
    policy.choose(expansions, frontier_nnz, remaining, n)
}

/// One frontier expansion in the chosen direction, with the select fold.
///
/// Push: `SELECT(SPMSPV(A, cur), which = -1)` — the top-down pair. Pull:
/// [`RcmRuntime::expand_pull`] — the bottom-up fusion of both. Either way
/// the result is the unvisited neighbours of `cur` with their minimum
/// candidate-parent values; `direction` must already be resolved to
/// `Push`/`Pull` ([`ExpandDirection::choose`]). Expansion work is charged
/// to `spmspv_phase`, the push-path select to `other_phase`.
fn expand_frontier<R: RcmRuntime>(
    rt: &mut R,
    cur: &R::Frontier,
    which: DenseTarget,
    direction: ExpandDirection,
    spmspv_phase: Phase,
    other_phase: Phase,
    stats: &mut DriverStats,
) -> R::Frontier {
    match direction {
        ExpandDirection::Pull => {
            stats.pull_expands += 1;
            rt.set_phase(spmspv_phase);
            let next = rt.expand_pull(cur, which);
            rt.set_phase(other_phase);
            next
        }
        _ => {
            stats.push_expands += 1;
            rt.set_phase(spmspv_phase);
            let next = rt.spmspv(cur);
            rt.set_phase(other_phase);
            rt.select_unvisited(&next, which)
        }
    }
}

/// Algorithm 4's sweep loop, generically, parameterized by the
/// continuation threshold: after a sweep of eccentricity `ecc`, the search
/// continues only while `ecc - nlvl >= min_gain(nlvl)` (`nlvl` being the
/// previous sweep's eccentricity, `-1` before the first). George–Liu is
/// `min_gain ≡ 1` — `ecc - nlvl < 1 ⟺ ecc ≤ nlvl`, the classical "stopped
/// growing" test, bit for bit. The bi-criteria finder demands a larger
/// gain; since every `min_gain ≥ 1`, any such strategy stops no later than
/// George–Liu on the identical root trajectory. Returns the final root and
/// the phase record; bumps `stats.peripheral_bfs` once per full BFS sweep.
fn peripheral_sweeps<R: RcmRuntime>(
    rt: &mut R,
    start: Vidx,
    policy: ExpandDirection,
    stats: &mut DriverStats,
    min_gain: impl Fn(i64) -> i64,
) -> (Vidx, PeripheralStat) {
    let n = rt.n();
    let mut r = start;
    let mut nlvl: i64 = -1;
    let mut pstat = PeripheralStat::default();
    loop {
        // One full level-synchronous BFS from r, levels tracked in L.
        rt.set_phase(Phase::PeripheralOther);
        rt.reset_levels();
        rt.set_dense_at(DenseTarget::Levels, r, 0);
        let mut cur = rt.singleton(r, 0);
        let mut cur_nnz = 1usize;
        // Vertices the pull mask (L = -1) still admits.
        let mut remaining = n - 1;
        let mut ecc: i64 = 0;
        stats.peripheral_bfs += 1;
        loop {
            // L_cur ← SET(L_cur, L); L_next ← SELECT(SPMSPV(A, L_cur), L = -1).
            rt.set_phase(Phase::PeripheralOther);
            rt.gather_values(&mut cur, DenseTarget::Levels);
            let direction = resolve_direction(
                rt,
                policy,
                stats.push_expands + stats.pull_expands,
                cur_nnz,
                remaining,
                n,
            );
            let mut next = expand_frontier(
                rt,
                &cur,
                DenseTarget::Levels,
                direction,
                Phase::PeripheralSpmspv,
                Phase::PeripheralOther,
                stats,
            );
            if !rt.is_nonempty(&next) {
                break;
            }
            ecc += 1;
            rt.stamp(&mut next, ecc);
            rt.set_dense(DenseTarget::Levels, &next);
            cur_nnz = rt.frontier_nnz(&next);
            remaining -= cur_nnz;
            cur = next;
        }
        pstat.sweeps += 1;
        pstat.levels += ecc as usize;
        pstat.start = r;
        pstat.eccentricity = ecc as usize;
        // Converged: the eccentricity gain fell below the threshold.
        if ecc - nlvl < min_gain(nlvl) {
            rt.end_peripheral_search();
            return (r, pstat);
        }
        nlvl = ecc;
        // r ← REDUCE(L_cur, D): minimum-degree vertex of the last level.
        rt.set_phase(Phase::PeripheralOther);
        let v = rt.argmin_degree(&cur).unwrap_or(r);
        if v == r {
            rt.end_peripheral_search();
            return (r, pstat);
        }
        r = v;
    }
}

/// Algorithm 3: label `root`'s component with consecutive Cuthill-McKee
/// labels starting at `*nv`. Returns the number of frontier-expansion
/// levels and appends per-level records to `stats`.
fn label_component<R: RcmRuntime>(
    rt: &mut R,
    root: Vidx,
    nv: &mut Label,
    mode: LabelingMode,
    policy: ExpandDirection,
    stats: &mut DriverStats,
) {
    if mode == LabelingMode::GlobalAtEnd {
        label_component_global_sort(rt, root, nv, policy, stats);
        return;
    }
    let n = rt.n();
    rt.set_phase(Phase::OrderingOther);
    // R[r] ← nv; L_cur ← {r}.
    rt.set_dense_at(DenseTarget::Order, root, *nv);
    let mut batch_start = *nv;
    *nv += 1;
    let mut cur = rt.singleton(root, 0);
    let mut cur_nnz = 1usize;
    loop {
        let level_t0 = rt.now();
        // L_cur ← SET(L_cur, R): frontier values become the labels assigned
        // in the previous round.
        rt.set_phase(Phase::OrderingOther);
        rt.gather_values(&mut cur, DenseTarget::Order);
        // L_next ← SELECT(SPMSPV(A, L_cur), R = -1) — push — or the fused
        // masked row-scan — pull. The pull mask (R = -1) admits n - nv
        // vertices: everything not yet labeled, across all components.
        let direction = resolve_direction(
            rt,
            policy,
            stats.push_expands + stats.pull_expands,
            cur_nnz,
            n - *nv as usize,
            n,
        );
        let next = expand_frontier(
            rt,
            &cur,
            DenseTarget::Order,
            direction,
            Phase::OrderingSpmspv,
            Phase::OrderingOther,
            stats,
        );
        if !rt.is_nonempty(&next) {
            break;
        }
        stats.levels += 1;
        // R_next ← SORTPERM(L_next, D) + nv.
        rt.set_phase(Phase::OrderingSort);
        let (labels, count) = rt.sortperm(&next, (batch_start, *nv), *nv);
        // R ← SET(R, R_next); nv ← nv + nnz(R_next).
        rt.set_phase(Phase::OrderingOther);
        rt.set_dense(DenseTarget::Order, &labels);
        batch_start = *nv;
        *nv += count as Label;
        stats.level_stats.push(LevelStat {
            frontier: count,
            seconds: rt.now() - level_t0,
            direction,
        });
        cur_nnz = count;
        cur = next;
    }
}

/// [`LabelingMode::GlobalAtEnd`]: BFS stamping 1-based levels, then one
/// global `SORTPERM` keyed by `(level, degree, vertex)` over the whole
/// component. `R` holds a sentinel during the BFS so `SELECT` keeps
/// working; the final `SET` overwrites it with real labels.
fn label_component_global_sort<R: RcmRuntime>(
    rt: &mut R,
    root: Vidx,
    nv: &mut Label,
    policy: ExpandDirection,
    stats: &mut DriverStats,
) {
    const VISITING: Label = Label::MAX;
    let n = rt.n();
    rt.set_phase(Phase::OrderingOther);
    rt.set_dense_at(DenseTarget::Order, root, VISITING);
    let mut acc = rt.singleton(root, 0);
    let mut cur = acc.clone();
    let mut cur_nnz = 1usize;
    // Vertices the pull mask (R = -1) admits: not yet labeled in previous
    // components (n - nv) and not stamped VISITING in this one.
    let mut remaining = n - *nv as usize - 1;
    let mut level: Label = 0;
    loop {
        let direction = resolve_direction(
            rt,
            policy,
            stats.push_expands + stats.pull_expands,
            cur_nnz,
            remaining,
            n,
        );
        let next = expand_frontier(
            rt,
            &cur,
            DenseTarget::Order,
            direction,
            Phase::OrderingSpmspv,
            Phase::OrderingOther,
            stats,
        );
        if !rt.is_nonempty(&next) {
            break;
        }
        let mut next = next;
        level += 1;
        rt.stamp(&mut next, level);
        let mut mark = next.clone();
        rt.stamp(&mut mark, VISITING);
        rt.set_dense(DenseTarget::Order, &mark);
        rt.append(&mut acc, &next);
        cur_nnz = rt.frontier_nnz(&next);
        remaining -= cur_nnz;
        cur = next;
    }
    rt.set_phase(Phase::OrderingSort);
    let (labels, count) = rt.sortperm(&acc, (0, level + 1), *nv);
    rt.set_phase(Phase::OrderingOther);
    rt.set_dense(DenseTarget::Order, &labels);
    *nv += count as Label;
    stats.levels += level as usize;
}

/// Run the full Cuthill-McKee pipeline (Algorithm 3 per connected
/// component) on any backend under an explicit frontier-direction policy
/// and an explicit [`StartNodeStrategy`]. On return the backend's ordering
/// vector `R` holds the unreversed CM labels; extraction (reversal,
/// mapping back to original ids) is backend-specific.
///
/// Components are seeded at the unvisited vertex of minimum
/// `(degree, vertex)` and handed to the strategy for refinement (the
/// default [`StartNode::GeorgeLiu`] runs Algorithm 4, exactly like the
/// classical driver) — all backends therefore produce the identical label
/// assignment for a given strategy, under **every** direction policy (the
/// pull expansion is specified to reproduce the push pair bit for bit;
/// only the cost differs).
pub fn drive_cm_with<R: RcmRuntime, S: StartNodeStrategy + ?Sized>(
    rt: &mut R,
    mode: LabelingMode,
    policy: ExpandDirection,
    strategy: &S,
) -> DriverStats {
    let n = rt.n();
    let mut stats = DriverStats::default();
    let mut nv: Label = 0;
    while (nv as usize) < n {
        rt.set_phase(Phase::PeripheralOther);
        let seed = rt
            .find_unvisited_min_degree()
            .expect("an unvisited vertex exists");
        let (root, pstat) = strategy.select(rt, seed, policy, &mut stats);
        stats.peripheral_stats.push(pstat);
        stats.components += 1;
        label_component(rt, root, &mut nv, mode, policy, &mut stats);
    }
    stats.spmspv_work = rt.spmspv_work();
    stats
}

/// Backend selector of an [`crate::OrderingEngine`]
/// ([`crate::EngineConfig::backend`]) — the uniform switch the
/// cross-backend tests and the `repro backends` sweep use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// [`crate::backends::SerialBackend`], the sequential specification.
    Serial,
    /// [`crate::backends::PooledBackend`] with this many worker threads.
    Pooled {
        /// Worker threads.
        threads: usize,
    },
    /// [`crate::backends::DistBackend`], flat MPI (1 thread/process).
    Dist {
        /// Total cores (= processes; must form a square grid).
        cores: usize,
    },
    /// [`crate::backends::HybridBackend`] (MPI × OpenMP, Fig. 6).
    Hybrid {
        /// Total cores.
        cores: usize,
        /// Threads per MPI process (> 1).
        threads_per_proc: usize,
    },
}

impl BackendKind {
    /// Short display name (`serial`, `pooled`, `dist`, `hybrid`).
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Serial => "serial",
            BackendKind::Pooled { .. } => "pooled",
            BackendKind::Dist { .. } => "dist",
            BackendKind::Hybrid { .. } => "hybrid",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcm_sparse::{CooBuilder, CscMatrix, Permutation};

    fn path(n: usize) -> CscMatrix {
        let mut b = CooBuilder::new(n, n);
        for v in 0..n - 1 {
            b.push_sym(v as Vidx, (v + 1) as Vidx);
        }
        b.build()
    }

    /// `a`'s RCM permutation from a fresh single-use engine.
    fn engine_rcm(a: &CscMatrix, kind: BackendKind, direction: ExpandDirection) -> Permutation {
        let config = crate::EngineConfig::builder()
            .backend(kind)
            .direction(direction)
            .build();
        crate::OrderingEngine::new(config).order(a).perm
    }

    /// The classical driver: George–Liu start nodes under `policy`.
    fn george_liu<R: RcmRuntime>(rt: &mut R, policy: ExpandDirection) -> DriverStats {
        drive_cm_with(rt, LabelingMode::PerLevel, policy, &StartNode::GeorgeLiu)
    }

    #[test]
    fn backend_kinds_have_names() {
        assert_eq!(BackendKind::Serial.name(), "serial");
        assert_eq!(BackendKind::Pooled { threads: 2 }.name(), "pooled");
        assert_eq!(BackendKind::Dist { cores: 4 }.name(), "dist");
        assert_eq!(
            BackendKind::Hybrid {
                cores: 24,
                threads_per_proc: 6
            }
            .name(),
            "hybrid"
        );
    }

    #[test]
    fn rcm_with_backend_agrees_across_all_kinds() {
        let a = path(23);
        let adaptive = ExpandDirection::Adaptive;
        let expect = engine_rcm(&a, BackendKind::Serial, adaptive);
        for kind in [
            BackendKind::Pooled { threads: 3 },
            BackendKind::Dist { cores: 4 },
            BackendKind::Hybrid {
                cores: 24,
                threads_per_proc: 6,
            },
        ] {
            assert_eq!(
                engine_rcm(&a, kind, adaptive),
                expect,
                "{} diverged",
                kind.name()
            );
        }
    }

    #[test]
    fn driver_stats_count_components() {
        use crate::backends::SerialBackend;
        let mut b = CooBuilder::new(7, 7);
        b.push_sym(0, 1);
        b.push_sym(2, 3);
        b.push_sym(3, 4);
        let a = b.build();
        let mut rt = SerialBackend::new(&a);
        let stats = george_liu(&mut rt, ExpandDirection::Adaptive);
        assert_eq!(stats.components, 4); // {0,1}, {2,3,4}, {5}, {6}
        assert!(stats.spmspv_work > 0);
        let labeled: usize = stats.level_stats.iter().map(|l| l.frontier).sum();
        assert_eq!(labeled + stats.components, 7);
    }

    #[test]
    fn direction_names_parse_and_roundtrip() {
        for d in [
            ExpandDirection::Push,
            ExpandDirection::Pull,
            ExpandDirection::Adaptive,
            ExpandDirection::Alternating,
        ] {
            assert_eq!(ExpandDirection::parse(d.name()), Some(d));
        }
        assert_eq!(
            ExpandDirection::parse("ALTERNATING"),
            Some(ExpandDirection::Alternating)
        );
        assert_eq!(ExpandDirection::parse("sideways"), None);
    }

    #[test]
    fn adaptive_policy_needs_both_thresholds() {
        let adaptive = ExpandDirection::Adaptive;
        let n = 1000;
        // Fat frontier, comparable remaining: pull.
        assert_eq!(
            adaptive.choose(0, 400, 500, n),
            ExpandDirection::Pull,
            "ALPHA and BETA both satisfied"
        );
        // Thin frontier, huge remaining: push (ALPHA fails).
        assert_eq!(adaptive.choose(0, 10, 900, n), ExpandDirection::Push);
        // Thin frontier, tiny remaining: push (ALPHA passes, BETA fails) —
        // the dense Θ(n) pull cost is not amortized on late thin levels.
        assert_eq!(adaptive.choose(0, 10, 12, n), ExpandDirection::Push);
        // Forced modes ignore the counts entirely.
        assert_eq!(
            ExpandDirection::Push.choose(1, 400, 500, n),
            ExpandDirection::Push
        );
        assert_eq!(
            ExpandDirection::Pull.choose(0, 1, 900, n),
            ExpandDirection::Pull
        );
        // Alternating flips on the expansion parity.
        assert_eq!(
            ExpandDirection::Alternating.choose(0, 1, 900, n),
            ExpandDirection::Push
        );
        assert_eq!(
            ExpandDirection::Alternating.choose(1, 1, 900, n),
            ExpandDirection::Pull
        );
    }

    #[test]
    fn forced_directions_are_bit_identical_on_the_serial_backend() {
        use crate::backends::SerialBackend;
        let a = path(40);
        let reference = {
            let mut rt = SerialBackend::new(&a);
            george_liu(&mut rt, ExpandDirection::Push);
            rt.into_order()
        };
        for policy in [
            ExpandDirection::Pull,
            ExpandDirection::Adaptive,
            ExpandDirection::Alternating,
        ] {
            let mut rt = SerialBackend::new(&a);
            let stats = george_liu(&mut rt, policy);
            assert_eq!(rt.into_order(), reference, "{} diverged", policy.name());
            match policy {
                ExpandDirection::Pull => {
                    assert_eq!(stats.push_expands, 0);
                    assert!(stats.pull_expands > 0);
                    assert!(stats
                        .level_stats
                        .iter()
                        .all(|l| l.direction == ExpandDirection::Pull));
                }
                ExpandDirection::Alternating => {
                    assert!(stats.push_expands > 0 && stats.pull_expands > 0);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn startnode_names_parse_and_roundtrip() {
        for s in [
            StartNode::GeorgeLiu,
            StartNode::BiCriteria,
            StartNode::MinDegree,
        ] {
            assert_eq!(StartNode::parse(s.name()), Some(s));
        }
        assert_eq!(StartNode::parse("RCM++"), Some(StartNode::BiCriteria));
        assert_eq!(StartNode::parse("fixed:7"), Some(StartNode::Fixed(7)));
        assert_eq!(StartNode::parse("7"), Some(StartNode::Fixed(7)));
        assert_eq!(StartNode::parse("sideways"), None);
        assert_eq!(StartNode::default(), StartNode::GeorgeLiu);
    }

    #[test]
    fn cache_salts_distinguish_every_strategy() {
        let salts = [
            StartNode::GeorgeLiu.cache_salt(),
            StartNode::BiCriteria.cache_salt(),
            StartNode::MinDegree.cache_salt(),
            StartNode::Fixed(0).cache_salt(),
            StartNode::Fixed(1).cache_salt(),
        ];
        for i in 0..salts.len() {
            for j in i + 1..salts.len() {
                assert_ne!(salts[i], salts[j], "salt {i} aliases salt {j}");
            }
        }
        assert_eq!(StartNode::GeorgeLiu.cache_salt(), 0);
    }

    #[test]
    fn george_liu_strategy_is_the_classical_driver_bit_for_bit() {
        use crate::backends::SerialBackend;
        let a = crate::testutil::scrambled_grid(9, 7);
        let degrees = a.degrees();
        let seed = (0..a.n_rows() as Vidx)
            .min_by_key(|&v| (degrees[v as usize], v))
            .unwrap();
        let classical = crate::peripheral::pseudo_peripheral_with_degrees(&a, seed, &degrees);
        let mut rt = SerialBackend::new(&a);
        let stats = drive_cm_with(
            &mut rt,
            LabelingMode::PerLevel,
            ExpandDirection::Push,
            &StartNode::GeorgeLiu,
        );
        assert_eq!(rt.into_cm_permutation(), crate::serial::cuthill_mckee(&a));
        assert_eq!(stats.peripheral_bfs, classical.bfs_count);
        assert_eq!(stats.peripheral_stats.len(), stats.components);
        let p = &stats.peripheral_stats[0];
        assert_eq!(
            (p.start, p.eccentricity),
            (classical.vertex, classical.eccentricity)
        );
        assert!(p.sweeps >= 1 && p.levels >= p.eccentricity && p.eccentricity >= 1);
    }

    #[test]
    fn bi_criteria_never_runs_more_sweeps_than_george_liu() {
        use crate::backends::SerialBackend;
        for a in [
            path(200),
            crate::testutil::scrambled_grid(16, 5),
            crate::testutil::scrambled_grid(40, 11),
        ] {
            let run = |s: StartNode| {
                let mut rt = SerialBackend::new(&a);
                let stats =
                    drive_cm_with(&mut rt, LabelingMode::PerLevel, ExpandDirection::Push, &s);
                (rt.into_order(), stats)
            };
            let (_, gl) = run(StartNode::GeorgeLiu);
            let (_, bc) = run(StartNode::BiCriteria);
            assert!(
                bc.peripheral_bfs <= gl.peripheral_bfs,
                "bi-criteria ran {} sweeps vs george-liu's {}",
                bc.peripheral_bfs,
                gl.peripheral_bfs
            );
        }
    }

    #[test]
    fn min_degree_orders_with_zero_sweeps() {
        use crate::backends::SerialBackend;
        let a = crate::testutil::scrambled_grid(8, 3);
        let mut rt = SerialBackend::new(&a);
        let stats = drive_cm_with(
            &mut rt,
            LabelingMode::PerLevel,
            ExpandDirection::Push,
            &StartNode::MinDegree,
        );
        assert_eq!(stats.peripheral_bfs, 0);
        assert!(stats
            .peripheral_stats
            .iter()
            .all(|p| p.sweeps == 0 && p.eccentricity == 0));
        // Still a valid bijective labeling.
        let order = rt.into_order();
        let mut seen = vec![false; order.len()];
        for &l in &order {
            assert!((l as usize) < order.len() && !seen[l as usize]);
            seen[l as usize] = true;
        }
    }

    #[test]
    fn fixed_vertex_is_honored_and_out_of_range_falls_back() {
        use crate::backends::SerialBackend;
        let a = path(9);
        let mut rt = SerialBackend::new(&a);
        let stats = drive_cm_with(
            &mut rt,
            LabelingMode::PerLevel,
            ExpandDirection::Push,
            &StartNode::Fixed(4),
        );
        assert_eq!(stats.peripheral_stats[0].start, 4);
        assert_eq!(stats.peripheral_bfs, 0);
        // The requested vertex gets the first CM label.
        assert_eq!(rt.into_order()[4], 0);

        // Out of range: identical to George–Liu.
        let reference = {
            let mut rt = SerialBackend::new(&a);
            george_liu(&mut rt, ExpandDirection::Push);
            rt.into_order()
        };
        let mut rt = SerialBackend::new(&a);
        let stats = drive_cm_with(
            &mut rt,
            LabelingMode::PerLevel,
            ExpandDirection::Push,
            &StartNode::Fixed(99),
        );
        assert!(stats.peripheral_bfs >= 1);
        assert_eq!(rt.into_order(), reference);
    }

    #[test]
    fn rcm_with_backend_directed_agrees_across_kinds_and_directions() {
        let a = path(23);
        let expect = engine_rcm(&a, BackendKind::Serial, ExpandDirection::Push);
        for direction in [
            ExpandDirection::Push,
            ExpandDirection::Pull,
            ExpandDirection::Adaptive,
            ExpandDirection::Alternating,
        ] {
            for kind in [
                BackendKind::Serial,
                BackendKind::Pooled { threads: 3 },
                BackendKind::Dist { cores: 4 },
                BackendKind::Hybrid {
                    cores: 24,
                    threads_per_proc: 6,
                },
            ] {
                assert_eq!(
                    engine_rcm(&a, kind, direction),
                    expect,
                    "{} diverged under {}",
                    kind.name(),
                    direction.name()
                );
            }
        }
    }
}
