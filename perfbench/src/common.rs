//! Configuration shared by every workload, the run context, and the
//! result each workload hands back.

use crate::stats::{median, percentile, Rounds, Sheet};
use rcm_core::{
    BackendKind, DistRcmConfig, EngineConfig, ExpandDirection, OrderingEngine, StartNode,
};
use rcm_sparse::{CscMatrix, Permutation};
use std::path::PathBuf;
use std::time::Duration;

/// Every engine runs the default policies, spelled out so no environment
/// variable can change them.
pub const DIRECTION: ExpandDirection = ExpandDirection::Adaptive;
pub const START: StartNode = StartNode::GeorgeLiu;

/// The paper's headline configuration: 1014 cores as 169 six-thread
/// processes on a 13×13 grid, the square grid nearest 1024 cores.
pub const SIM_BACKEND: BackendKind = BackendKind::Hybrid {
    cores: 1014,
    threads_per_proc: 6,
};

/// The longest any single operation may take before it counts as failed.
pub const OP_DEADLINE: Duration = Duration::from_secs(60);

pub fn engine_config(backend: BackendKind, split: bool) -> EngineConfig {
    EngineConfig::builder()
        .backend(backend)
        .direction(DIRECTION)
        .start_node(START)
        .split_components(split)
        .build()
}

pub fn dist_config() -> DistRcmConfig {
    let mut c = DistRcmConfig::hybrid_on_edison(1014);
    c.direction = DIRECTION;
    c.start_node = START;
    c
}

/// The serial-backend reference ordering of `a` under the same policies.
pub fn reference(a: &CscMatrix, split: bool) -> Permutation {
    OrderingEngine::new(engine_config(BackendKind::Serial, split))
        .order(a)
        .perm
}

/// Modelled Edison milliseconds of ordering `a` on [`SIM_BACKEND`].
pub fn sim_ms(a: &CscMatrix) -> f64 {
    OrderingEngine::new(engine_config(SIM_BACKEND, false))
        .order(a)
        .sim_seconds()
        * 1e3
}

/// What every workload receives.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
    pub cli_bin: PathBuf,
    pub work_dir: PathBuf,
}

/// What every workload returns.
#[derive(Default)]
pub struct Outcome {
    pub sheet: Sheet,
    pub attempted: usize,
    pub failed: usize,
    /// Failed checks other than per-operation failures.
    pub errors: Vec<String>,
    /// Lines printed before the result (working set, reconciliation, ...).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// `setup_s` at the reference speed (see [`crate::gauge`]): set-up `i`
    /// took `raw_s[i]` seconds while the gauge read `gauge_ms[i]`.
    pub fn setup_metric(&mut self, raw_s: &[f64], gauge_ms: &[f64]) {
        let scaled: Vec<f64> = raw_s
            .iter()
            .zip(gauge_ms)
            .map(|(s, g)| s * crate::gauge::factor(*g))
            .collect();
        self.sheet
            .put("setup_s", median(&scaled), "s", scaled.len());
        self.notes.push(format!(
            "raw (unscaled) setup_s median {:.6} s over {} set-ups",
            median(raw_s),
            raw_s.len()
        ));
    }

    /// The latency, throughput and failure metrics of a measured loop, at
    /// the reference speed (see [`crate::gauge`]); the raw figures go to
    /// the notes.
    pub fn latency_metrics(&mut self, rounds: &Rounds) {
        let (raw, scaled) = (rounds.raw(), rounds.scaled());
        let n = raw.len();
        for (name, q) in [
            ("latency_p50_ms", 0.5),
            ("latency_p90_ms", 0.9),
            ("latency_p99_ms", 0.99),
        ] {
            self.sheet.put(name, percentile(&scaled, q), "ms", n);
        }
        let (raw_rate, rate) = rounds.rates();
        self.sheet.put("throughput_ops", rate, "ops/s", n);
        self.notes.push(format!(
            "raw (unscaled) latency p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, throughput \
             {raw_rate:.3} ops/s over {} rounds; gauge median {:.4} ms (nominal {} ms)",
            percentile(&raw, 0.5),
            percentile(&raw, 0.9),
            percentile(&raw, 0.99),
            rounds.count(),
            rounds.gauge_median(),
            crate::gauge::NOMINAL_MS
        ));
        let per_round: Vec<String> = rounds
            .per_round()
            .iter()
            .map(|(l, g)| format!("{l:.3}/{g:.4}"))
            .collect();
        self.notes.push(format!(
            "per round, raw latency p50 / gauge ms: {}",
            per_round.join(" ")
        ));
        self.notes.push(format!(
            "failed_ratio = {} ({} failed of {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        ));
    }
}

/// Quality of a set of orderings as after/before ratios of summed
/// bandwidth and profile.
pub fn quality_ratios<'a>(
    pairs: impl IntoIterator<Item = (&'a CscMatrix, &'a Permutation)>,
) -> (f64, f64) {
    let (mut bw0, mut bw1, mut pr0, mut pr1) = (0f64, 0f64, 0f64, 0f64);
    for (a, p) in pairs {
        let q = rcm_core::quality_report(a, p);
        bw0 += q.bandwidth_before as f64;
        bw1 += q.bandwidth_after as f64;
        pr0 += q.profile_before as f64;
        pr1 += q.profile_after as f64;
    }
    (bw1 / bw0.max(1.0), pr1 / pr0.max(1.0))
}
