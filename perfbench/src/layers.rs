//! The traced run's per-layer probes. Each probe times calls into one
//! layer's public functions on the workload's own inputs, checks their
//! outputs, and records the layer's metrics.

use crate::cli::{perm_file_matches, run_cli};
use crate::common::{dist_config, engine_config, Ctx, Outcome, DIRECTION, SIM_BACKEND, START};
use crate::stats::{median, ms, percentile, repeat_ms};
use crate::traced::{self, TracedRun, PRIMITIVES};
use rcm_core::{
    ordering_wavefront, quality_report, BackendKind, OrderingEngine, OrderingRequest,
    OrderingService, ServiceConfig,
};
use rcm_dist::Phase;
use rcm_sparse::{connected_components, mm, ComponentSplit, CscMatrix, Permutation};
use std::path::Path;
use std::time::{Duration, Instant};

/// Enough repetitions for a median: at least three, and at least
/// `MIN_SPAN` of work, at most 200.
const MIN_SPAN: Duration = Duration::from_millis(300);

fn reps(f: impl FnMut()) -> Vec<f64> {
    repeat_ms(3, 200, MIN_SPAN, f)
}

/// The single matrix the per-matrix layers are probed on, with its file
/// and reference ordering.
pub struct Probe<'a> {
    pub primary: &'a CscMatrix,
    pub mm_file: &'a Path,
    pub reference: &'a Permutation,
    /// The workload's engine backend: driver phases and the tracing
    /// overhead are measured on it.
    pub backend: BackendKind,
    pub split: bool,
    /// Median `rcm-order` latency on `mm_file` and the summed medians of
    /// its in-process layers, when the workload measured them interleaved
    /// (0 = measure here).
    pub cli_latency_ms: f64,
    pub cli_inprocess_ms: f64,
}

const PHASES: [(Phase, &str); 5] = [
    (Phase::PeripheralSpmspv, "peripheral_spmspv"),
    (Phase::PeripheralOther, "peripheral_other"),
    (Phase::OrderingSpmspv, "ordering_spmspv"),
    (Phase::OrderingSort, "ordering_sort"),
    (Phase::OrderingOther, "ordering_other"),
];

/// Layer self times a workload reconciles against its end-to-end median.
pub struct Spans {
    /// The workload backend's median traced ordering: install, the five
    /// driver phases, extraction, and the report's quality metrics.
    pub engine: Vec<(&'static str, f64)>,
    /// Median untraced `OrderingEngine::order` on the same backend,
    /// interleaved with the traced orderings.
    pub engine_e2e_ms: f64,
}

/// Run every single-matrix probe and the sparse-kernel probes over
/// `engine_set`.
pub fn probe_all(ctx: &Ctx, p: &Probe, engine_set: &[&CscMatrix], out: &mut Outcome) -> Spans {
    let read_ms = probe_mm(p, out);
    let order_ms = probe_engine(ctx, p, engine_set, out);
    let quality_ms = probe_quality(p, out);
    let write_ms = probe_write_perm(ctx, p, out);
    let in_process = vec![
        ("mm.read_ms", read_ms),
        ("engine.order_ms", order_ms),
        ("quality.cli_report_ms", quality_ms),
        ("cli.write_perm_ms", write_ms),
    ];
    probe_cli(ctx, p, &in_process, out);
    let (engine, engine_e2e_ms) = probe_driver(ctx, p, out);
    probe_sparse(engine_set, out);
    Spans {
        engine,
        engine_e2e_ms,
    }
}

fn probe_mm(p: &Probe, out: &mut Outcome) -> f64 {
    let mut same = true;
    let t = reps(|| {
        let a = mm::read_pattern_file(p.mm_file);
        same &= a.as_ref().is_ok_and(|a| a == p.primary);
    });
    out.check(same, || {
        "Matrix Market read-back differs from the input".into()
    });
    let bytes = std::fs::metadata(p.mm_file).map_or(0, |m| m.len()) as f64;
    let read = median(&t);
    out.sheet.put("mm.read_ms", read, "ms", t.len());
    out.sheet
        .put("mm.read_mb_s", bytes / 1e6 / (read / 1e3), "MB/s", t.len());
    read
}

/// The engine layer on the workload's backend, and the pool layer
/// (pooled against serial on the primary matrix).
fn probe_engine(ctx: &Ctx, p: &Probe, set: &[&CscMatrix], out: &mut Outcome) -> f64 {
    let (order, drive, growth) = engine_times(p.backend, p.split, set, out);
    out.sheet
        .put("engine.order_ms", median(&order), "ms", order.len());
    out.sheet
        .put("engine.drive_ms", median(&drive), "ms", drive.len());
    out.sheet.put(
        "engine.report_ms",
        median(&order) - median(&drive),
        "ms",
        order.len(),
    );
    out.sheet
        .put("engine.growth_events", growth as f64, "count", order.len());

    let pooled = BackendKind::Pooled {
        threads: ctx.threads,
    };
    let mut engine = OrderingEngine::new(engine_config(pooled, false));
    let mut levels = 0;
    engine.order(p.primary);
    let pool_ms = reps(|| levels = engine.order(p.primary).parallel_levels);
    let mut serial = OrderingEngine::new(engine_config(BackendKind::Serial, false));
    serial.order(p.primary);
    let serial_ms = reps(|| {
        serial.order(p.primary);
    });
    out.sheet
        .put("pool.order_ms", median(&pool_ms), "ms", pool_ms.len());
    out.sheet
        .put("pool.serial_ms", median(&serial_ms), "ms", serial_ms.len());
    out.sheet.put(
        "pool.speedup_vs_serial",
        median(&serial_ms) / median(&pool_ms),
        "ratio",
        pool_ms.len(),
    );
    out.notes.push(format!(
        "pool.speedup_vs_serial base: the serial engine on the same matrix ({:.3} ms), \
         pooled at {} threads",
        median(&serial_ms),
        ctx.threads
    ));
    out.sheet
        .put("pool.parallel_levels", levels as f64, "count", 1);
    median(&pool_ms)
}

/// Warm-engine order and drive times over `set`, and growth events after
/// one warm-up pass. Every permutation is checked against the serial
/// reference of the same configuration.
pub fn engine_times(
    backend: BackendKind,
    split: bool,
    set: &[&CscMatrix],
    out: &mut Outcome,
) -> (Vec<f64>, Vec<f64>, usize) {
    let mut engine = OrderingEngine::new(engine_config(backend, split));
    let refs: Vec<Permutation> = set
        .iter()
        .map(|a| crate::common::reference(a, split))
        .collect();
    for a in set {
        engine.order(a);
    }
    let warm = engine.growth_events();
    let (mut order, mut drive) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut ok = true;
    while order.len() < 3 * set.len() || t0.elapsed() < MIN_SPAN {
        for (a, r) in set.iter().zip(&refs) {
            let t = Instant::now();
            let report = engine.order(a);
            order.push(ms(t.elapsed()));
            drive.push(report.wall_seconds * 1e3);
            ok &= report.perm == *r;
        }
        if order.len() >= 200 {
            break;
        }
    }
    out.check(ok, || {
        format!("{} engine permutation differs from serial", backend.name())
    });
    (order, drive, engine.growth_events() - warm)
}

fn probe_quality(p: &Probe, out: &mut Outcome) -> f64 {
    let t = reps(|| {
        std::hint::black_box(quality_report(p.primary, p.reference));
        std::hint::black_box(ordering_wavefront(p.primary, p.reference));
    });
    out.sheet
        .put("quality.cli_report_ms", median(&t), "ms", t.len());
    median(&t)
}

/// The CLI's permutation writer, reproduced: one decimal label per line.
pub fn write_perm(path: &Path, perm: &Permutation) {
    let mut text = String::with_capacity(perm.len() * 8);
    for v in 0..perm.len() {
        text.push_str(&perm.new_of(v as u32).to_string());
        text.push('\n');
    }
    std::fs::write(path, text).expect("write permutation");
}

fn probe_write_perm(ctx: &Ctx, p: &Probe, out: &mut Outcome) -> f64 {
    let path = ctx.work_dir.join("write-perm.txt");
    let perm = p.reference;
    let t = reps(|| write_perm(&path, perm));
    out.check(perm_file_matches(&path, perm), || {
        "written permutation reads back wrong".into()
    });
    out.sheet
        .put("cli.write_perm_ms", median(&t), "ms", t.len());
    median(&t)
}

fn probe_cli(ctx: &Ctx, p: &Probe, in_process: &[(&str, f64)], out: &mut Outcome) {
    let mut latency = p.cli_latency_ms;
    if latency == 0.0 {
        let perm_out = ctx.work_dir.join("probe.perm");
        let mut lat = Vec::new();
        let t0 = Instant::now();
        while lat.len() < 3 || (t0.elapsed() < MIN_SPAN && lat.len() < 50) {
            match run_cli(&ctx.cli_bin, p.mm_file, &perm_out, ctx.threads) {
                Ok(t) if perm_file_matches(&perm_out, p.reference) => lat.push(t),
                Ok(_) => {
                    out.errors.push("rcm-order permutation differs".into());
                    break;
                }
                Err(e) => {
                    out.errors.push(e);
                    break;
                }
            }
        }
        latency = median(&lat);
    }
    let mut layers: f64 = in_process.iter().map(|(_, t)| t).sum();
    if p.cli_inprocess_ms > 0.0 {
        layers = p.cli_inprocess_ms;
    }
    out.sheet
        .put("cli.overhead_ms", latency - layers, "ms", in_process.len());
}

/// Traced drives on the serial, pooled and hybrid backends, each checked
/// against an untraced engine on the same backend. Phase times and the
/// tracing overhead come from the workload's backend, counts and kernel
/// rates from the serial one (the only backend that counts SpMSpV work),
/// the modelled breakdown from the hybrid one.
fn probe_driver(ctx: &Ctx, p: &Probe, out: &mut Outcome) -> (Vec<(&'static str, f64)>, f64) {
    let a = p.primary;
    let mut pool = traced::pool(ctx.threads);
    let pooled = BackendKind::Pooled {
        threads: ctx.threads,
    };
    let mut drive = |kind: BackendKind| match kind {
        BackendKind::Serial => traced::serial(a, DIRECTION, START),
        BackendKind::Pooled { .. } => traced::pooled(a, &mut pool, DIRECTION, START),
        _ => traced::hybrid(a, &dist_config()),
    };
    let mut runs = Vec::new();
    let (mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new());
    let (mut e2e_ms, mut report_ms) = (Vec::new(), Vec::new());
    let mut own: Vec<TracedRun> = Vec::new();
    for kind in [BackendKind::Serial, pooled, SIM_BACKEND] {
        let mut engine = OrderingEngine::new(engine_config(kind, false));
        let report = engine.order(a);
        let run = drive(kind);
        out.check(run.perm == report.perm, || {
            format!(
                "traced {} permutation differs from the engine's",
                kind.name()
            )
        });
        out.check(traced::same_counts(&run.stats, &report.stats), || {
            format!(
                "traced {} DriverStats differ from the engine's",
                kind.name()
            )
        });
        if let (Some(x), Some(y)) = (&run.sim, &report.sim) {
            out.check(x.messages == y.messages && x.bytes == y.bytes, || {
                "traced hybrid message counts differ from the engine's".into()
            });
        }
        if kind == p.backend {
            // Interleave untraced and traced orderings on warm state; the
            // reconciliation compares their medians.
            let t0 = Instant::now();
            while own.len() < 5 || (t0.elapsed() < 10 * MIN_SPAN && own.len() < 50) {
                let t = Instant::now();
                let wall = engine.order(a).wall_seconds * 1e3;
                let whole = ms(t.elapsed());
                plain_ms.push(wall);
                e2e_ms.push(whole);
                report_ms.push(whole - wall);
                let r = drive(kind);
                traced_ms.push(r.install_ms + r.drive_ms + r.extract_ms);
                own.push(r);
            }
        }
        runs.push(run);
    }
    // Medians over the traced runs, field by field.
    let med = |f: &dyn Fn(&TracedRun) -> f64| median(&own.iter().map(f).collect::<Vec<_>>());
    let hybrid = runs.pop().expect("hybrid run");
    let serial = runs.swap_remove(0);

    for (phase, name) in PHASES {
        out.sheet.put(
            format!("driver.{name}_ms"),
            med(&|r| r.trace.phase_ms(phase)),
            "ms",
            traced_ms.len(),
        );
    }
    let ratio = median(&traced_ms) / median(&plain_ms);
    out.sheet
        .put("trace.overhead_ratio", ratio, "ratio", traced_ms.len());
    out.notes.push(format!(
        "trace.overhead_ratio base: untraced {} engine install+drive+extract {:.3} ms \
         (median of {}); traced {:.3} ms",
        p.backend.name(),
        median(&plain_ms),
        plain_ms.len(),
        median(&traced_ms)
    ));

    let s = &serial.stats;
    for (name, v) in [
        ("driver.sweeps", s.peripheral_bfs),
        ("driver.levels", s.levels),
        ("driver.spmspv_work", s.spmspv_work),
        ("driver.push_expands", s.push_expands),
        ("driver.pull_expands", s.pull_expands),
        ("driver.components", s.components),
    ] {
        out.sheet.put(name, v as f64, "count", 1);
    }
    out.sheet.put(
        "kernel.spmspv_ns_per_edge",
        serial.trace.expand_ns() as f64 / s.spmspv_work.max(1) as f64,
        "ns",
        s.spmspv_work,
    );
    out.sheet.put(
        "kernel.sortperm_ns_per_vertex",
        serial.trace.sortperm_ns() as f64 / serial.trace.sorted_vertices.max(1) as f64,
        "ns",
        serial.trace.sorted_vertices as usize,
    );
    let mut calls: Vec<(usize, (u64, u64))> =
        own[0].trace.calls.iter().copied().enumerate().collect();
    calls.sort_by_key(|&(_, (_, ns))| std::cmp::Reverse(ns));
    let busiest: Vec<String> = calls
        .iter()
        .take(4)
        .map(|&(i, (n, ns))| format!("{} {n}x {:.3} ms", PRIMITIVES[i], ns as f64 / 1e6))
        .collect();
    out.notes.push(format!(
        "busiest primitives on {}: {}",
        p.backend.name(),
        busiest.join(", ")
    ));

    let sim = hybrid.sim.as_ref().expect("hybrid runs carry a simulation");
    for (phase, name) in PHASES {
        let c = sim.breakdown.get(phase);
        out.sheet
            .put(format!("dist.{name}.compute_ms"), c.compute * 1e3, "ms", 1);
        out.sheet
            .put(format!("dist.{name}.comm_ms"), c.comm * 1e3, "ms", 1);
    }
    out.sheet
        .put("dist.messages", sim.messages as f64, "count", 1);
    out.sheet.put("dist.bytes", sim.bytes as f64, "count", 1);
    let spans = vec![
        ("install", med(&|r| r.install_ms)),
        ("driver phases", med(&|r| r.trace.total_ms())),
        ("extract", med(&|r| r.extract_ms)),
        ("report", median(&report_ms)),
    ];
    (spans, median(&e2e_ms))
}

/// Fingerprint, component detection and component carving over `set`
/// (per-matrix medians).
fn probe_sparse(set: &[&CscMatrix], out: &mut Outcome) {
    let (mut fp, mut det, mut carve) = (Vec::new(), Vec::new(), Vec::new());
    let mut pieces = 0usize;
    let mut splitter = ComponentSplit::new();
    let t0 = Instant::now();
    while fp.len() < 3 * set.len() || (t0.elapsed() < MIN_SPAN && fp.len() < 200) {
        for a in set {
            let t = Instant::now();
            std::hint::black_box(a.pattern_fingerprint());
            fp.push(ms(t.elapsed()));
            let t = Instant::now();
            let comps = connected_components(a);
            det.push(ms(t.elapsed()));
            let t = Instant::now();
            let n = splitter.split(a, &comps).len();
            carve.push(ms(t.elapsed()));
            pieces += n;
        }
    }
    out.sheet
        .put("csc.fingerprint_ms", median(&fp), "ms", fp.len());
    out.sheet
        .put("components.detect_ms", median(&det), "ms", det.len());
    out.sheet
        .put("split.carve_ms", median(&carve), "ms", carve.len());
    out.sheet.put(
        "split.pieces",
        pieces as f64 / carve.len() as f64,
        "count",
        carve.len(),
    );
}

/// Service metrics from a finished service and the per-kind latencies of
/// its operations.
pub struct ServiceSample {
    pub submit_ms: Vec<f64>,
    pub hit_ms: Vec<f64>,
    pub miss_ms: Vec<f64>,
    /// A miss's latency minus its engine time (the report's wall time).
    pub wait_ms: Vec<f64>,
    pub stats: rcm_core::ServiceStats,
}

pub fn service_metrics(s: &ServiceSample, out: &mut Outcome) {
    let st = &s.stats;
    let sub = st.submitted.max(1) as f64;
    out.sheet.put(
        "service.submit_ms",
        median(&s.submit_ms),
        "ms",
        s.submit_ms.len(),
    );
    out.sheet.put(
        "service.hit_latency_p50_ms",
        median(&s.hit_ms),
        "ms",
        s.hit_ms.len(),
    );
    out.sheet.put(
        "service.miss_latency_p50_ms",
        median(&s.miss_ms),
        "ms",
        s.miss_ms.len(),
    );
    out.sheet.put(
        "service.miss_latency_p99_ms",
        percentile(&s.miss_ms, 0.99),
        "ms",
        s.miss_ms.len(),
    );
    out.sheet
        .put("service.wait_ms", median(&s.wait_ms), "ms", s.wait_ms.len());
    out.sheet.put(
        "service.hit_ratio",
        st.cache_hits as f64 / sub,
        "ratio",
        st.submitted,
    );
    out.sheet.put(
        "service.coalesced_ratio",
        st.coalesced as f64 / sub,
        "ratio",
        st.submitted,
    );
    out.sheet.put(
        "service.batched_ratio",
        st.batched as f64 / sub,
        "ratio",
        st.submitted,
    );
    out.sheet.put(
        "service.evictions",
        st.cache_evictions as f64,
        "count",
        st.submitted,
    );
    let mean = st.per_shard.iter().sum::<usize>() as f64 / st.per_shard.len().max(1) as f64;
    let max = st.per_shard.iter().copied().max().unwrap_or(0) as f64;
    out.sheet.put(
        "service.shard_imbalance",
        if mean > 0.0 { max / mean } else { 1.0 },
        "ratio",
        st.per_shard.len(),
    );
}

/// The service layer on a single-matrix workload: the primary matrix is
/// submitted twice back to back (a miss and a coalesced duplicate), then
/// once more (a cache hit), several times over on fresh services.
pub fn mini_service(ctx: &Ctx, p: &Probe, out: &mut Outcome) {
    let mut s = ServiceSample {
        submit_ms: Vec::new(),
        hit_ms: Vec::new(),
        miss_ms: Vec::new(),
        wait_ms: Vec::new(),
        stats: Default::default(),
    };
    let t0 = Instant::now();
    let mut rounds = 0;
    while rounds < 3 || (t0.elapsed() < MIN_SPAN && rounds < 20) {
        rounds += 1;
        let service = OrderingService::start(
            ServiceConfig::new(engine_config(BackendKind::Serial, true)).shards(ctx.threads),
        );
        let submit = |s: &mut ServiceSample| {
            let t = Instant::now();
            let h = service.submit(OrderingRequest::new(p.primary.clone()));
            s.submit_ms.push(ms(t.elapsed()));
            h
        };
        let first = submit(&mut s);
        let dup = submit(&mut s);
        let (r1, l1) = crate::service::wait_bounded(&first);
        let (r2, _) = crate::service::wait_bounded(&dup);
        let hit = submit(&mut s);
        let (r3, l3) = crate::service::wait_bounded(&hit);
        let ok = [&r1, &r2, &r3]
            .iter()
            .all(|r| r.as_ref().is_some_and(|r| r.perm == *p.reference));
        out.check(ok, || {
            "service permutation differs from the reference".into()
        });
        if let Some(r) = &r1 {
            s.miss_ms.push(l1);
            s.wait_ms.push(l1 - r.wall_seconds * 1e3);
        }
        if r3.is_some() {
            s.hit_ms.push(l3);
        }
        let st = service.stats();
        s.stats.submitted += st.submitted;
        s.stats.cache_hits += st.cache_hits;
        s.stats.coalesced += st.coalesced;
        s.stats.batched += st.batched;
        s.stats.cache_evictions += st.cache_evictions;
        if s.stats.per_shard.is_empty() {
            s.stats.per_shard = vec![0; st.per_shard.len()];
        }
        for (acc, n) in s.stats.per_shard.iter_mut().zip(&st.per_shard) {
            *acc += n;
        }
    }
    service_metrics(&s, out);
}

/// Print the reconciliation of a traced run and hold its residual to
/// `[lo, hi]` times the end-to-end figure (`stat` names it: median or
/// mean). A layer left out shows as a large positive residual; the lower
/// limit only bounds timing noise.
pub fn reconcile(
    out: &mut Outcome,
    workload: &str,
    stat: &str,
    e2e_ms: f64,
    layers: &[(&str, f64)],
    (lo, hi): (f64, f64),
) {
    let sum: f64 = layers.iter().map(|(_, t)| t).sum();
    let residual = e2e_ms - sum;
    let parts: Vec<String> = layers.iter().map(|(n, t)| format!("{n} {t:.3}")).collect();
    out.notes.push(format!(
        "reconcile {workload}: end-to-end {stat} {e2e_ms:.3} ms, layer self times {sum:.3} ms \
         ({}), residual {residual:.3} ms = {:.1}% (tolerance {:.0}% to {:.0}%)",
        parts.join(" + "),
        100.0 * residual / e2e_ms,
        100.0 * lo,
        100.0 * hi
    ));
    out.sheet.put(
        "trace.residual_ratio",
        residual / e2e_ms,
        "ratio",
        layers.len(),
    );
    out.check(residual >= lo * e2e_ms && residual <= hi * e2e_ms, || {
        format!("{workload}: residual {residual:.3} ms outside tolerance of {e2e_ms:.3} ms")
    });
}
