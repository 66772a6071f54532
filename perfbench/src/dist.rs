//! `dist-sim`: the paper's algorithm on the simulated runtime — a warm
//! engine on the hybrid backend at 1014 cores (13×13 six-thread
//! processes), closed loop with one client.

use crate::common::{engine_config, quality_ratios, reference, Ctx, Outcome, SIM_BACKEND};
use crate::gauge::{Gauge, GAUGE_RUNS};
use crate::inputs::{csc_bytes, ldoor_class};
use crate::layers::{self, Probe};
use crate::stats::{median, ms, Rounds};
use crate::{alloc, host};
use rcm_core::OrderingEngine;
use rcm_sparse::{mm, Permutation};
use std::time::Instant;

/// Shuffles of the matrix the loop cycles through. Where RCM starts
/// depends on the labelling, so one shuffle alone makes the quality ratios
/// jump between seeds; four average that out.
const VARIANTS: usize = 4;
/// Seconds per measured round: about ten orderings, each followed by
/// a gauge reading.
const ROUND_S: f64 = 1.0;
/// Engines built and warmed for the set-up time; the last one is measured.
const SETUPS: usize = 7;

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mats = ldoor_class(ctx.seed, VARIANTS);
    let refs: Vec<Permutation> = mats.iter().map(|a| reference(a, false)).collect();
    out.notes.push(format!(
        "working set: {VARIANTS} shuffles of {:.1} MB CSC ({} rows, {} nnz) on a 13x13 grid \
         of 6-thread processes; L2 {:.1} MiB per core, L3 {:.1} MiB shared",
        csc_bytes(&mats[0]) as f64 / 1e6,
        mats[0].n_rows(),
        mats[0].nnz(),
        host::cache_bytes(2).map_or(0.0, host::mib),
        host::cache_bytes(3).map_or(0.0, host::mib),
    ));

    // Set-up: engine construction plus one warm-up ordering.
    let mut gauge = Gauge::new(1);
    let (mut setup, mut setup_gauge) = (Vec::new(), Vec::new());
    let mut engine = None;
    let mut baseline = 0;
    for i in 0..SETUPS {
        if i + 1 == SETUPS {
            baseline = alloc::live();
            alloc::reset_peak();
        }
        let t = Instant::now();
        let mut e = OrderingEngine::new(engine_config(SIM_BACKEND, false));
        let ok = e.order(&mats[0]).perm == refs[0];
        setup.push(t.elapsed().as_secs_f64());
        setup_gauge.push(gauge.read(GAUGE_RUNS));
        out.check(ok, || {
            "warm-up permutation differs from the reference".into()
        });
        engine = Some(e);
    }
    let mut engine = engine.expect("set-up ran");
    // The modelled time is deterministic: one ordering per shuffle.
    let sim: Vec<f64> = mats
        .iter()
        .map(|a| engine.order(a).sim_seconds() * 1e3)
        .collect();

    let mut rounds = Rounds::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds {
        let k = out.attempted % VARIANTS;
        out.attempted += 1;
        let t = Instant::now();
        let report = engine.order(&mats[k]);
        let dt = ms(t.elapsed());
        let round = (start.elapsed().as_secs_f64() / ROUND_S) as usize;
        if report.perm == refs[k] {
            rounds.push(round, dt);
            rounds.active(round, dt / 1e3);
        } else {
            out.failed += 1;
        }
        rounds.gauge(round, gauge.read(1));
    }
    let lat = rounds.raw();
    let peak = alloc::peak().saturating_sub(baseline);

    if !ctx.trace {
        out.latency_metrics(&rounds);
        out.setup_metric(&setup, &setup_gauge);
        out.sheet.put("peak_heap_mb", peak as f64 / 1e6, "MB", 1);
        let (bw, pr) = quality_ratios(mats.iter().zip(&refs));
        out.sheet.put("bandwidth_ratio", bw, "ratio", VARIANTS);
        out.sheet.put("profile_ratio", pr, "ratio", VARIANTS);
        let mean_sim = sim.iter().sum::<f64>() / VARIANTS as f64;
        out.sheet.put("sim_ms", mean_sim, "ms", VARIANTS);
        return out;
    }

    let mtx = ctx.work_dir.join(format!("dist-sim-{}.mtx", ctx.seed));
    mm::write_pattern_file(&mats[0], &mtx).expect("write the probe input");
    let probe = Probe {
        primary: &mats[0],
        mm_file: &mtx,
        reference: &refs[0],
        backend: SIM_BACKEND,
        split: false,
        cli_latency_ms: 0.0,
        cli_inprocess_ms: 0.0,
    };
    let spans = layers::probe_all(ctx, &probe, &[&mats[0]], &mut out);
    layers::mini_service(ctx, &probe, &mut out);
    out.notes.push(format!(
        "traced run's own loop: latency p50 {:.3} ms over {} orderings (the untraced run's \
         latency_p50_ms less this is the tracing overhead)",
        median(&lat),
        lat.len()
    ));
    // Reconciliation: a warm-engine ordering is install (the 2D
    // decomposition), the five driver phases, extraction, and the report's
    // quality metrics, timed on traced orderings interleaved with untraced
    // ones.
    layers::reconcile(
        &mut out,
        "dist-sim",
        "median",
        spans.engine_e2e_ms,
        &spans.engine,
        (-0.50, 0.30),
    );
    out
}
