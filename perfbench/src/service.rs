//! `service-stream`: an `OrderingService` fed by a solver-pipeline-like
//! stream from `nproc` client threads, each keeping a fixed window of
//! requests outstanding (closed loop: a client submits its next request
//! only when its oldest one completes). The window is measured in
//! one-second rounds; between rounds the clients drain and the host-speed
//! gauge reads an idle service.

use crate::common::{engine_config, quality_ratios, reference, sim_ms, Ctx, Outcome, OP_DEADLINE};
use crate::gauge::{Gauge, GAUGE_RUNS};
use crate::inputs::{csc_bytes, stream_inputs, Rng, StreamInputs};
use crate::layers::{self, Probe, ServiceSample};
use crate::stats::{ms, Rounds};
use crate::{alloc, host};
use rcm_core::{
    BackendKind, CacheOutcome, JobHandle, OrderingEngine, OrderingReport, OrderingRequest,
    OrderingService, ServiceConfig,
};
use rcm_sparse::{mm, CscMatrix, Permutation};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Requests each client keeps outstanding.
const WINDOW: usize = 8;
/// Share of requests that repeat a hot pattern.
const HOT_SHARE: f64 = 0.4;
/// Share of never-seen requests submitted twice back to back, so the
/// second coalesces onto the first while it is in flight.
const DUP_SHARE: f64 = 0.25;

/// Seconds per measured round: a few thousand requests.
const ROUND_S: f64 = 1.0;
/// Gauge runs per reading between rounds.
const ROUND_GAUGE_RUNS: usize = 10;

/// How long a client sleeps between polls of its oldest request. Latency
/// is the service's own submit-to-completion time, so polling adds no
/// error to it; the window keeps the shards' queue full meanwhile.
const POLL: Duration = Duration::from_micros(250);

/// Poll a handle until it completes or [`OP_DEADLINE`] passes. Returns the
/// report and its submit-to-completion latency in ms; `None` counts as a
/// failed operation instead of stalling the run.
pub fn wait_bounded(h: &JobHandle) -> (Option<OrderingReport>, f64) {
    let t0 = Instant::now();
    loop {
        if let Some(r) = h.try_poll() {
            return (Some(r), h.latency().map_or(0.0, ms));
        }
        if t0.elapsed() > OP_DEADLINE {
            return (None, 0.0);
        }
        std::thread::sleep(POLL);
    }
}

fn config(ctx: &Ctx) -> ServiceConfig {
    ServiceConfig::new(engine_config(BackendKind::Serial, true)).shards(ctx.threads)
}

/// Pattern id: hot patterns first, then the never-seen ring.
struct Inputs {
    mats: Vec<CscMatrix>,
    refs: Vec<Permutation>,
    hot: usize,
}

/// What one client observed, over every round.
#[derive(Default)]
struct ClientLog {
    attempted: usize,
    failed: usize,
    lat: Vec<f64>,
    submit: Vec<f64>,
    hit: Vec<f64>,
    miss: Vec<f64>,
    wait: Vec<f64>,
}

/// A client's place in its request stream, kept from round to round.
struct Client {
    rng: Rng,
    next_fresh: usize,
    dup: Option<usize>,
    log: ClientLog,
}

impl Client {
    fn new(seed: u64, c: usize) -> Self {
        Client {
            rng: Rng::new(seed, 100 + c as u64),
            next_fresh: c,
            dup: None,
            log: ClientLog::default(),
        }
    }
}

/// One round of client `c`'s closed loop: submit until `end`, then drain
/// the window. Returns the latencies (ms) of requests completed by `end`.
fn client_round(
    service: &OrderingService,
    inp: &Inputs,
    cl: &mut Client,
    clients: usize,
    end: Instant,
) -> Vec<f64> {
    let Client {
        rng,
        next_fresh,
        dup,
        log,
    } = cl;
    let mut in_window = Vec::new();
    let fresh_count = inp.mats.len() - inp.hot;
    // (handle, pattern id, whether it repeats a hot pattern)
    let mut window: VecDeque<(JobHandle, usize, bool)> = VecDeque::new();
    let mut submitting = true;
    while submitting || !window.is_empty() {
        submitting &= Instant::now() < end;
        while submitting && window.len() < WINDOW {
            let (id, hot) = if let Some(id) = dup.take() {
                (id, false)
            } else if rng.chance(HOT_SHARE) {
                (rng.range(0, inp.hot - 1), true)
            } else {
                let id = inp.hot + *next_fresh % fresh_count;
                *next_fresh += clients;
                if rng.chance(DUP_SHARE) {
                    *dup = Some(id);
                }
                (id, false)
            };
            let request = OrderingRequest::new(inp.mats[id].clone());
            let t = Instant::now();
            let h = service.submit(request);
            log.submit.push(ms(t.elapsed()));
            log.attempted += 1;
            window.push_back((h, id, hot));
        }
        let Some((h, id, hot)) = window.pop_front() else {
            break;
        };
        let (report, latency) = wait_bounded(&h);
        match report {
            Some(r) if r.perm == inp.refs[id] => {
                if Instant::now() <= end {
                    in_window.push(latency);
                }
                log.lat.push(latency);
                match r.cache {
                    Some(CacheOutcome::Miss) => {
                        log.miss.push(latency);
                        log.wait.push(latency - r.wall_seconds * 1e3);
                    }
                    _ if hot => log.hit.push(latency),
                    _ => {}
                }
            }
            _ => log.failed += 1,
        }
    }
    in_window
}

/// Start a service and order every hot pattern once (cache priming and
/// shard warm-up). Returns the service, the seconds it took, and whether
/// every warm-up permutation was right.
fn start_warm(ctx: &Ctx, inp: &Inputs) -> (OrderingService, f64, bool) {
    let t = Instant::now();
    let service = OrderingService::start(config(ctx));
    let handles: Vec<JobHandle> = inp.mats[..inp.hot]
        .iter()
        .map(|m| service.submit(OrderingRequest::new(m.clone())))
        .collect();
    let ok = handles
        .iter()
        .zip(&inp.refs)
        .all(|(h, r)| wait_bounded(h).0.is_some_and(|rep| rep.perm == *r));
    (service, t.elapsed().as_secs_f64(), ok)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let StreamInputs { hot, fresh } = stream_inputs(ctx.seed);
    let hot_n = hot.len();
    let mats: Vec<CscMatrix> = hot.into_iter().chain(fresh).collect();
    let refs: Vec<Permutation> = mats.iter().map(|m| reference(m, true)).collect();
    let inp = Inputs {
        mats,
        refs,
        hot: hot_n,
    };
    let hot_bytes: usize = inp.mats[..hot_n].iter().map(csc_bytes).sum();
    let fresh_bytes: usize = inp.mats[hot_n..].iter().map(csc_bytes).sum();
    let fresh_nnz: usize = inp.mats[hot_n..].iter().map(|m| m.nnz()).sum();
    out.notes.push(format!(
        "working set: {hot_n} hot patterns ({:.1} MB CSC), {} never-seen patterns \
         ({:.1} MB CSC, {fresh_nnz} nnz, {:.2}x the default cache bound); \
         L2 {:.1} MiB per core, L3 {:.1} MiB shared",
        hot_bytes as f64 / 1e6,
        inp.mats.len() - hot_n,
        fresh_bytes as f64 / 1e6,
        fresh_nnz as f64 / rcm_core::DEFAULT_CACHE_NNZ as f64,
        host::cache_bytes(2).map_or(0.0, host::mib),
        host::cache_bytes(3).map_or(0.0, host::mib),
    ));

    // Set-up: service construction plus warm-up, six throwaway services
    // and the measured one.
    let mut gauge = Gauge::new(ctx.threads);
    let (mut setup, mut setup_gauge) = (Vec::new(), Vec::new());
    for _ in 0..6 {
        let (service, secs, ok) = start_warm(ctx, &inp);
        out.check(ok, || {
            "warm-up permutation differs from the reference".into()
        });
        setup.push(secs);
        drop(service);
        setup_gauge.push(gauge.read(GAUGE_RUNS));
    }
    let baseline = alloc::live();
    alloc::reset_peak();
    let (service, secs, ok) = start_warm(ctx, &inp);
    out.check(ok, || {
        "warm-up permutation differs from the reference".into()
    });
    setup.push(secs);
    setup_gauge.push(gauge.read(GAUGE_RUNS));
    let before = service.stats();

    // The measured window, cut into rounds. Between rounds every client
    // has drained its window, so the gauge runs on an idle service.
    let mut clients: Vec<Client> = (0..ctx.threads).map(|c| Client::new(ctx.seed, c)).collect();
    let mut rounds = Rounds::default();
    let mut left = ctx.seconds;
    for round in 0.. {
        if left <= 0.0 {
            break;
        }
        let len = left.min(ROUND_S);
        left -= len;
        let end = Instant::now() + Duration::from_secs_f64(len);
        let done: Vec<Vec<f64>> = std::thread::scope(|s| {
            let workers: Vec<_> = clients
                .iter_mut()
                .map(|cl| {
                    let (service, inp) = (&service, &inp);
                    s.spawn(move || client_round(service, inp, cl, ctx.threads, end))
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread"))
                .collect()
        });
        for latency in done.into_iter().flatten() {
            rounds.push(round, latency);
        }
        rounds.active(round, len);
        rounds.gauge(round, gauge.read(ROUND_GAUGE_RUNS));
    }
    let logs: Vec<ClientLog> = clients.into_iter().map(|c| c.log).collect();
    let window = ctx.seconds;
    let peak = alloc::peak().saturating_sub(baseline);
    let mut stats = service.stats();
    stats.submitted -= before.submitted;
    stats.cache_hits -= before.cache_hits;
    stats.coalesced -= before.coalesced;
    stats.batched -= before.batched;
    stats.cache_evictions -= before.cache_evictions;
    for (now, then) in stats.per_shard.iter_mut().zip(&before.per_shard) {
        *now -= then;
    }

    let merged = |f: fn(&ClientLog) -> &Vec<f64>| -> Vec<f64> {
        logs.iter().flat_map(|l| f(l).iter().copied()).collect()
    };
    let lat = merged(|l| &l.lat);
    out.attempted = logs.iter().map(|l| l.attempted).sum();
    out.failed = logs.iter().map(|l| l.failed).sum();
    let completed = rounds.raw().len();

    if !ctx.trace {
        out.latency_metrics(&rounds);
        out.setup_metric(&setup, &setup_gauge);
        out.sheet.put("peak_heap_mb", peak as f64 / 1e6, "MB", 1);
        let (bw, pr) = quality_ratios(inp.mats.iter().zip(&inp.refs));
        out.sheet
            .put("bandwidth_ratio", bw, "ratio", inp.mats.len());
        out.sheet.put("profile_ratio", pr, "ratio", inp.mats.len());
        let sim: f64 = inp.mats[..hot_n].iter().map(sim_ms).sum();
        out.sheet.put("sim_ms", sim, "ms", hot_n);
        out.notes
            .push("sim_ms here is the modelled time to order the hot set once".into());
        return out;
    }
    drop(service);
    out.notes.push(format!(
        "traced run's own loop: latency p50 {:.3} ms, {:.1} ops/s (the loop is the untraced \
         one plus per-request spans)",
        crate::stats::median(&lat),
        completed as f64 / window
    ));

    layers::service_metrics(
        &ServiceSample {
            submit_ms: merged(|l| &l.submit),
            hit_ms: merged(|l| &l.hit),
            miss_ms: merged(|l| &l.miss),
            wait_ms: merged(|l| &l.wait),
            stats,
        },
        &mut out,
    );

    // Single-matrix layers on the largest hot pattern; engine and sparse
    // layers over a sample of never-seen patterns.
    let primary_id = (0..hot_n)
        .max_by_key(|&i| inp.mats[i].nnz())
        .expect("hot set is not empty");
    let primary = &inp.mats[primary_id];
    let mtx = ctx.work_dir.join("service-primary.mtx");
    mm::write_pattern_file(primary, &mtx).expect("write the probe input");
    let primary_ref = reference(primary, false);
    let sample: Vec<&CscMatrix> = inp.mats[hot_n..].iter().take(64).collect();
    let probe = Probe {
        primary,
        mm_file: &mtx,
        reference: &primary_ref,
        backend: BackendKind::Serial,
        split: true,
        cli_latency_ms: 0.0,
        cli_inprocess_ms: 0.0,
    };
    layers::probe_all(ctx, &probe, &sample, &mut out);

    // Reconciliation on the miss path without load: one request at a time
    // through a fresh service (so every request misses), each followed by
    // a standalone warm-engine ordering of the same matrix. One warm-up
    // pass, then two measured passes; each matrix keeps its faster pass.
    let mut engine = OrderingEngine::new(engine_config(BackendKind::Serial, true));
    let n = sample.len();
    let (mut e2e, mut submit, mut order) =
        (vec![f64::MAX; n], vec![f64::MAX; n], vec![f64::MAX; n]);
    for pass in 0..3 {
        let service = OrderingService::start(config(ctx));
        for (i, m) in sample.iter().enumerate() {
            let t = Instant::now();
            let h = service.submit(OrderingRequest::new((*m).clone()));
            let sub = ms(t.elapsed());
            let (r, latency) = wait_bounded(&h);
            let t = Instant::now();
            let own = engine.order(m);
            let ord = ms(t.elapsed());
            let want = &inp.refs[hot_n + i];
            out.check(
                r.is_some_and(|r| r.perm == *want) && own.perm == *want,
                || "unloaded service permutation differs from the reference".into(),
            );
            if pass > 0 {
                e2e[i] = e2e[i].min(latency);
                submit[i] = submit[i].min(sub);
                order[i] = order[i].min(ord);
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    layers::reconcile(
        &mut out,
        "service-stream",
        &format!("mean over {n} never-seen patterns (faster of two passes)"),
        mean(&e2e),
        &[
            ("service.submit", mean(&submit)),
            ("engine.order", mean(&order)),
        ],
        (-0.50, 0.70),
    );
    out
}
