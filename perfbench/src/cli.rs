//! `cli-large`: `rcm-order` from Matrix Market file to permutation file,
//! one child process per operation, closed loop with one client.

use crate::common::engine_config;
use crate::common::{quality_ratios, reference, sim_ms, Ctx, Outcome, OP_DEADLINE};
use crate::gauge::{Gauge, GAUGE_RUNS};
use crate::inputs::{csc_bytes, kkt_large};
use crate::layers::{self, Probe};
use crate::stats::{median, ms, Rounds};
use crate::{alloc, host};
use rcm_core::{ordering_wavefront, quality_report, BackendKind, OrderingEngine};
use rcm_sparse::{mm, CooBuilder, CscMatrix, Permutation};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::Instant;

/// Run `rcm-order <mtx> --backend pooled --threads T --write-perm <out>`
/// and return its wall time in ms. The child gets no `RCM_*` variables, so
/// it runs the library defaults. A watchdog kills it at [`OP_DEADLINE`];
/// the caller blocks in `wait`, so nothing polls while the child runs.
pub fn run_cli(bin: &Path, mtx: &Path, out: &Path, threads: usize) -> Result<f64, String> {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGKILL: i32 = 9;
    let t0 = Instant::now();
    let mut child = Command::new(bin)
        .arg(mtx)
        .args(["--backend", "pooled", "--threads", &threads.to_string()])
        .arg("--write-perm")
        .arg(out)
        .env_remove("RCM_DIRECTION")
        .env_remove("RCM_START_NODE")
        .env_remove("RCM_THREADS")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let pid = child.id() as i32;
    let (done, finished) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        let expired = finished.recv_timeout(OP_DEADLINE).is_err();
        if expired {
            // SAFETY: kill(2) touches no memory of ours. The pid still
            // names the child: it is reaped only when `wait` returns, and
            // then `done` is sent at once (a race only in the instant the
            // child exits exactly at the deadline).
            unsafe { kill(pid, SIGKILL) };
        }
        expired
    });
    let status = child.wait();
    let elapsed = ms(t0.elapsed());
    let _ = done.send(());
    let expired = watchdog.join().unwrap_or(true);
    match status {
        _ if expired => Err("rcm-order timed out".into()),
        Ok(s) if s.success() => Ok(elapsed),
        Ok(s) => Err(format!("rcm-order exited with {s}")),
        Err(e) => Err(format!("waiting for rcm-order: {e}")),
    }
}

/// Whether the permutation file holds exactly `expect` (one new label per
/// old vertex, in vertex order, as `rcm-order --write-perm` writes it).
pub fn perm_file_matches(path: &Path, expect: &Permutation) -> bool {
    let Ok(text) = std::fs::read_to_string(path) else {
        return false;
    };
    let want = expect.as_new_of_old();
    let mut n = 0;
    for (line, &w) in text.lines().zip(want) {
        if line.parse::<u32>() != Ok(w) {
            return false;
        }
        n += 1;
    }
    n == want.len() && text.lines().count() == want.len()
}

/// Seconds per measured round: shorter than an operation, so each
/// operation is scaled by the gauge reading taken right after it.
const ROUND_S: f64 = 1.0;

/// A 16-vertex path: the input of the set-up probe, so set-up time is the
/// binary's fixed cost (process start, argument parsing, pool spawn,
/// teardown) and not ordering work.
fn tiny() -> CscMatrix {
    let mut b = CooBuilder::new(16, 16);
    for v in 0..15 {
        b.push_sym(v, v + 1);
    }
    b.build()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let a = kkt_large(ctx.seed);
    let mtx = ctx.work_dir.join(format!("cli-large-{}.mtx", ctx.seed));
    let perm_out = ctx.work_dir.join("cli-large.perm");
    mm::write_pattern_file(&a, &mtx).expect("write the cli-large input");
    let tiny_mtx = ctx.work_dir.join("cli-tiny.mtx");
    mm::write_pattern_file(&tiny(), &tiny_mtx).expect("write the set-up input");
    let reference = reference(&a, false);
    let file_bytes = std::fs::metadata(&mtx).map_or(0, |m| m.len() as usize);
    out.notes.push(format!(
        "working set: {:.1} MB Matrix Market file, {:.1} MB CSC ({} rows, {} nnz); \
         L2 {:.1} MiB per core, L3 {:.1} MiB shared",
        file_bytes as f64 / 1e6,
        csc_bytes(&a) as f64 / 1e6,
        a.n_rows(),
        a.nnz(),
        host::cache_bytes(2).map_or(0.0, host::mib),
        host::cache_bytes(3).map_or(0.0, host::mib),
    ));

    // Set-up: the binary's fixed cost, median of fifteen runs, each
    // followed by a gauge reading.
    let tiny_out = ctx.work_dir.join("cli-tiny.perm");
    let mut gauge = Gauge::new(ctx.threads);
    let (mut setup, mut setup_gauge) = (Vec::new(), Vec::new());
    for _ in 0..15 {
        match run_cli(&ctx.cli_bin, &tiny_mtx, &tiny_out, ctx.threads) {
            Ok(t) => {
                setup.push(t / 1e3);
                setup_gauge.push(gauge.read(GAUGE_RUNS));
            }
            Err(e) => out.errors.push(e),
        }
    }
    // One unmeasured operation warms the page cache.
    if let Err(e) = run_cli(&ctx.cli_bin, &mtx, &perm_out, ctx.threads) {
        out.errors.push(e);
    }

    // The traced run follows every operation with the CLI's in-process
    // layers on the same input, so the two interleave.
    let mut inproc = InProcess::new(ctx, &a, &reference);
    let mut rounds = Rounds::default();
    let mut done = 0;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds || done == 0 {
        out.attempted += 1;
        let _ = std::fs::remove_file(&perm_out);
        match run_cli(&ctx.cli_bin, &mtx, &perm_out, ctx.threads) {
            Ok(t) if perm_file_matches(&perm_out, &reference) => {
                let round = (start.elapsed().as_secs_f64() / ROUND_S) as usize;
                rounds.push(round, t);
                rounds.active(round, t / 1e3);
                rounds.gauge(round, gauge.read(1));
                done += 1;
                if let Some(p) = inproc.as_mut() {
                    p.once(&mtx, &mut out);
                }
            }
            Ok(_) => out.failed += 1,
            Err(e) => {
                out.failed += 1;
                out.notes.push(format!("failed op: {e}"));
            }
        }
        if out.attempted >= 3 && done == 0 {
            break;
        }
    }
    let lat = rounds.raw();

    if !ctx.trace {
        // Throughput over the time spent inside operations: the permutation
        // check between operations is the benchmark's, not the program's.
        out.latency_metrics(&rounds);
        out.setup_metric(&setup, &setup_gauge);
        let rss = alloc::children_max_rss();
        out.sheet
            .put("peak_heap_mb", rss as f64 / 1e6, "MB", out.attempted);
        out.notes
            .push("peak_heap_mb here is the rcm-order child's peak resident set".into());
        let (bw, pr) = quality_ratios([(&a, &reference)]);
        out.sheet.put("bandwidth_ratio", bw, "ratio", 1);
        out.sheet.put("profile_ratio", pr, "ratio", 1);
        out.sheet.put("sim_ms", sim_ms(&a), "ms", 1);
        return out;
    }

    // Reconciliation: an operation is the CLI's in-process layers plus the
    // process overhead (start, pool spawn, cold install, printing); the
    // in-process layers must explain most of it.
    let spans = inproc.expect("traced run").medians();
    out.notes.push(format!(
        "traced run's own loop: latency p50 {:.3} ms over {} operations, each followed by \
         the in-process layers",
        median(&lat),
        lat.len()
    ));
    let probe = Probe {
        primary: &a,
        mm_file: &mtx,
        reference: &reference,
        backend: BackendKind::Pooled {
            threads: ctx.threads,
        },
        split: false,
        cli_latency_ms: median(&lat),
        cli_inprocess_ms: spans.iter().map(|(_, t)| t).sum(),
    };
    layers::probe_all(ctx, &probe, &[&a], &mut out);
    layers::mini_service(ctx, &probe, &mut out);
    layers::reconcile(
        &mut out,
        "cli-large",
        "median",
        median(&lat),
        &spans,
        (-0.50, 0.50),
    );
    out
}

/// What `rcm-order` does in-process, timed layer by layer: read the file,
/// order on a warm pooled engine, compute the printed quality report, and
/// write the permutation.
struct InProcess<'a> {
    a: &'a CscMatrix,
    reference: &'a Permutation,
    engine: OrderingEngine,
    out_file: std::path::PathBuf,
    times: [Vec<f64>; 4],
}

impl<'a> InProcess<'a> {
    fn new(ctx: &Ctx, a: &'a CscMatrix, reference: &'a Permutation) -> Option<Self> {
        ctx.trace.then(|| InProcess {
            a,
            reference,
            engine: OrderingEngine::new(engine_config(
                BackendKind::Pooled {
                    threads: ctx.threads,
                },
                false,
            )),
            out_file: ctx.work_dir.join("inprocess.perm"),
            times: Default::default(),
        })
    }

    fn once(&mut self, mtx: &Path, out: &mut Outcome) {
        let t = Instant::now();
        let read = mm::read_pattern_file(mtx).ok();
        self.times[0].push(ms(t.elapsed()));
        let ok = read.as_ref() == Some(self.a);
        let t = Instant::now();
        let report = self.engine.order(self.a);
        self.times[1].push(ms(t.elapsed()));
        let t = Instant::now();
        std::hint::black_box(quality_report(self.a, &report.perm));
        std::hint::black_box(ordering_wavefront(self.a, &report.perm));
        self.times[2].push(ms(t.elapsed()));
        let t = Instant::now();
        layers::write_perm(&self.out_file, &report.perm);
        self.times[3].push(ms(t.elapsed()));
        out.check(ok && report.perm == *self.reference, || {
            "in-process pipeline differs from the reference".into()
        });
    }

    fn medians(&self) -> Vec<(&'static str, f64)> {
        let names = [
            "mm.read",
            "engine.order (pooled)",
            "quality.cli_report",
            "cli.write_perm",
        ];
        names
            .into_iter()
            .zip(self.times.iter().map(|t| median(t)))
            .collect()
    }
}
