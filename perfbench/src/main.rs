//! The repository benchmark: runs one workload against the program from
//! outside it, checks every output, and prints every metric by name with
//! its unit and sample count. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! rcm-perfbench --workload cli-large|service-stream|dist-sim --seed N
//!               --seconds S --trace 0|1 --cli-bin PATH --work-dir DIR [--rev REV]
//! rcm-perfbench --self-check --cli-bin PATH --work-dir DIR
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` the
//! per-layer metrics of a separate traced run. End-to-end times are
//! scaled to a reference host speed read by [`gauge`]; the raw times are
//! printed beside them.

mod alloc;
mod cli;
mod common;
mod dist;
mod gauge;
mod host;
mod inputs;
mod layers;
mod selfcheck;
mod service;
mod stats;
mod traced;

use common::{Ctx, Outcome};
use std::path::PathBuf;

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

pub const WORKLOADS: [&str; 3] = ["cli-large", "service-stream", "dist-sim"];

pub fn run_workload(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "cli-large" => cli::run(ctx),
        "service-stream" => service::run(ctx),
        "dist-sim" => dist::run(ctx),
        other => fail(&format!(
            "unknown workload {other}; expected one of {WORKLOADS:?}"
        )),
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("rcm-perfbench: {msg}");
    std::process::exit(2);
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut cli_bin = None;
    let mut work_dir = None;
    let mut rev = "unknown".to_string();
    let mut self_check = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| fail(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                seed = Some(
                    value()
                        .parse::<u64>()
                        .unwrap_or_else(|_| fail("bad --seed")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()
                        .parse::<f64>()
                        .unwrap_or_else(|_| fail("bad --seconds")),
                )
            }
            "--trace" => trace = Some(value() == "1"),
            "--cli-bin" => cli_bin = Some(PathBuf::from(value())),
            "--work-dir" => work_dir = Some(PathBuf::from(value())),
            "--rev" => rev = value(),
            "--self-check" => self_check = true,
            other => fail(&format!("unknown argument {other}")),
        }
    }
    let cli_bin = cli_bin.unwrap_or_else(|| fail("--cli-bin is required"));
    let work_dir = work_dir.unwrap_or_else(|| fail("--work-dir is required"));
    std::fs::create_dir_all(&work_dir).unwrap_or_else(|e| fail(&format!("work dir: {e}")));
    let threads = host::nproc();
    println!("{}", host::describe(&rev));
    if self_check {
        let ok = selfcheck::run(&cli_bin, &work_dir, threads);
        std::process::exit(if ok { 0 } else { 1 });
    }
    let workload = workload.unwrap_or_else(|| fail("--workload is required"));
    let ctx = Ctx {
        seed: seed.unwrap_or_else(|| fail("--seed is required")),
        seconds: seconds.unwrap_or_else(|| fail("--seconds is required")),
        trace: trace.unwrap_or_else(|| fail("--trace is required")),
        threads,
        cli_bin,
        work_dir,
    };
    println!(
        "# workload {workload}: seed {} for {} s, {} run, {threads} client/worker threads",
        ctx.seed,
        ctx.seconds,
        if ctx.trace { "traced" } else { "untraced" }
    );
    let out = run_workload(&workload, &ctx);
    for note in &out.notes {
        println!("# {note}");
    }
    for m in &out.sheet.metrics {
        println!(
            "metric {} = {} {} (samples {})",
            m.name, m.value, m.unit, m.samples
        );
    }
    for e in &out.errors {
        println!("# CHECK FAILED: {e}");
    }
    let correct = out.errors.is_empty() && out.failed == 0;
    let metrics: Vec<String> = out
        .sheet
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}
