//! The benchmark's own check: two short runs with the same seed must
//! repeat every deterministic metric exactly, and a different seed must
//! reach the inputs (the quality ratios change). Structural counts may
//! stay equal under a new seed, since the seed only relabels vertices;
//! those are listed, not failed.

use crate::common::Ctx;
use crate::{run_workload, WORKLOADS};
use std::path::Path;

const UNTRACED: [&str; 3] = ["bandwidth_ratio", "profile_ratio", "sim_ms"];
const TRACED: [&str; 8] = [
    "driver.sweeps",
    "driver.levels",
    "driver.spmspv_work",
    "driver.push_expands",
    "driver.pull_expands",
    "driver.components",
    "dist.messages",
    "dist.bytes",
];
/// Metrics a new seed must change.
const SEED_SENSITIVE: [&str; 2] = ["bandwidth_ratio", "profile_ratio"];

fn facts(workload: &str, seed: u64, ctx: &Ctx) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    for (trace, names) in [(false, &UNTRACED[..]), (true, &TRACED[..])] {
        let c = Ctx {
            seed,
            seconds: 0.3,
            trace,
            threads: ctx.threads,
            cli_bin: ctx.cli_bin.clone(),
            work_dir: ctx.work_dir.clone(),
        };
        let o = run_workload(workload, &c);
        for e in &o.errors {
            println!("self-check {workload} seed {seed}: check failed: {e}");
        }
        for &n in names {
            out.push((n, o.sheet.get(n).unwrap_or(f64::NAN)));
        }
    }
    out
}

pub fn run(cli_bin: &Path, work_dir: &Path, threads: usize) -> bool {
    let ctx = Ctx {
        seed: 0,
        seconds: 0.0,
        trace: false,
        threads,
        cli_bin: cli_bin.to_path_buf(),
        work_dir: work_dir.to_path_buf(),
    };
    let mut ok = true;
    for w in WORKLOADS {
        let (s, t) = (11, 12);
        let a = facts(w, s, &ctx);
        let b = facts(w, s, &ctx);
        let c = facts(w, t, &ctx);
        let mut unchanged = Vec::new();
        let mut repeats = true;
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            let name = x.0;
            if x.1.to_bits() != y.1.to_bits() {
                println!(
                    "self-check {w}: {name} differs between two runs of seed {s}: {} vs {}",
                    x.1, y.1
                );
                repeats = false;
            }
            if x.1 == z.1 {
                if SEED_SENSITIVE.contains(&name) {
                    println!("self-check {w}: {name} did not change from seed {s} to seed {t}");
                    ok = false;
                } else {
                    unchanged.push(name);
                }
            }
        }
        ok &= repeats;
        println!(
            "self-check {w}: deterministic metrics {} under seed {s}; \
             unchanged under seed {t}: {}",
            if repeats { "repeat" } else { "DO NOT repeat" },
            if unchanged.is_empty() {
                "none".to_string()
            } else {
                unchanged.join(", ")
            }
        );
    }
    println!("self-check {}", if ok { "passed" } else { "FAILED" });
    ok
}
