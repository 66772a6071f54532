//! Simulate the distributed-memory RCM algorithm on a virtual cluster and
//! print the per-phase runtime breakdown (the Fig. 4 view).
//!
//! ```text
//! cargo run --release --example distributed_ordering [matrix] [cores...]
//! ```
//!
//! Defaults: `ldoor` on 1, 24, 216 and 1014 cores (hybrid, 6 threads per
//! MPI process, Edison machine model).

use distributed_rcm::dist::Phase;
use distributed_rcm::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("ldoor");
    let cores: Vec<usize> = if args.len() > 2 {
        args[2..]
            .iter()
            .map(|s| s.parse().expect("core counts must be integers"))
            .collect()
    } else {
        vec![1, 24, 216, 1014]
    };

    let m = suite_matrix(name).expect("unknown suite matrix");
    let a = m.generate(m.default_scale);
    println!(
        "{}: {} rows, {} nnz (paper-class: {})\n",
        m.name,
        a.n_rows(),
        a.nnz(),
        m.description
    );
    println!(
        "{:>6}  {:>5}  {:>10} {:>10} {:>10} {:>10} {:>10}  {:>10}  {:>8}",
        "cores", "grid", "P:SpMSpV", "P:Other", "O:SpMSpV", "O:Sort", "O:Other", "total", "speedup"
    );
    let mut t1 = None;
    for &c in &cores {
        let config = EngineConfig::builder()
            .dist(DistRcmConfig::hybrid_on_edison(c))
            .build();
        let report = OrderingEngine::new(config).order(&a);
        let r = report
            .sim
            .expect("hybrid orderings carry a simulated result");
        let t = r.sim_seconds;
        t1.get_or_insert(t);
        let phases: Vec<String> = Phase::ALL
            .iter()
            .map(|&ph| format!("{:.4}", r.breakdown.get(ph).total()))
            .collect();
        println!(
            "{:>6}  {:>2}x{:<2}  {:>10} {:>10} {:>10} {:>10} {:>10}  {:>9.4}s  {:>7.1}x",
            c,
            r.grid_side,
            r.grid_side,
            phases[0],
            phases[1],
            phases[2],
            phases[3],
            phases[4],
            t,
            t1.unwrap() / t,
        );
    }
    println!("\n(simulated seconds on the Edison α-β model; 6 threads/process)");
}
