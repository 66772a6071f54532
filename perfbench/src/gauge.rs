//! A host-speed gauge: a fixed piece of work that uses nothing of the
//! program, timed between operations so each measured round knows how
//! fast the host ran.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! by up to 1.6× for seconds to minutes at a time as other tenants come
//! and go; a whole 30-second run can fall in a slow spell. Every timing
//! end-to-end metric is therefore reported at a reference speed: each
//! round's raw times are scaled by `NOMINAL_MS / reading`, where `reading`
//! is the median gauge reading taken in that round. The gauge is
//! independent of the program, so a change to the program moves the
//! scaled times as much as the raw ones; the raw figures are printed next
//! to them. Each workload reads the gauge the same way on every run (after
//! every operation, or between rounds), so its scaled times compare across
//! runs and commits; they do not compare across workloads.

use crate::stats::median;
use std::time::Instant;

/// The reading that defines the reference speed: scaled times are the
/// times the program would take on a host where the gauge reads this. On
/// the host the bounds were set on (2 vCPUs of an Intel Xeon VM, 2 MiB L2
/// per core, 105 MiB shared L3) readings ran from 0.8 to 2.1 ms.
pub const NOMINAL_MS: f64 = 1.0;

/// Gauge runs per reading after each set-up.
pub const GAUGE_RUNS: usize = 5;

/// Vertices and out-degree of the gauge's graph: a 1 MiB adjacency array,
/// past L1 and inside L2, traversed the way the program traverses its
/// matrices.
const VERTICES: usize = 1 << 15;
const DEGREE: usize = 8;
/// Keys sorted per gauge run.
const KEYS: usize = 4_096;

/// On the host the bounds were set on, slow spells hit cache-bound work
/// (L1/L2 traffic, sorting, graph traversal, allocation) by up to 1.6× and
/// left register-only arithmetic and L3-latency chains almost untouched,
/// so the gauge is a breadth-first search plus a sort: work shaped like
/// the program's, done by code of its own.
pub struct Gauge {
    /// One kernel per thread the workload keeps busy.
    kernels: Vec<Kernel>,
}

struct Kernel {
    adj: Vec<u32>,
    seen: Vec<u32>,
    queue: Vec<u32>,
    stamp: u32,
    keys: Vec<u64>,
    scratch: Vec<u64>,
}

/// SplitMix64 step, fixed seed: the gauge does the same work everywhere.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Gauge {
    /// A gauge that reads the speed of `threads` cores at once: a
    /// workload that keeps two cores busy is slowed by either.
    pub fn new(threads: usize) -> Self {
        Gauge {
            kernels: (0..threads.max(1)).map(|_| Kernel::new()).collect(),
        }
    }

    /// One reading: every kernel makes `runs` timed runs, all kernels at
    /// once; the mean over kernels of their median run, in ms. A reading
    /// right after an operation starts from the caches the operation left,
    /// as the next operation will.
    pub fn read(&mut self, runs: usize) -> f64 {
        let one = |k: &mut Kernel| median(&(0..runs.max(1)).map(|_| k.run()).collect::<Vec<_>>());
        let times: Vec<f64> = match self.kernels.as_mut_slice() {
            [k] => vec![one(k)],
            ks => std::thread::scope(|s| {
                let hs: Vec<_> = ks.iter_mut().map(|k| s.spawn(move || one(k))).collect();
                hs.into_iter()
                    .map(|h| h.join().expect("gauge thread"))
                    .collect()
            }),
        };
        times.iter().sum::<f64>() / times.len() as f64
    }
}

impl Kernel {
    fn new() -> Self {
        let mut k = Kernel {
            adj: (0..(VERTICES * DEGREE) as u64)
                .map(|i| (mix(i) % VERTICES as u64) as u32)
                .collect(),
            seen: vec![0; VERTICES],
            queue: Vec::with_capacity(VERTICES),
            stamp: 0,
            keys: (0..KEYS as u64).map(|i| mix(i ^ 0x5EED)).collect(),
            scratch: Vec::with_capacity(KEYS),
        };
        // Page everything in and warm the code before the first timed run.
        for _ in 0..8 {
            k.run();
        }
        k
    }

    /// One run of the fixed work; its wall time in ms.
    fn run(&mut self) -> f64 {
        let t = Instant::now();
        self.stamp += 1;
        self.queue.clear();
        self.queue.push(0);
        self.seen[0] = self.stamp;
        let mut head = 0;
        while head < self.queue.len() {
            let v = self.queue[head] as usize;
            head += 1;
            for &w in &self.adj[v * DEGREE..(v + 1) * DEGREE] {
                if self.seen[w as usize] != self.stamp {
                    self.seen[w as usize] = self.stamp;
                    self.queue.push(w);
                }
            }
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.keys);
        self.scratch.sort_unstable();
        std::hint::black_box((self.queue.len(), self.scratch[KEYS / 2]));
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// The factor that scales a raw time measured while the gauge read
/// `gauge_ms` to the reference speed.
pub fn factor(gauge_ms: f64) -> f64 {
    if gauge_ms > 0.0 && gauge_ms.is_finite() {
        NOMINAL_MS / gauge_ms
    } else {
        1.0
    }
}
