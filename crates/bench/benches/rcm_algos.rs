//! Criterion benchmarks of the RCM implementations on a suite matrix (the
//! data behind Table II's runtime columns). Each engine benchmark builds a
//! fresh `OrderingEngine` per iteration, so it pays the backend
//! construction (the pool's worker spawn included) plus the report's
//! bandwidth passes on every call.

use criterion::{criterion_group, criterion_main, Criterion};
use rcm_core::{rcm_nosort, BackendKind, DistRcmConfig, EngineConfig, OrderingEngine};
use rcm_graphgen::suite_matrix;

fn bench_rcm_algorithms(c: &mut Criterion) {
    let a = suite_matrix("thermal2").unwrap().generate(0.01);
    let mut group = c.benchmark_group("rcm");
    group.sample_size(10);

    group.bench_function("serial", |b| {
        b.iter(|| std::hint::black_box(rcm_core::rcm(&a)))
    });
    group.bench_function("algebraic", |b| {
        b.iter(|| {
            let mut engine = OrderingEngine::with_backend(BackendKind::Serial);
            std::hint::black_box(engine.order(&a).perm)
        })
    });
    // The Table II strong-scaling sweep: the work-stealing backend is
    // expected to keep improving past 4 threads on multi-core hosts.
    for threads in [1usize, 2, 4, 8, 16] {
        group.bench_function(format!("shared-{threads}t"), |b| {
            b.iter(|| {
                let mut engine =
                    OrderingEngine::new(EngineConfig::builder().threads(threads).build());
                std::hint::black_box(engine.order(&a).perm)
            })
        });
    }
    group.bench_function("nosort", |b| {
        b.iter(|| std::hint::black_box(rcm_nosort(&a)))
    });
    // Simulator overhead: wall time of the distributed run (the *simulated*
    // seconds are what the experiments report; this measures the harness).
    group.bench_function("dist-sim-16procs", |b| {
        let config = EngineConfig::builder()
            .dist(DistRcmConfig::flat_on_edison(16))
            .build();
        b.iter(|| std::hint::black_box(OrderingEngine::new(config).order(&a).sim_seconds()))
    });
    group.finish();
}

criterion_group!(benches, bench_rcm_algorithms);
criterion_main!(benches);
