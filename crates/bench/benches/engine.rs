//! Criterion benches of the two functional engines (sparse frontier,
//! dense bit-parallel) across representative benchmarks from
//! the suite: a hot mesh (Hamming), a hot rule set (Snort), and a cold
//! exact-match set where the sparse engine should keep its edge. (For the
//! full 19-benchmark sweep with trace verification and the JSON summary,
//! run the `suite` binary.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use sunder_automata::InputView;
use sunder_sim::{EngineKind, NullSink};
use sunder_workloads::{Benchmark, Scale};

fn bench_engines(c: &mut Criterion) {
    let scale = Scale {
        state_fraction: 0.02,
        input_len: 64 * 1024,
    };
    let mut group = c.benchmark_group("engines");
    group.sample_size(10);
    for bench in [
        Benchmark::Hamming,
        Benchmark::Levenshtein,
        Benchmark::Snort,
        Benchmark::ExactMatch,
    ] {
        let w = bench.build(scale);
        let view = InputView::new(&w.input, 8, 1).expect("byte view");
        group.throughput(Throughput::Bytes(w.input.len() as u64));
        for kind in EngineKind::ALL {
            group.bench_with_input(
                BenchmarkId::new(kind.name(), bench.name()),
                &kind,
                |b, &kind| {
                    b.iter(|| {
                        let mut engine = kind.build(&w.nfa);
                        engine.run(&view, &mut NullSink);
                        black_box(engine.cycle())
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
