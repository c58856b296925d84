//! Substrate benchmarks: the environment simulator, the complete
//! closed-loop system and the campaign's lockstep lanes. These bound how
//! fast campaigns can run.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use arrestor::{RunConfig, System};
use fic::campaign::DEFAULT_BATCH_SIZE;
use fic::experiment::{fault_free_prefix, run_case_batch_with};
use fic::Protocol;
use simenv::{Plant, TestCase};

fn bench_plant(c: &mut Criterion) {
    let mut group = c.benchmark_group("plant");
    group.bench_function("step_1ms", |b| {
        let mut plant = Plant::new(TestCase::new(14_000.0, 55.0));
        b.iter(|| {
            black_box(plant.step(black_box(60.0), black_box(60.0)));
        })
    });
    group.bench_function("full_arrestment", |b| {
        b.iter(|| {
            let mut plant = Plant::new(TestCase::new(14_000.0, 55.0));
            while !plant.state().arrested && plant.state().time_ms < 60_000 {
                plant.step(80.0, 80.0);
            }
            black_box(plant.state().distance_m)
        })
    });
    group.finish();
}

fn bench_system(c: &mut Criterion) {
    let mut group = c.benchmark_group("system");
    group.bench_function("tick_1ms", |b| {
        let mut system = System::new(TestCase::new(14_000.0, 55.0), RunConfig::default());
        b.iter(|| {
            system.tick();
            black_box(system.time_ms());
        })
    });
    group.sample_size(20);
    group.bench_function("arrestment_10s", |b| {
        b.iter(|| {
            let mut system = System::new(TestCase::new(14_000.0, 55.0), RunConfig::default());
            for _ in 0..10_000 {
                system.tick();
            }
            black_box(system.plant_state().distance_m)
        })
    });
    group.finish();
}

/// The 112 E1 lanes of the paper grid's centre case (14 000 kg at
/// 55 m/s) through the campaign's lockstep path, in its work items of
/// [`DEFAULT_BATCH_SIZE`] lanes with analytic stops on, reported per
/// lane-millisecond: the throughput is the lanes' simulated
/// milliseconds, summed.
fn bench_lockstep(c: &mut Criterion) {
    let protocol = Protocol::paper();
    let case = protocol.grid.cases()[12];
    let prefix = fault_free_prefix(&protocol, case);
    let flips: Vec<_> = fic::error_set::e1().iter().map(|e| e.flip).collect();
    let run = || {
        flips
            .chunks(DEFAULT_BATCH_SIZE)
            .flat_map(|chunk| run_case_batch_with(&protocol, chunk, case, &prefix, true))
            .collect::<Vec<_>>()
    };
    let lane_ms: u64 = run().iter().map(|lane| lane.execution.simulated_ms).sum();
    let mut group = c.benchmark_group("lockstep");
    group
        .sample_size(10)
        .throughput(Throughput::Elements(lane_ms));
    group.bench_function("e1_case", |b| b.iter(run));
    group.finish();
}

criterion_group!(benches, bench_plant, bench_system, bench_lockstep);
criterion_main!(benches);
