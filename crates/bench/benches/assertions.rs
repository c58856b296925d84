//! Microbenchmarks of the executable assertions themselves: the cost of
//! one test per class and per Table 2 path. These are the per-sample
//! overheads a designer pays for each monitored signal.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ea_core::prelude::*;

fn params_random() -> ContinuousParams {
    ContinuousParams::builder(0, 20_000)
        .increase_rate(0, 1_000)
        .decrease_rate(0, 1_000)
        .build()
        .expect("valid")
}

fn params_static_wrap() -> ContinuousParams {
    ContinuousParams::builder(0, 0x1_0000)
        .increase_rate(1, 1)
        .wrap_allowed()
        .build()
        .expect("valid")
}

fn bench_continuous_paths(c: &mut Criterion) {
    let random = params_random();
    let wrap = params_static_wrap();
    let mut group = c.benchmark_group("assert_cont");
    group.bench_function("pass_increase_3a", |b| {
        b.iter(|| ea_core::assert_cont::check(&random, black_box(Some(5_000)), black_box(5_400)))
    });
    group.bench_function("pass_unchanged_5c", |b| {
        b.iter(|| ea_core::assert_cont::check(&random, black_box(Some(5_000)), black_box(5_000)))
    });
    group.bench_function("pass_wrap_4b", |b| {
        b.iter(|| ea_core::assert_cont::check(&wrap, black_box(Some(0xFFFF)), black_box(0)))
    });
    group.bench_function("fail_range_test1", |b| {
        b.iter(|| ea_core::assert_cont::check(&random, black_box(Some(5_000)), black_box(70_000)))
    });
    group.bench_function("fail_rate_3a", |b| {
        b.iter(|| ea_core::assert_cont::check(&random, black_box(Some(5_000)), black_box(9_000)))
    });
    group.finish();
}

fn bench_discrete_paths(c: &mut Criterion) {
    let linear = DiscreteParams::linear(0..7, true).expect("valid");
    let graph = DiscreteParams::non_linear([
        (1, vec![2, 4]),
        (2, vec![3, 4]),
        (3, vec![4]),
        (4, vec![5]),
        (5, vec![1]),
    ])
    .expect("valid");
    let mut group = c.benchmark_group("assert_disc");
    group.bench_function("linear_pass", |b| {
        b.iter(|| ea_core::assert_disc::check(&linear, black_box(Some(3)), black_box(4)))
    });
    group.bench_function("nonlinear_pass", |b| {
        b.iter(|| ea_core::assert_disc::check(&graph, black_box(Some(1)), black_box(4)))
    });
    group.bench_function("fail_domain", |b| {
        b.iter(|| ea_core::assert_disc::check(&graph, black_box(Some(1)), black_box(99)))
    });
    group.bench_function("fail_transition", |b| {
        b.iter(|| ea_core::assert_disc::check(&graph, black_box(Some(1)), black_box(3)))
    });
    group.finish();
}

fn bench_monitor_and_bank(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor");
    group.bench_function("signal_monitor_check", |b| {
        let mut monitor = SignalMonitor::continuous("x", params_random());
        let mut v = 5_000;
        b.iter(|| {
            v = (v + 37) % 20_000;
            let _ = black_box(monitor.check(v));
        })
    });
    group.bench_function("seven_monitor_bank_tick", |b| {
        // The per-tick cost of the paper's full instrumentation.
        let mut detectors = arrestor::build_detectors(arrestor::EaSet::ALL);
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            for ea in arrestor::EaId::ALL {
                detectors.check(ea, black_box((t % 1_000) as u16), t);
            }
        })
    });
    group.finish();

    // Two passes over a 10 s trace: the harness's default 100 ticks
    // would time the first tenth of a second only.
    let mut group = c.benchmark_group("lockstep");
    group.sample_size(20_000);
    group.bench_function("eight_lane_bank_tick", |b| {
        // The lockstep executor's shape: eight lanes, each with its own
        // bank, run the same nominal tick in turn — EA6, EA5, EA4 and
        // EA3 every tick, EA1, EA2 and EA7 every seventh (V_REG and
        // PRES_A run in one slot of seven). Each lane's monitors live
        // in their own allocation, which a one-monitor hot loop hides.
        let trace = nominal_e1_trace(10_000);
        let mut lanes = vec![arrestor::build_detectors(arrestor::EaSet::ALL); 8];
        let mut probe = lanes[0].clone();
        for (t, tick) in trace.iter().enumerate() {
            for &(ea, value) in tick {
                probe.check(ea, value, t as u64);
            }
        }
        assert!(probe.events().is_empty(), "the nominal trace must pass");
        let mut t = 0usize;
        b.iter(|| {
            if t == trace.len() {
                t = 0;
                lanes.iter_mut().for_each(arrestor::Detectors::reset);
            }
            let tick = &trace[t];
            for detectors in &mut lanes {
                for &(ea, value) in tick {
                    detectors.check(ea, black_box(value), t as u64);
                }
            }
            t += 1;
        })
    });
    group.finish();
}

/// The checks of a fault-free E1 run, tick by tick, in node order:
/// `mscnt` counts, the slot cycles 0..7, `i` and `pulscnt` climb, and
/// the three continuous values follow slow ramps inside their rate
/// bounds. Every check passes.
fn nominal_e1_trace(ticks: usize) -> Vec<Vec<(arrestor::EaId, u16)>> {
    use arrestor::EaId;
    // A triangle wave of period 2·half, one unit per step.
    let tri = |x: usize, half: usize| (x % (2 * half)).abs_diff(half) as u16;
    (0..ticks)
        .map(|t| {
            let mut tick = vec![
                (EaId::Ea6, t as u16),
                (EaId::Ea5, (t % 7) as u16),
                (EaId::Ea4, (t * 13 / 10).min(6_500) as u16),
                (EaId::Ea3, (t / 1_700).min(6) as u16),
            ];
            if t % 7 == 0 {
                tick.push((EaId::Ea1, 4_000 + tri(t, 3_000)));
                tick.push((EaId::Ea2, 3_000 + tri(2 * t, 5_000)));
                tick.push((EaId::Ea7, 6_000 + tri(3 * t, 4_000)));
            }
            tick
        })
        .collect()
}

criterion_group!(
    benches,
    bench_continuous_paths,
    bench_discrete_paths,
    bench_monitor_and_bank
);
criterion_main!(benches);
