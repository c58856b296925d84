//! Per-table regeneration benchmarks — one group per evaluation table
//! and figure of the paper, exercising exactly the pipeline the
//! producing `fic` binary runs (scaled down so Criterion can sample
//! it; the full-protocol run is `cargo run --release -p fic --bin
//! full_campaign`).
//!
//! | group | paper artefact | full-scale producer |
//! |---|---|---|
//! | `table6` | Table 6 (E1 distribution) | `full_campaign` → `table6.txt` |
//! | `table7` | Table 7 (E1 coverage) | `full_campaign` → `table7.txt` |
//! | `table8` | Table 8 (E1 latencies) | `full_campaign` → `table8.txt` |
//! | `table9` | Table 9 (E2 coverage/latencies) | `full_campaign` → `table9.txt` |
//! | `figures` | Figures 1–3, 5/6 + Table 4 | `figures` |

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use fic::{error_set, tables, CampaignRunner, Protocol};

fn scaled_protocol() -> Protocol {
    Protocol::scaled(1, 2_000)
}

fn bench_table6(c: &mut Criterion) {
    c.benchmark_group("table6")
        .bench_function("generate_and_render", |b| {
            b.iter(|| {
                let errors = error_set::e1();
                black_box(tables::render_table6(&errors, 25))
            })
        });
}

fn bench_table7(c: &mut Criterion) {
    let mut group = c.benchmark_group("table7");
    group.sample_size(10);
    group.bench_function("e1_campaign_scaled", |b| {
        let errors = error_set::e1();
        let subset: Vec<_> = errors.iter().step_by(16).copied().collect(); // one per signal
        let runner = CampaignRunner::new(scaled_protocol());
        b.iter(|| {
            let report = runner.run_e1(&subset);
            black_box(tables::render_table7(&report))
        })
    });
    group.finish();
}

fn bench_table8(c: &mut Criterion) {
    let mut group = c.benchmark_group("table8");
    group.sample_size(10);
    group.bench_function("e1_latencies_scaled", |b| {
        let errors = error_set::e1();
        let subset: Vec<_> = errors
            .iter()
            .filter(|e| e.signal_bit == 15)
            .copied()
            .collect();
        let runner = CampaignRunner::new(scaled_protocol());
        b.iter(|| {
            let report = runner.run_e1(&subset);
            black_box(tables::render_table8(&report))
        })
    });
    group.finish();
}

fn bench_table9(c: &mut Criterion) {
    let mut group = c.benchmark_group("table9");
    group.sample_size(10);
    group.bench_function("e2_campaign_scaled", |b| {
        let errors = error_set::e2();
        let subset: Vec<_> = errors.iter().step_by(25).copied().collect();
        let runner = CampaignRunner::new(scaled_protocol());
        b.iter(|| {
            let report = runner.run_e2(&subset);
            black_box(tables::render_table9(&report))
        })
    });
    group.finish();
}

fn bench_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures");
    group.bench_function("fig2_series_with_cross_check", |b| {
        b.iter(|| {
            let series = fic::figures::fig2_series(7, 200);
            let mut violations = 0;
            for s in &series {
                for other in &series {
                    violations += s.violations_under(&other.params);
                }
            }
            black_box(violations)
        })
    });
    group.bench_function("fig5_architecture_from_plan", |b| {
        b.iter(|| black_box(fic::figures::fig5_architecture()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_table6,
    bench_table7,
    bench_table8,
    bench_table9,
    bench_figures
);
criterion_main!(benches);
