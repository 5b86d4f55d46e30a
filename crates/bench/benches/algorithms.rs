//! Criterion benches for the paper's algorithms: end-to-end broadcast
//! cost per algorithm on a fixed 8×8 grid, plus planner/scheduler
//! construction costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use randcast_core::flood::FloodPlan;
use randcast_core::kucera::{FailureBehavior, KuceraBroadcast, Plan};
use randcast_core::radio_robust::ExpandedPlan;
use randcast_core::radio_sched::greedy_schedule;
use randcast_core::simple::SimplePlan;
use randcast_engine::fault::FaultConfig;
use randcast_engine::mp::SilentMpAdversary;
use randcast_engine::radio::SilentRadioAdversary;
use randcast_graph::generators;

fn bench_broadcasts(c: &mut Criterion) {
    let g = generators::grid(8, 8);
    let source = g.node(0);
    let p = 0.3;
    let mut group = c.benchmark_group("broadcast_one_run");

    let simple = SimplePlan::omission_with_p(&g, source, p);
    group.bench_function("simple_omission_mp", |b| {
        b.iter(|| {
            simple
                .run_mp(&g, FaultConfig::omission(p), SilentMpAdversary, 3, true)
                .correct_count(true)
        })
    });
    group.bench_function("simple_omission_radio", |b| {
        b.iter(|| {
            simple
                .run_radio(&g, FaultConfig::omission(p), SilentRadioAdversary, 3, true)
                .correct_count(true)
        })
    });

    let flood = FloodPlan::new(&g, source, p);
    group.bench_function("flood_omission_mp", |b| {
        b.iter(|| flood.run(&g, FaultConfig::omission(p), 3).informed_count())
    });

    let kucera = KuceraBroadcast::new(&g, source, p).expect("p < 1/2 is feasible");
    group.bench_function("kucera_tree", |b| {
        b.iter(|| {
            kucera
                .run(p, FailureBehavior::Flip, 3, true)
                .correct_count(true)
        })
    });

    let base = greedy_schedule(&g, source);
    let expanded = ExpandedPlan::omission(&g, source, &base, p);
    group.bench_function("omission_radio_expanded", |b| {
        b.iter(|| {
            expanded
                .run(&g, FaultConfig::omission(p), SilentRadioAdversary, 3, true)
                .correct_count(true)
        })
    });
    group.finish();
}

fn bench_planners(c: &mut Criterion) {
    let mut group = c.benchmark_group("planning");
    for len in [64usize, 256, 1024] {
        group.bench_with_input(BenchmarkId::new("kucera_plan", len), &len, |b, &len| {
            b.iter(|| Plan::for_line(len, 0.3, 1e-9).expect("feasible").time())
        });
        group.bench_with_input(BenchmarkId::new("kucera_compile", len), &len, |b, &len| {
            let plan = Plan::for_line(len, 0.3, 1e-9).expect("feasible");
            b.iter(|| plan.compile().send_count())
        });
    }
    for side in [8usize, 16, 24] {
        let g = generators::grid(side, side);
        group.bench_with_input(
            BenchmarkId::new("greedy_schedule_grid", side),
            &side,
            |b, _| b.iter(|| greedy_schedule(&g, g.node(0)).len()),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_broadcasts, bench_planners
}
criterion_main!(benches);
