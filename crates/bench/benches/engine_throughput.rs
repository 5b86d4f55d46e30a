//! Criterion benches: raw simulation-engine throughput (rounds executed
//! per second) for both communication models, across network sizes and
//! failure probabilities.
//!
//! These are substrate benches — they calibrate how large the E1–E10
//! experiment sweeps can afford to be.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use randcast_core::decay::{run_decay, DecayConfig};
use randcast_core::flood::{theorem_horizon, FloodPlan, FloodVariant};
use randcast_core::simple::SimplePlan;
use randcast_engine::adversary::FlipMpAdversary;
use randcast_engine::fault::FaultConfig;
use randcast_engine::flood_fast::{FastFlood, FastFloodVariant, ShardedFlood};
use randcast_engine::kernel::FlipFault;
use randcast_engine::mp::{MpNetwork, MpNode, Outgoing, SilentMpAdversary};
use randcast_engine::radio::{RadioAction, RadioNetwork, RadioNode};
use randcast_engine::radio_fast::{FastRadio, FastRadioSchedule, ShardedRadio};
use randcast_engine::simple_fast::{FastSimple, ShardedSimple};
use randcast_graph::shard::{
    default_scratch_dir, ShardPlan, ShardStore, ShardedBfsTree, SpillSink,
};
use randcast_graph::{generators, traversal, Graph, NodeId};
use randcast_stats::chernoff::phase_len_omission;

/// Flooding automaton (the engine stress case: every informed node sends
/// every round).
struct Flood {
    informed: bool,
}

impl MpNode for Flood {
    type Msg = bool;
    fn send(&mut self, _round: usize) -> Outgoing<bool> {
        if self.informed {
            Outgoing::Broadcast(true)
        } else {
            Outgoing::Silent
        }
    }
    fn recv(&mut self, _round: usize, _from: NodeId, _msg: bool) {
        self.informed = true;
    }
}

/// Directed-send gossip automaton: once informed, sends an individually
/// addressed message to every neighbor each round. This exercises the
/// engine's per-target delivery path (the hottest allocation site),
/// whereas [`Flood`] exercises the broadcast path.
struct DirectedGossip {
    informed: bool,
    neighbors: Vec<NodeId>,
}

impl MpNode for DirectedGossip {
    type Msg = u64;
    fn send(&mut self, round: usize) -> Outgoing<u64> {
        if self.informed {
            Outgoing::Directed(self.neighbors.iter().map(|&v| (v, round as u64)).collect())
        } else {
            Outgoing::Silent
        }
    }
    fn recv(&mut self, _round: usize, _from: NodeId, _msg: u64) {
        self.informed = true;
    }
}

/// Round-robin radio beacon.
struct Beacon {
    me: usize,
}

impl RadioNode for Beacon {
    type Msg = u8;
    fn act(&mut self, round: usize) -> RadioAction<u8> {
        if round % 16 == self.me % 16 {
            RadioAction::Transmit(1)
        } else {
            RadioAction::Listen
        }
    }
    fn recv(&mut self, _round: usize, _heard: Option<u8>) {}
}

fn bench_mp(c: &mut Criterion) {
    let mut group = c.benchmark_group("mp_rounds");
    for side in [8usize, 16, 32] {
        let g = generators::grid(side, side);
        let rounds = 64usize;
        group.throughput(Throughput::Elements((rounds * g.node_count()) as u64));
        for p in [0.0, 0.3] {
            group.bench_with_input(
                BenchmarkId::new(format!("grid{side}x{side}"), p),
                &p,
                |b, &p| {
                    b.iter(|| {
                        let mut net = MpNetwork::new(&g, FaultConfig::omission(p), 7, |v| Flood {
                            informed: v.index() == 0,
                        });
                        net.run(rounds);
                        net.stats().deliveries
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_mp_directed(c: &mut Criterion) {
    let mut group = c.benchmark_group("mp_directed_rounds");
    for side in [8usize, 16, 32] {
        let g = generators::grid(side, side);
        let rounds = 64usize;
        group.throughput(Throughput::Elements((rounds * g.node_count()) as u64));
        for p in [0.0, 0.3] {
            group.bench_with_input(
                BenchmarkId::new(format!("grid{side}x{side}"), p),
                &p,
                |b, &p| {
                    b.iter(|| {
                        let mut net =
                            MpNetwork::new(&g, FaultConfig::omission(p), 7, |v| DirectedGossip {
                                informed: v.index() == 0,
                                neighbors: g.neighbors(v).collect(),
                            });
                        net.run(rounds);
                        net.stats().deliveries
                    })
                },
            );
        }
    }
    group.finish();
}

/// Fast-path vs general-engine flood: the same Theorem 3.1 workload
/// (BFS-tree flooding to completion horizon) through `MpNetwork` and
/// through the bitset `FastFlood` engine. The ratio between the two
/// rows is the fast path's speedup.
fn bench_flood_fast_vs_mp(c: &mut Criterion) {
    let mut group = c.benchmark_group("flood_engines");
    let graphs: Vec<(String, Graph)> = vec![
        ("grid32x32".into(), generators::grid(32, 32)),
        (
            "gnp4096-d8".into(),
            generators::gnp_connected(4096, 8.0 / 4095.0, &mut SmallRng::seed_from_u64(7)),
        ),
    ];
    for (label, g) in &graphs {
        let p = 0.3;
        let source = g.node(0);
        let horizon = theorem_horizon(g, source, p);
        group.throughput(Throughput::Elements((horizon * g.node_count()) as u64));
        let mp_plan = FloodPlan::with_horizon(g, source, horizon, FloodVariant::Tree);
        group.bench_with_input(BenchmarkId::new("mp", label), &p, |b, _| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                mp_plan
                    .run(g, FaultConfig::omission(p), seed)
                    .informed_count()
            })
        });
        let fast_plan = FastFlood::new(g, source, horizon, FastFloodVariant::Tree);
        group.bench_with_input(BenchmarkId::new("fast", label), &p, |b, _| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                fast_plan.run(p, seed).informed_count()
            })
        });
        // One iteration = one 64-trial bit-sliced block; the per-trial
        // speedup over the `fast` row is gated by bench_gate --bar.
        group.bench_with_input(BenchmarkId::new("batch", label), &p, |b, _| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                fast_plan.run_batch(p, seed).informed_count(0)
            })
        });
        // Malicious rows: the flip adversary through `MpNetwork` vs the
        // FlipFault instance through the FaultModel drivers; their ratio
        // is the malicious fast path's speedup (bench_gate --bar floor).
        if label == "grid32x32" {
            group.bench_with_input(BenchmarkId::new("mp-mal", label), &p, |b, &p| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    mp_plan
                        .run(g, FaultConfig::malicious(p), seed)
                        .informed_count()
                })
            });
            let model = FlipFault::new(p);
            group.bench_with_input(BenchmarkId::new("fast-mal", label), &p, |b, _| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    fast_plan.run_lane_model(&model, seed, 0).informed_count()
                })
            });
        }
    }
    group.finish();
}

/// Fast-path vs trait-object Simple: the same Theorem 2.1 workload
/// (`Simple-Omission` with the prescribed phase length, omission
/// p = 0.3) through `MpNetwork` per-node automata and through the
/// geometric-draw `FastSimple` kernel. The ratio between the two rows
/// is the fast path's speedup; the acceptance bar is ≥ 50× at
/// n = 4096.
fn bench_simple_fast_vs_trait(c: &mut Criterion) {
    let mut group = c.benchmark_group("simple_engines");
    // The trait engine executes the full n·m schedule (~10⁸ node-steps
    // at n = 4096); keep the sample count minimal so `cargo bench`
    // stays CI-sized.
    group.sample_size(5);
    let graphs: Vec<(String, Graph)> = vec![
        ("grid32x32".into(), generators::grid(32, 32)),
        (
            "gnp4096-d8".into(),
            generators::gnp_connected(4096, 8.0 / 4095.0, &mut SmallRng::seed_from_u64(7)),
        ),
    ];
    for (label, g) in &graphs {
        let p = 0.3;
        let source = g.node(0);
        let plan = SimplePlan::omission_with_p(g, source, p);
        group.throughput(Throughput::Elements(
            (plan.total_rounds() * g.node_count()) as u64,
        ));
        group.bench_with_input(BenchmarkId::new("trait", label), &p, |b, &p| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                plan.run_mp(g, FaultConfig::omission(p), SilentMpAdversary, seed, true)
                    .correct_count(true)
            })
        });
        let fast = FastSimple::new(g, source, plan.phase_len());
        group.bench_with_input(BenchmarkId::new("fast", label), &p, |b, &p| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                fast.run(p, seed).correct_count()
            })
        });
        // One iteration = one 64-trial bit-sliced block (see --bar).
        group.bench_with_input(BenchmarkId::new("batch", label), &p, |b, &p| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                fast.run_batch(p, seed).correct_count(0)
            })
        });
        // Malicious rows: the same Theorem 2.2 majority-vote workload
        // through the flip-adversary trait engine and through the
        // FlipFault fast path (bench_gate --bar floors the ratio). The
        // Theorem 2.2 phase length is much larger than Theorem 2.1's, so
        // only the smaller graph keeps the trait row CI-sized.
        if label == "grid32x32" {
            let mal_plan = SimplePlan::malicious_mp(g, source, p);
            group.throughput(Throughput::Elements(
                (mal_plan.total_rounds() * g.node_count()) as u64,
            ));
            group.bench_with_input(BenchmarkId::new("trait-mal", label), &p, |b, &p| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    mal_plan
                        .run_mp(g, FaultConfig::malicious(p), FlipMpAdversary, seed, true)
                        .correct_count(true)
                })
            });
            let fast_mal = FastSimple::new(g, source, mal_plan.phase_len());
            let model = FlipFault::new(p);
            group.bench_with_input(BenchmarkId::new("fast-mal", label), &p, |b, _| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    fast_mal.run_lane_model(&model, seed, 0).correct_count()
                })
            });
        }
    }
    group.finish();
}

/// Fast-path vs trait-object radio: the same Decay workload (classical
/// parameterization, omission p = 0.3) through `RadioNetwork` per-node
/// automata and through the bitset collision-counting `FastRadio`
/// kernel. The ratio between the two rows is the fast path's speedup;
/// the acceptance bar is ≥ 50× at n = 4096.
fn bench_radio_fast_vs_trait(c: &mut Criterion) {
    let mut group = c.benchmark_group("radio_engines");
    // The trait engine needs tens of milliseconds per trial here; keep
    // the sample count low so `cargo bench` stays CI-sized.
    group.sample_size(10);
    let graphs: Vec<(String, Graph)> = vec![
        ("grid32x32".into(), generators::grid(32, 32)),
        (
            "gnp4096-d8".into(),
            generators::gnp_connected(4096, 8.0 / 4095.0, &mut SmallRng::seed_from_u64(7)),
        ),
    ];
    for (label, g) in &graphs {
        let p = 0.3;
        let source = g.node(0);
        let cfg = DecayConfig::classical(g.node_count(), traversal::radius_from(g, source));
        group.throughput(Throughput::Elements(
            (cfg.total_rounds() * g.node_count()) as u64,
        ));
        group.bench_with_input(BenchmarkId::new("trait", label), &p, |b, &p| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                run_decay(g, source, cfg, FaultConfig::omission(p), seed)
                    .informed_at
                    .iter()
                    .filter(|i| i.is_some())
                    .count()
            })
        });
        let fast_plan = FastRadio::new(
            g,
            source,
            cfg.total_rounds(),
            FastRadioSchedule::Decay {
                epoch_len: cfg.epoch_len,
            },
        );
        group.bench_with_input(BenchmarkId::new("fast", label), &p, |b, &p| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                fast_plan.run(p, seed).informed_count()
            })
        });
        // One iteration = one 64-trial bit-sliced block (see --bar).
        group.bench_with_input(BenchmarkId::new("batch", label), &p, |b, &p| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                fast_plan.run_batch(p, seed).informed_count(0)
            })
        });
        // Malicious rows: limited-malicious Decay through the
        // trait-object engine (flip radio adversary) and through the
        // FlipFault fast path (bench_gate --bar floors the ratio).
        if label == "grid32x32" {
            group.bench_with_input(BenchmarkId::new("trait-mal", label), &p, |b, &p| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    run_decay(g, source, cfg, FaultConfig::limited_malicious(p), seed)
                        .informed_at
                        .iter()
                        .filter(|i| i.is_some())
                        .count()
                })
            });
            let model = FlipFault::new(p);
            group.bench_with_input(BenchmarkId::new("fast-mal", label), &p, |b, _| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    fast_plan.run_lane_model(&model, seed, 0).informed_count()
                })
            });
        }
    }
    group.finish();
}

/// Out-of-core kernels on a disk-backed 3-segment store (prefetch
/// pipeline on): one scalar lane vs one 64-lane batched block per
/// kernel. The batched rows amortize every segment load across the
/// lanes; bench_gate `--bar` floors their per-trial speedup in CI.
fn bench_oc_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("oc_engines");
    group.sample_size(10);
    let label = "gnp4096-d8";
    let g = generators::gnp_connected(4096, 8.0 / 4095.0, &mut SmallRng::seed_from_u64(7));
    let n = g.node_count();
    let plan = ShardPlan::uniform(n, 3);
    let disk_store = || {
        let mut sink = SpillSink::create(default_scratch_dir(), plan.clone()).expect("spill sink");
        for v in 0..n {
            for &t in g.targets_of(v as u32) {
                if (v as u32) < t {
                    sink.push(v as u64, u64::from(t)).expect("spill edge");
                }
            }
        }
        ShardStore::Disk(sink.finalize().expect("finalize"))
    };
    let p = 0.3;
    let source = g.node(0);

    let horizon = theorem_horizon(&g, source, p);
    group.throughput(Throughput::Elements((horizon * n) as u64));
    let flood = ShardedFlood::new(disk_store(), 0, horizon);
    group.bench_with_input(BenchmarkId::new("flood-scalar", label), &p, |b, &p| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            flood
                .run_lane(p, seed, 0)
                .expect("oc flood")
                .informed_count()
        })
    });
    group.bench_with_input(BenchmarkId::new("flood-batch", label), &p, |b, &p| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            flood
                .run_batch(p, seed, n)
                .expect("oc flood batch")
                .informed_count(0)
        })
    });

    let cfg = DecayConfig::classical(n, traversal::radius_from(&g, source));
    group.throughput(Throughput::Elements((cfg.total_rounds() * n) as u64));
    let radio = ShardedRadio::new(
        disk_store(),
        0,
        cfg.total_rounds(),
        FastRadioSchedule::Decay {
            epoch_len: cfg.epoch_len,
        },
    );
    group.bench_with_input(BenchmarkId::new("radio-scalar", label), &p, |b, &p| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            radio
                .run_lane(p, seed, 0)
                .expect("oc radio")
                .informed_count()
        })
    });
    group.bench_with_input(BenchmarkId::new("radio-batch", label), &p, |b, &p| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            radio
                .run_batch(p, seed)
                .expect("oc radio batch")
                .informed_count(0)
        })
    });

    let m = phase_len_omission(n, p);
    let store = disk_store();
    let tree = ShardedBfsTree::build(&store, 0, default_scratch_dir()).expect("BFS tree");
    let (order, children) = tree.into_parts();
    let simple = ShardedSimple::new(ShardStore::Disk(children), order, 0, m);
    group.throughput(Throughput::Elements((n * m * n) as u64));
    group.bench_with_input(BenchmarkId::new("simple-scalar", label), &p, |b, &p| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            simple
                .run_lane(p, seed, 0)
                .expect("oc simple")
                .correct_count()
        })
    });
    group.bench_with_input(BenchmarkId::new("simple-batch", label), &p, |b, &p| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            simple
                .run_batch(p, seed)
                .expect("oc simple batch")
                .correct_count(0)
        })
    });
    group.finish();
}

fn bench_radio(c: &mut Criterion) {
    let mut group = c.benchmark_group("radio_rounds");
    for side in [8usize, 16, 32] {
        let g = generators::grid(side, side);
        let rounds = 64usize;
        group.throughput(Throughput::Elements((rounds * g.node_count()) as u64));
        for p in [0.0, 0.3] {
            group.bench_with_input(
                BenchmarkId::new(format!("grid{side}x{side}"), p),
                &p,
                |b, &p| {
                    b.iter(|| {
                        let mut net = RadioNetwork::new(&g, FaultConfig::omission(p), 7, |v| {
                            Beacon { me: v.index() }
                        });
                        net.run(rounds);
                        net.stats().receptions
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_mp, bench_mp_directed, bench_flood_fast_vs_mp, bench_radio, bench_radio_fast_vs_trait, bench_simple_fast_vs_trait, bench_oc_engines
}
criterion_main!(benches);
