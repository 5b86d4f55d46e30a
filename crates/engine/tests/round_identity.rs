//! Trait-object engine golden: a flooding automaton's execution counters
//! on `MpNetwork` and `RadioNetwork` must not move.
//!
//! Six small families (the core crate's standard suite, built here from
//! the generators) run a bit-flooding automaton for `2n` rounds per
//! cell, four seeds per cell, under omission at p ∈ {0.3, 0.6, 0.9} and
//! under (limited-)malicious faults at p = 0.3 against the engines'
//! worst-case adversaries. Each run's `MpStats` / `RadioStats` and final
//! bits are folded into one FNV-1a digest per family and model, pinned
//! as literals. The `faults` counter sees every fault coin, so a change
//! to the coins' order or law moves a digest even where no outcome
//! changes.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use randcast_engine::adversary::{FlipMpAdversary, LieOrJamAdversary};
use randcast_engine::fault::{FaultConfig, FaultKind};
use randcast_engine::mp::{MpNetwork, MpNode, Outgoing, SilentMpAdversary};
use randcast_engine::radio::{RadioAction, RadioNetwork, RadioNode, SilentRadioAdversary};
use randcast_graph::{generators, Graph, NodeId};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(hash: u64, word: u64) -> u64 {
    word.to_le_bytes()
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

const SEEDS: [u64; 4] = [21, 22, 23, 24];

/// Path(32), Grid(8, 8), BalancedTree(2, 6), Hypercube(6),
/// RandomTree { n: 64, seed: 12345 } and LowerBound(5).
fn families() -> Vec<Graph> {
    vec![
        generators::path(32),
        generators::grid(8, 8),
        generators::balanced_tree(2, 6),
        generators::hypercube(6),
        generators::random_tree(64, &mut SmallRng::seed_from_u64(12345)),
        generators::lower_bound_graph(5),
    ]
}

fn faults() -> [FaultConfig; 5] {
    [
        FaultConfig::omission(0.3),
        FaultConfig::omission(0.6),
        FaultConfig::omission(0.9),
        FaultConfig::malicious(0.3),
        FaultConfig::limited_malicious(0.3),
    ]
}

/// Relays the first bit it hears; node 0 starts with `true`. In the
/// radio model a holder speaks every third round, staggered by id.
struct Flood {
    id: usize,
    value: Option<bool>,
}

impl Flood {
    fn new(v: NodeId) -> Self {
        Flood {
            id: v.index(),
            value: (v.index() == 0).then_some(true),
        }
    }

    fn code(&self) -> u64 {
        self.value.map_or(0, |b| 1 + u64::from(b))
    }
}

impl MpNode for Flood {
    type Msg = bool;
    fn send(&mut self, _round: usize) -> Outgoing<bool> {
        self.value.map_or(Outgoing::Silent, Outgoing::Broadcast)
    }
    fn recv(&mut self, _round: usize, _from: NodeId, msg: bool) {
        self.value.get_or_insert(msg);
    }
}

impl RadioNode for Flood {
    type Msg = bool;
    fn act(&mut self, round: usize) -> RadioAction<bool> {
        match self.value {
            Some(b) if (round + self.id).is_multiple_of(3) => RadioAction::Transmit(b),
            _ => RadioAction::Listen,
        }
    }
    fn recv(&mut self, _round: usize, heard: Option<bool>) {
        if let Some(b) = heard {
            self.value.get_or_insert(b);
        }
    }
}

fn mp_run(g: &Graph, fault: FaultConfig, seed: u64) -> Vec<u64> {
    let rounds = 2 * g.node_count();
    let (stats, codes): (_, Vec<u64>) = if fault.kind == FaultKind::Omission {
        let mut net = MpNetwork::with_adversary(g, fault, SilentMpAdversary, seed, Flood::new);
        net.run(rounds);
        (net.stats(), net.nodes().map(Flood::code).collect())
    } else {
        let mut net = MpNetwork::with_adversary(g, fault, FlipMpAdversary, seed, Flood::new);
        net.run(rounds);
        (net.stats(), net.nodes().map(Flood::code).collect())
    };
    let mut words = vec![
        stats.rounds as u64,
        stats.transmissions,
        stats.deliveries,
        stats.faults,
    ];
    words.extend(codes);
    words
}

fn radio_run(g: &Graph, fault: FaultConfig, seed: u64) -> Vec<u64> {
    let rounds = 2 * g.node_count();
    let (stats, codes): (_, Vec<u64>) = if fault.kind == FaultKind::Omission {
        let mut net =
            RadioNetwork::with_adversary(g, fault, SilentRadioAdversary, seed, Flood::new);
        net.run(rounds);
        (net.stats(), net.nodes().map(Flood::code).collect())
    } else {
        let adversary = LieOrJamAdversary::new(true);
        let mut net = RadioNetwork::with_adversary(g, fault, adversary, seed, Flood::new);
        net.run(rounds);
        (net.stats(), net.nodes().map(Flood::code).collect())
    };
    let mut words = vec![
        stats.rounds as u64,
        stats.transmissions,
        stats.receptions,
        stats.collisions,
        stats.faults,
    ];
    words.extend(codes);
    words
}

#[test]
fn flooding_counters_keep_their_digests() {
    let got: Vec<(u64, u64)> = families()
        .iter()
        .map(|g| {
            let digest = |run: fn(&Graph, FaultConfig, u64) -> Vec<u64>| {
                let mut h = FNV_OFFSET;
                for fault in faults() {
                    for seed in SEEDS {
                        h = run(g, fault, seed).into_iter().fold(h, fnv);
                    }
                }
                h
            };
            (digest(mp_run), digest(radio_run))
        })
        .collect();
    let want = [
        (0xd7ae_019f_31d0_59da, 0x6b78_d923_7fcb_42d0), // Path(32)
        (0x7266_27c4_d3db_c2d1, 0xab96_bada_9693_6e79), // Grid(8, 8)
        (0x4077_053e_a658_f61b, 0xd742_664c_baa5_d227), // BalancedTree(2, 6)
        (0x96f0_4824_872c_2632, 0x6b7b_4de9_421b_d734), // Hypercube(6)
        (0xd31f_ee6f_9e41_91e7, 0x5683_4d2e_220e_36d3), // RandomTree { n: 64, seed: 12345 }
        (0x168c_c2e8_161d_2bc3, 0x6e66_02b4_6c36_fa78), // LowerBound(5)
    ];
    let listing: Vec<String> = got
        .iter()
        .map(|(mp, radio)| format!("(0x{mp:016x}, 0x{radio:016x})"))
        .collect();
    assert_eq!(got, want, "got [{}]", listing.join(", "));
}
