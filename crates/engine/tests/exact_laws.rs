//! Exact laws of the fast kernels on one fixed `G(10⁴, 8/n)` and its
//! BFS tree.
//!
//! On the tree, a child's state given its parent's depends only on the
//! parent's own coins, so across every internal node of every lane the
//! per-edge events are independent and their success count is exactly
//! binomial (Theorem 2.1's relay argument; the tree-percolation law of
//! probabilistic forwarding). Each law counts its successes over 20
//! 64-lane blocks (1,280 lanes) on fixed seeds and fails at |z| > 4.5.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use randcast_engine::flood_fast::{FastFlood, FastFloodVariant};
use randcast_engine::kernel::{FlipFault, Omission, LANES};
use randcast_engine::simple_fast::FastSimple;
use randcast_graph::{generators, CsrTree, Graph, NodeId};

const N: usize = 10_000;
const BLOCKS: u64 = 20;
const Z_MAX: f64 = 4.5;

/// The fixed graph and the BFS tree every tree kernel builds on it.
fn graph_and_tree() -> (Graph, CsrTree) {
    let g = generators::gnp(N, 8.0 / N as f64, &mut SmallRng::seed_from_u64(1000));
    let tree = g.bfs_tree(0);
    (g, tree)
}

/// Successes of a per-edge law: Bernoulli(`q`) events counted one per
/// (internal node, lane) pair.
#[derive(Default)]
struct Binomial {
    trials: u64,
    hits: u64,
}

impl Binomial {
    fn add(&mut self, hit: bool) {
        self.trials += 1;
        self.hits += u64::from(hit);
    }

    /// The z-score of the hit count under Binomial(trials, `q`).
    fn z(&self, q: f64) -> f64 {
        let n = self.trials as f64;
        (self.hits as f64 - n * q) / (n * q * (1.0 - q)).sqrt()
    }
}

/// Calls `edge(parent's state, its children's state)` for every
/// internal tree node in every lane of every block, `state(block, lane)`
/// giving each node's final state, after checking that all of a node's
/// children end in the same state (they share their parent's coins).
fn per_edge(
    tree: &CsrTree,
    mut state: impl FnMut(u64, u32) -> Vec<bool>,
    mut edge: impl FnMut(bool, bool),
) {
    for b in 0..BLOCKS {
        for lane in 0..LANES as u32 {
            let state = state(b, lane);
            for &u in tree.order() {
                let kids = tree.children_of(u as usize);
                let Some(&first) = kids.first() else {
                    continue;
                };
                let child = state[first as usize];
                assert!(
                    kids.iter().all(|&c| state[c as usize] == child),
                    "siblings under {u} differ in block {b} lane {lane}"
                );
                edge(state[u as usize], child);
            }
        }
    }
}

#[test]
fn simple_omission_adopts_per_phase_with_probability_one_minus_p_to_the_m() {
    // A correct internal node passes the bit to all of its children iff
    // one of its m transmissions survives: one adoption coin per
    // (phase, lane) at q = 1 − p^m.
    let (g, tree) = graph_and_tree();
    let p = 0.3;
    for m in [2usize, 3] {
        let plan = FastSimple::new(&g, g.node(0), m);
        let model = Omission::new(p);
        let mut law = Binomial::default();
        let mut batch = None;
        per_edge(
            &tree,
            |b, lane| {
                if lane == 0 {
                    batch = Some(plan.run_batch_model(&model, 0x5140 + 100 * m as u64 + b, !0));
                }
                let out = batch.as_ref().expect("block run").lane_outcome(lane);
                (0..N as u32)
                    .map(|v| out.is_correct(NodeId::from(v)))
                    .collect()
            },
            |parent, child| {
                if parent {
                    law.add(child);
                } else {
                    assert!(!child, "a child adopted from an uninformed parent");
                }
            },
        );
        let z = law.z(1.0 - p.powi(m as i32));
        assert!(law.trials > 1_000_000, "m = {m}: {} events", law.trials);
        assert!(
            z.abs() < Z_MAX,
            "m = {m}: z = {z:.2} over {} events",
            law.trials
        );
    }
}

#[test]
fn tree_flip_flood_children_inherit_the_parent_value_through_one_coin() {
    // Every delivery succeeds; a child holds its parent's value XOR the
    // parent's corruption coin: the true bit with probability 1 − p
    // under a correct parent, p under a wrong one.
    let (g, tree) = graph_and_tree();
    let p = 0.1;
    // The horizon exceeds the tree depth, so every node hears a value.
    let plan = FastFlood::new(&g, g.node(0), N, FastFloodVariant::Tree);
    let model = FlipFault::new(p);
    let (mut under_correct, mut under_wrong) = (Binomial::default(), Binomial::default());
    let mut batch = None;
    per_edge(
        &tree,
        |b, lane| {
            if lane == 0 {
                batch = Some(plan.run_batch_model(&model, 0xF100 + b, !0));
            }
            let out = batch.as_ref().expect("block run").lane_outcome(lane);
            (0..N as u32)
                .map(|v| out.is_informed(NodeId::from(v)))
                .collect()
        },
        |parent, child| {
            if parent {
                under_correct.add(child);
            } else {
                under_wrong.add(child);
            }
        },
    );
    for (law, q, label) in [
        (&under_correct, 1.0 - p, "correct"),
        (&under_wrong, p, "wrong"),
    ] {
        let z = law.z(q);
        assert!(
            law.trials > 100_000,
            "{label} parents: {} events",
            law.trials
        );
        assert!(
            z.abs() < Z_MAX,
            "{label} parents: z = {z:.2} over {} events",
            law.trials
        );
    }
}
