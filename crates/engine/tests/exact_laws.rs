//! Exact laws of the fast kernels on one fixed `G(10⁴, 8/n)` and its
//! BFS tree.
//!
//! On the tree, a child's state given its parent's depends only on the
//! parent's own coins, so across every internal node of every lane the
//! per-edge events are independent and their success count is exactly
//! binomial (Theorem 2.1's relay argument; the tree-percolation law of
//! probabilistic forwarding). Under `Flip` and `Lie` Simple's vote makes
//! the same per-edge events a two-state chain down each path. Tree
//! flooding's completion probability by a horizon has an exact tree DP.
//! Each law counts its events with popcounts over the blocks' per-node
//! lane masks, on fixed seeds, and fails at |z| > 4.5.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use randcast_engine::flood_fast::{FastFlood, FastFloodVariant};
use randcast_engine::kernel::{FaultModel, FlipFault, LaneMask, LieOrJamFault, Omission, LANES};
use randcast_engine::simple_fast::FastSimple;
use randcast_graph::{generators, CsrTree, Graph};
use randcast_stats::chernoff::binomial_upper_tail;

const N: usize = 10_000;
const Z_MAX: f64 = 4.5;

/// The fixed graph and the BFS tree every tree kernel builds on it.
fn graph_and_tree() -> (Graph, CsrTree) {
    let g = generators::gnp(N, 8.0 / N as f64, &mut SmallRng::seed_from_u64(1000));
    let tree = g.bfs_tree(0);
    (g, tree)
}

/// Successes of a law: Bernoulli(`q`) events, one per (node, lane) or
/// per lane.
#[derive(Default)]
struct Binomial {
    trials: u64,
    hits: u64,
}

impl Binomial {
    /// Counts one event per lane of `trials`, a hit where `hits` is set.
    fn add(&mut self, trials: LaneMask, hits: LaneMask) {
        self.trials += u64::from(trials.count_ones());
        self.hits += u64::from((trials & hits).count_ones());
    }

    /// The z-score of the hit count under Binomial(trials, `q`).
    fn z(&self, q: f64) -> f64 {
        let n = self.trials as f64;
        (self.hits as f64 - n * q) / (n * q * (1.0 - q)).sqrt()
    }
}

/// Calls `edge(parent, child)` for every internal tree node with the
/// lanes in which it and its children ended in state (`state(v)` gives
/// node `v`'s lanes), after checking that all of a node's children end
/// in the same lanes: they share their parent's coins.
fn per_edge(
    tree: &CsrTree,
    state: impl Fn(u32) -> LaneMask,
    mut edge: impl FnMut(LaneMask, LaneMask),
) {
    for &u in tree.order() {
        let kids = tree.children_of(u as usize);
        let Some(&first) = kids.first() else {
            continue;
        };
        let child = state(first);
        assert!(
            kids.iter().all(|&c| state(c) == child),
            "siblings under {u} differ"
        );
        edge(state(u), child);
    }
}

#[test]
fn simple_omission_adopts_per_phase_with_probability_one_minus_p_to_the_m() {
    // A correct internal node passes the bit to all of its children iff
    // one of its m transmissions survives: one adoption coin per
    // (phase, lane) at q = 1 − p^m. 20 blocks, 1,280 lanes.
    let (g, tree) = graph_and_tree();
    let p = 0.3;
    for m in [2usize, 3] {
        let plan = FastSimple::new(&g, g.node(0), m);
        let model = Omission::new(p);
        let mut law = Binomial::default();
        for b in 0..20 {
            let batch = plan.run_batch_model(&model, 0x5140 + 100 * m as u64 + b, !0);
            per_edge(
                &tree,
                |v| batch.lanes(v),
                |parent, child| {
                    assert_eq!(child & !parent, 0, "a child adopted from a wrong parent");
                    law.add(parent, child);
                },
            );
        }
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
fn simple_malicious_votes_follow_the_two_state_chain() {
    // Every child hears all m of its parent's transmissions, k of them
    // corrupt, k ~ Bin(m, p) shared by the sibling set. Under a correct
    // parent the vote keeps the bit iff k < m − ⌊m/2⌋ (α) under both
    // models. Under a wrong parent it turns the bit iff k ≥ ⌊m/2⌋ + 1
    // (β) under `Flip`, and never under `Lie`, whose corrupt rounds
    // all send the lie. 20 blocks, 1,280 lanes, per model and m.
    let (g, tree) = graph_and_tree();
    let p = 0.3;
    for m in [3usize, 4] {
        let plan = FastSimple::new(&g, g.node(0), m);
        let alpha = 1.0 - binomial_upper_tail(m as u64, (m - m / 2) as u64, p);
        let beta = binomial_upper_tail(m as u64, (m / 2 + 1) as u64, p);
        let (flip, lie) = (FlipFault::new(p), LieOrJamFault::new(p));
        let models: [(&dyn FaultModel, u64, Option<f64>); 2] =
            [(&flip, 0xF500, Some(beta)), (&lie, 0x1E00, None)];
        for (model, seed, wrong_q) in models {
            let (mut under_correct, mut under_wrong) = (Binomial::default(), Binomial::default());
            for b in 0..20 {
                let batch = plan.run_batch_model(model, seed + 100 * m as u64 + b, !0);
                per_edge(
                    &tree,
                    |v| batch.lanes(v),
                    |parent, child| {
                        under_correct.add(parent, child);
                        under_wrong.add(!parent, child);
                    },
                );
            }
            let label = model.name();
            for (law, q, parents) in [
                (&under_correct, Some(alpha), "correct"),
                (&under_wrong, wrong_q, "wrong"),
            ] {
                assert!(
                    law.trials > 500_000,
                    "{label} m = {m}, {parents} parents: {} events",
                    law.trials
                );
                // `Lie`: a wrong parent's children never turn correct.
                let Some(q) = q else {
                    assert_eq!(
                        law.hits, 0,
                        "{label} m = {m}: a wrong parent's child turned"
                    );
                    continue;
                };
                let z = law.z(q);
                assert!(
                    z.abs() < Z_MAX,
                    "{label} m = {m}, {parents} parents: z = {z:.2} over {} events",
                    law.trials
                );
            }
        }
    }
}

#[test]
fn tree_flip_flood_children_inherit_the_parent_value_through_one_coin() {
    // Every delivery succeeds; a child holds its parent's value XOR the
    // parent's corruption coin: the true bit with probability 1 − p
    // under a correct parent, p under a wrong one. 80 blocks, 5,120
    // lanes.
    let (g, tree) = graph_and_tree();
    let p = 0.1;
    // The horizon exceeds the tree depth, so every node hears a value.
    let plan = FastFlood::new(&g, g.node(0), N, FastFloodVariant::Tree);
    let model = FlipFault::new(p);
    let (mut under_correct, mut under_wrong) = (Binomial::default(), Binomial::default());
    for b in 0..80 {
        let batch = plan.run_batch_model(&model, 0xF100 + b, !0);
        per_edge(
            &tree,
            |v| batch.lanes(v),
            |parent, child| {
                under_correct.add(parent, child);
                under_wrong.add(!parent, child);
            },
        );
    }
    for (law, q, label) in [
        (&under_correct, 1.0 - p, "correct"),
        (&under_wrong, p, "wrong"),
    ] {
        let z = law.z(q);
        assert!(
            law.trials > 400_000,
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

/// P(every node of the source component is informed by round `t`) for
/// tree flooding under omission at rate `p`: `F_v(s)`, the probability
/// that `v`'s subtree is informed within `s` rounds of `v`, is
/// `Σ_{g=1..s} (1 − p) p^(g−1) Π_{c child of v} F_c(s − g)` — siblings
/// share their parent's delay `g` — with `F ≡ 1` at leaves.
fn tree_completion_cdf(tree: &CsrTree, p: f64, t: usize) -> f64 {
    let mut f: Vec<Vec<f64>> = vec![Vec::new(); N];
    let at = |f: &[Vec<f64>], c: u32, r: usize| f[c as usize].get(r).copied().unwrap_or(1.0);
    for &v in tree.order().iter().rev() {
        let kids = tree.children_of(v as usize);
        if kids.is_empty() {
            continue;
        }
        let all_kids: Vec<f64> = (0..=t)
            .map(|r| kids.iter().map(|&c| at(&f, c, r)).product())
            .collect();
        f[v as usize] = (0..=t)
            .map(|s| {
                (1..=s)
                    .map(|g| (1.0 - p) * p.powi(g as i32 - 1) * all_kids[s - g])
                    .sum()
            })
            .collect();
    }
    at(&f, tree.order()[0], t)
}

#[test]
fn tree_omission_flood_completes_by_t_with_the_tree_dp_probability() {
    // Whether a lane informed its whole source component by the horizon
    // t is a Bernoulli(F(t)) indicator, independent across lanes. 128
    // blocks, 8,192 lanes, per horizon.
    let (g, tree) = graph_and_tree();
    let p = 0.3;
    for t in [15usize, 16] {
        let exact = tree_completion_cdf(&tree, p, t);
        assert!((0.2..=0.8).contains(&exact), "t = {t}: F = {exact}");
        let plan = FastFlood::new(&g, g.node(0), t, FastFloodVariant::Tree);
        let model = Omission::new(p);
        let mut law = Binomial::default();
        for b in 0..128 {
            let batch = plan.run_batch_model(&model, 0x7500 + 100 * t as u64 + b, !0);
            let done = (0..LANES as u32)
                .filter(|&lane| batch.informed_count(lane) == tree.component_size())
                .fold(0, |mask, lane| mask | 1 << lane);
            law.add(!0, done);
        }
        let z = law.z(exact);
        assert!(
            z.abs() < Z_MAX,
            "t = {t}: F = {exact:.4}, observed {} of {}, z = {z:.2}",
            law.hits,
            law.trials
        );
    }
}
