//! Scenario: command dissemination over a backbone with compromised
//! switches.
//!
//! ```sh
//! cargo run --release --example hostile_backbone
//! ```
//!
//! A command center must push an order across a deep hierarchical
//! backbone (a ternary tree). Some switching hardware is compromised: in
//! any time slot, each node's transmitter is hijacked with probability
//! `p` and then behaves arbitrarily (the paper's malicious transmission
//! failures — here, the flip adversary, the binding attack for majority
//! voting).
//!
//! The demo sweeps `p` across the Theorem 2.2/2.3 threshold `p = 1/2`
//! and shows the phase transition; it also contrasts the `O(D + log^α n)`
//! Kučera pipeline (Theorem 3.2) with the naive `n·m`-round
//! `Simple-Malicious` at equal safety.

use randcast::core::experiment::run_success_trials;
use randcast::prelude::*;
use randcast::stats::table::{fmt_prob, Table};

fn main() {
    let g = generators::balanced_tree(3, 4); // 121 nodes, depth 4
    let source = g.node(0);
    let n = g.node_count();
    let d = traversal::radius_from(&g, source);
    let trials = 100;
    let bit = true;

    println!("backbone: ternary tree, n = {n}, D = {d}\n");

    // --- The feasibility cliff at p = 1/2 (Theorems 2.2 / 2.3) ---------
    let mut table = Table::new(["p", "feasible?", "success (Simple-Malicious)"]);
    for p in [0.30, 0.40, 0.45, 0.50, 0.55] {
        let rate = if malicious_mp_feasible(p) {
            let plan = SimplePlan::malicious_mp(&g, source, p);
            // Near-threshold phase lengths are huge; keep the demo quick.
            let cell_trials = if plan.total_rounds() > 60_000 {
                25
            } else {
                trials
            };
            let est = run_success_trials(cell_trials, SeedSequence::new(7), |seed| {
                plan.run_mp(&g, FaultConfig::malicious(p), FlipMpAdversary, seed, bit)
                    .all_correct(bit)
            });
            est.rate()
        } else {
            // Infeasible regime: even two nodes cannot do better than a
            // coin flip (Theorem 2.3); demonstrate on the first link.
            // Cheap cells: use more trials so the ≈ 1/2 signal is clear.
            let est = run_success_trials(4 * trials, SeedSequence::new(8), |seed| {
                run_two_node_majority(301, p, bit, seed)
            });
            est.rate()
        };
        table.row([
            format!("{p:.2}"),
            malicious_mp_feasible(p).to_string(),
            fmt_prob(rate),
        ]);
    }
    println!("{}", table.render());

    // --- Fast vs naive in the feasible regime ---------------------------
    let p = 0.35;
    let naive = SimplePlan::malicious_mp(&g, source, p);
    let fast = KuceraBroadcast::new(&g, source, p).expect("p < 1/2 is feasible");
    let naive_est = run_success_trials(trials, SeedSequence::new(9), |seed| {
        naive
            .run_mp(&g, FaultConfig::malicious(p), FlipMpAdversary, seed, bit)
            .all_correct(bit)
    });
    let fast_est = run_success_trials(trials, SeedSequence::new(10), |seed| {
        fast.run(p, FailureBehavior::Flip, seed, bit)
            .all_correct(bit)
    });
    println!(
        "at p = {p}: naive Simple-Malicious: {} rounds, success {};",
        naive.total_rounds(),
        fmt_prob(naive_est.rate()),
    );
    println!(
        "          Kučera pipeline:        {} rounds, success {} \
         (O(D + polylog n) vs O(n log n))",
        fast.time(),
        fmt_prob(fast_est.rate()),
    );
}
