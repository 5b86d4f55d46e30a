//! Kučera's noisy-line broadcast algorithm and its tree lift
//! (Theorem 3.2): limited-malicious broadcast in `O(D + log^α n)` rounds
//! for any `p < 1/2`.
//!
//! The paper uses Kučera's result \[23\] as a black box through the
//! interface `A_p(n, τ, δ, Q)` — *"on the line of length `n`, with
//! per-transmission failure probability `p`, there is a broadcast
//! algorithm of time `τ` and delay `δ` (maximum active period of any
//! node) with failure probability at most `Q`"* — closed under two
//! composition rules:
//!
//! * **\[CO1\] serial**: `ρ` copies end to end; segment `j` starts at time
//!   `j·τ`. `A_p(n,τ,δ,Q) ⇒ A_p(ρn, ρτ, δ, 1 − (1−Q)^ρ)`.
//! * **\[CO2\] repetition**: the same line run `κ` times, starts spaced by
//!   the delay `δ` (so per-node active periods never overlap), receivers
//!   take the per-node majority.
//!   `A_p(n,τ,δ,Q) ⇒ A_p(n, τ + (κ−1)δ, κδ, Σ_{j≥κ/2} C(κ,j)Q^j(1−Q)^{κ−j})`.
//!
//! [`Plan`] builds composition trees with exact accounting of
//! `(n, τ, δ, Q)`; [`Plan::for_line`] chooses compositions automatically;
//! [`CompiledPlan`] flattens a plan into a deterministic event schedule
//! (single-bit transmissions and local majority votes); and
//! [`CompiledPlan::run_tree`] executes it along every branch of a BFS
//! tree ([`CsrTree`]) simultaneously — a node transmits once per step to all its
//! children under a single fault coin, exactly the paper's per-node
//! transmitter-failure model.
//!
//! The paper's extension requirements (long messages ⇒ here: the bit;
//! limited-malicious instead of pure flips; *every* node must end
//! correct, not just the last) are honored: every position finalizes
//! through the same majority votes as the endpoint.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use randcast_graph::{CsrTree, Graph, NodeId};
use randcast_stats::chernoff::binomial_upper_tail;
use randcast_stats::seed::splitmix64;

use crate::simple::spanning_tree;

/// Why a Kučera plan could not be constructed. Planning failures are
/// *configuration* errors (infeasible `p`, impossible amplification
/// targets) — they surface as `Result`s so a sweep can reject the one
/// bad cell instead of aborting mid-run.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum KuceraError {
    /// Majority amplification cannot converge: the error bound to
    /// amplify is already `≥ 1/2` (in particular any failure
    /// probability `p ≥ 1/2` — the Theorem 2.3 infeasible regime).
    ErrorBoundTooHigh {
        /// The offending per-repetition error bound.
        q: f64,
    },
    /// The repetition count needed to reach `target` from `q` exceeds
    /// the planner's cap — the target is unreachably strict for this
    /// error level.
    AmplificationCapExceeded {
        /// Error bound being amplified.
        q: f64,
        /// Requested target error.
        target: f64,
        /// The repetition cap that was exhausted.
        cap: u64,
    },
}

impl fmt::Display for KuceraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            KuceraError::ErrorBoundTooHigh { q } => {
                write!(
                    f,
                    "cannot amplify an error bound of {q} >= 1/2 \
                     (majority voting requires p < 1/2)"
                )
            }
            KuceraError::AmplificationCapExceeded { q, target, cap } => {
                write!(
                    f,
                    "cannot amplify error {q} to {target} within {cap} repetitions"
                )
            }
        }
    }
}

impl Error for KuceraError {}

/// What a failed (limited-malicious) transmission does — chosen by the
/// adversary; [`FailureBehavior::Flip`] is the binding worst case for
/// majority voting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureBehavior {
    /// Deliver the complement bit (Kučera's flip model; worst case).
    Flip,
    /// Drop the transmission (receiver substitutes the default `0` when
    /// relaying; drops cast no ballots in votes).
    Drop,
    /// Deliver a uniformly random bit.
    RandomBit,
}

/// Exact `A_p(n, τ, δ, Q)` accounting for a composition tree.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Metrics {
    /// Line length `n` (number of hops).
    pub len: usize,
    /// Time `τ`.
    pub time: usize,
    /// Delay `δ` (maximum per-node active period).
    pub delay: usize,
    /// Failure-probability bound `Q` (per line/branch).
    pub error_bound: f64,
}

/// A composition tree over the basic one-hop transmission.
#[derive(Clone, Debug)]
pub struct Plan {
    node: PlanNode,
    metrics: Metrics,
}

#[derive(Clone, Debug)]
enum PlanNode {
    /// One transmission across one hop: `A_p(1, 1, 1, p)`.
    Basic,
    /// \[CO1\] with factor `rho`.
    Serial { inner: Box<Plan>, rho: usize },
    /// \[CO2\] with factor `kappa` (odd).
    Repeat { inner: Box<Plan>, kappa: usize },
}

impl Plan {
    /// The basic single-hop plan `A_p(1, 1, 1, p)`.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1)`.
    #[must_use]
    pub fn basic(p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "failure probability out of range");
        Plan {
            node: PlanNode::Basic,
            metrics: Metrics {
                len: 1,
                time: 1,
                delay: 1,
                error_bound: p,
            },
        }
    }

    /// \[CO1\]: `ρ` copies of `self` end to end.
    ///
    /// # Panics
    ///
    /// Panics if `rho == 0`.
    #[must_use]
    pub fn serial(self, rho: usize) -> Self {
        assert!(rho >= 1, "serial factor must be positive");
        let m = self.metrics;
        let q = 1.0 - (1.0 - m.error_bound).powi(rho as i32);
        Plan {
            metrics: Metrics {
                len: m.len * rho,
                time: m.time * rho,
                delay: m.delay,
                error_bound: q,
            },
            node: PlanNode::Serial {
                inner: Box::new(self),
                rho,
            },
        }
    }

    /// \[CO2\]: `κ` pipelined repetitions with per-node majority voting.
    ///
    /// # Panics
    ///
    /// Panics if `kappa` is even or zero (odd repetition counts make
    /// majority ties impossible).
    #[must_use]
    pub fn repeat(self, kappa: usize) -> Self {
        assert!(
            kappa >= 1 && kappa % 2 == 1,
            "repetition factor must be odd"
        );
        let m = self.metrics;
        // Wrong majority needs ≥ (κ+1)/2 failed repetitions.
        let q = binomial_upper_tail(kappa as u64, (kappa as u64).div_ceil(2), m.error_bound);
        Plan {
            metrics: Metrics {
                len: m.len,
                time: m.time + (kappa - 1) * m.delay,
                delay: kappa * m.delay,
                error_bound: q,
            },
            node: PlanNode::Repeat {
                inner: Box::new(self),
                kappa,
            },
        }
    }

    /// The `(n, τ, δ, Q)` accounting of this plan.
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        self.metrics
    }

    /// Line length covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.metrics.len
    }

    /// Whether the plan covers no hops (never true — a plan covers at
    /// least one hop).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Time `τ`.
    #[must_use]
    pub fn time(&self) -> usize {
        self.metrics.time
    }

    /// Analytic per-branch failure bound `Q`.
    #[must_use]
    pub fn error_bound(&self) -> f64 {
        self.metrics.error_bound
    }

    /// Automatic planner: a plan covering at least `len` hops with
    /// per-branch error `≤ target_q`, built by interleaving \[CO1\] serial
    /// growth (factor ≤ 8 per level) with \[CO2\] error resets, and a final
    /// amplification stage.
    ///
    /// # Errors
    ///
    /// Returns [`KuceraError::ErrorBoundTooHigh`] when `p ≥ 1/2`
    /// (majority voting cannot converge — Theorem 2.3's infeasible
    /// regime) and propagates [`KuceraError::AmplificationCapExceeded`]
    /// when an amplification stage would need an absurd repetition
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `p < 0`, `len == 0`, or `target_q ≤ 0` (programmer
    /// errors rather than configuration ones).
    pub fn for_line(len: usize, p: f64, target_q: f64) -> Result<Self, KuceraError> {
        assert!(p >= 0.0, "failure probability must be nonnegative");
        assert!(len >= 1, "need at least one hop");
        assert!(target_q > 0.0, "target error must be positive");
        if p >= 0.5 {
            return Err(KuceraError::ErrorBoundTooHigh { q: p });
        }
        const STAGE_Q: f64 = 1e-3;
        let mut plan = Plan::basic(p);
        if plan.error_bound() > STAGE_Q {
            plan = plan.amplify_to(STAGE_Q)?;
        }
        while plan.len() < len {
            let remaining = len.div_ceil(plan.len());
            let rho = remaining.clamp(2, 8);
            plan = plan.serial(rho);
            if plan.len() < len && plan.error_bound() > STAGE_Q {
                plan = plan.amplify_to(STAGE_Q)?;
            }
        }
        if plan.error_bound() > target_q {
            plan = plan.amplify_to(target_q)?;
        }
        Ok(plan)
    }

    /// Applies the smallest odd \[CO2\] factor bringing the error bound to
    /// `target`. The repetition count scales like
    /// `ln(1/target) / (1/2 − Q)²` (Hoeffding), so it blows up — as the
    /// theory says it must — when the current error `Q` approaches 1/2.
    ///
    /// # Errors
    ///
    /// Returns [`KuceraError::ErrorBoundTooHigh`] when the current
    /// error bound is `≥ 1/2` and
    /// [`KuceraError::AmplificationCapExceeded`] when more than
    /// 2,000,001 repetitions would be needed.
    pub fn amplify_to(self, target: f64) -> Result<Self, KuceraError> {
        let q = self.metrics.error_bound;
        if q <= target {
            return Ok(self);
        }
        if q >= 0.5 {
            return Err(KuceraError::ErrorBoundTooHigh { q });
        }
        // Hoeffding start: exp(-2κ(1/2-Q)²) = target; begin a bit below
        // and search upward for the exact binomial-tail crossing.
        let gap = 0.5 - q;
        let estimate = (1.0 / target).ln() / (2.0 * gap * gap);
        let mut kappa = ((estimate * 0.7) as u64).max(3) | 1; // odd
        const CAP: u64 = 2_000_001;
        while kappa <= CAP {
            if binomial_upper_tail(kappa, kappa.div_ceil(2), q) <= target {
                return Ok(self.repeat(kappa as usize));
            }
            kappa += 2;
        }
        Err(KuceraError::AmplificationCapExceeded {
            q,
            target,
            cap: CAP,
        })
    }

    /// Flattens the plan into an executable event schedule.
    #[must_use]
    pub fn compile(&self) -> CompiledPlan {
        let mut b = Compiler {
            ops: Vec::new(),
            n_regs: 1, // register 0 = the source's input bit
        };
        let cov = b.emit(self, 0, Reg(0), 0);
        let compiled = CompiledPlan {
            ops: b.ops,
            n_regs: b.n_regs,
            final_reg: cov.regs,
            len: self.len(),
            time: self.time(),
        };
        compiled.assert_no_transmission_conflicts();
        compiled
    }
}

/// A register id: one single-bit storage slot, instantiated per node at
/// execution time. Each register is written exactly once.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Reg(u32);

/// One event of a compiled plan.
#[derive(Clone, Debug)]
enum Op {
    /// At `time`, the node at line position `from_pos` transmits the bit
    /// in `src` one hop forward, where it is stored into `dst`.
    Send {
        time: usize,
        from_pos: usize,
        src: Reg,
        dst: Reg,
    },
    /// The node at position `pos` takes the majority of `srcs` into
    /// `dst` (a local computation, not a transmission).
    Vote {
        pos: usize,
        srcs: Vec<Reg>,
        dst: Reg,
    },
}

/// Per-position coverage produced while compiling a sub-plan.
struct Coverage {
    /// `regs[i]`: the register holding position `base+i`'s final value
    /// for this sub-plan (`i ∈ 0..=len`).
    regs: Vec<Reg>,
    /// `ready[i]`: the time at which `regs[i]` is available.
    ready: Vec<usize>,
}

struct Compiler {
    ops: Vec<Op>,
    n_regs: u32,
}

impl Compiler {
    fn fresh(&mut self) -> Reg {
        let r = Reg(self.n_regs);
        self.n_regs += 1;
        r
    }

    /// Emits ops for `plan` starting at `base_time`, with the sub-line
    /// occupying positions `pos..pos+plan.len()` and the input bit in
    /// `input` (ready by `base_time`).
    fn emit(&mut self, plan: &Plan, base_time: usize, input: Reg, pos: usize) -> Coverage {
        match &plan.node {
            PlanNode::Basic => {
                let dst = self.fresh();
                self.ops.push(Op::Send {
                    time: base_time,
                    from_pos: pos,
                    src: input,
                    dst,
                });
                Coverage {
                    regs: vec![input, dst],
                    ready: vec![base_time, base_time + 1],
                }
            }
            PlanNode::Serial { inner, rho } => {
                let im = inner.metrics();
                let mut regs = vec![input];
                let mut ready = vec![base_time];
                let mut cur_input = input;
                for j in 0..*rho {
                    let cov =
                        self.emit(inner, base_time + j * im.time, cur_input, pos + j * im.len);
                    debug_assert!(
                        *cov.ready.last().unwrap() <= base_time + (j + 1) * im.time,
                        "segment endpoint must be ready before the next segment"
                    );
                    regs.extend_from_slice(&cov.regs[1..]);
                    ready.extend_from_slice(&cov.ready[1..]);
                    cur_input = *cov.regs.last().unwrap();
                }
                Coverage { regs, ready }
            }
            PlanNode::Repeat { inner, kappa } => {
                let im = inner.metrics();
                let covs: Vec<Coverage> = (0..*kappa)
                    .map(|j| self.emit(inner, base_time + j * im.delay, input, pos))
                    .collect();
                let mut regs = vec![input];
                let mut ready = vec![base_time];
                for i in 1..=im.len {
                    let srcs: Vec<Reg> = covs.iter().map(|c| c.regs[i]).collect();
                    let dst = self.fresh();
                    let at = covs.last().unwrap().ready[i];
                    self.ops.push(Op::Vote {
                        pos: pos + i,
                        srcs,
                        dst,
                    });
                    regs.push(dst);
                    ready.push(at);
                }
                Coverage { regs, ready }
            }
        }
    }
}

/// A flattened, executable Kučera plan.
#[derive(Clone, Debug)]
pub struct CompiledPlan {
    ops: Vec<Op>,
    n_regs: u32,
    /// Final register of each line position `0..=len`.
    final_reg: Vec<Reg>,
    len: usize,
    time: usize,
}

/// Result of running a compiled plan over a spanning tree.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct KuceraOutcome {
    /// Each node's final bit.
    pub values: Vec<bool>,
    /// Rounds spanned by the schedule (`τ` of the plan).
    pub rounds: usize,
}

impl KuceraOutcome {
    /// Whether every node decoded the source bit.
    #[must_use]
    pub fn all_correct(&self, source_bit: bool) -> bool {
        self.values.iter().all(|&b| b == source_bit)
    }

    /// Number of nodes holding the correct bit.
    #[must_use]
    pub fn correct_count(&self, source_bit: bool) -> usize {
        self.values.iter().filter(|&&b| b == source_bit).count()
    }
}

impl CompiledPlan {
    /// Line length covered (`≥` the tree depth it can serve).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the plan covers no hops (never true).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Total schedule time `τ`.
    #[must_use]
    pub fn time(&self) -> usize {
        self.time
    }

    /// Number of single-bit transmissions per branch hop structure.
    #[must_use]
    pub fn send_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, Op::Send { .. }))
            .count()
    }

    /// Verifies that no line position transmits twice in the same round
    /// (two transmissions would share one fault coin, breaking the
    /// independence the composition rules assume). [`Plan::compile`]
    /// runs this automatically.
    ///
    /// # Panics
    ///
    /// Panics on a conflict — which would indicate a planner bug.
    pub fn assert_no_transmission_conflicts(&self) {
        let mut seen: HashMap<(usize, usize), ()> = HashMap::new();
        for op in &self.ops {
            if let Op::Send { time, from_pos, .. } = op {
                assert!(
                    seen.insert((*from_pos, *time), ()).is_none(),
                    "position {from_pos} transmits twice at time {time}"
                );
            }
        }
    }

    /// Executes the plan along every branch of `tree`, a BFS tree
    /// ([`Graph::bfs_tree`]) rooted at the source: line position `i` is
    /// played by all tree nodes at depth `i`; a transmitting node sends
    /// one bit to all of its children under a single per-(node, round)
    /// fault coin. Nodes outside the tree keep the default bit 0.
    ///
    /// Faults flip/drop/randomize per `behavior` with probability `p`,
    /// independently per (node, round) — the paper's transmitter model.
    ///
    /// # Panics
    ///
    /// Panics if the plan is shorter than the tree depth or
    /// `p ∉ [0, 1)`.
    #[must_use]
    pub fn run_tree(
        &self,
        tree: &CsrTree,
        p: f64,
        behavior: FailureBehavior,
        seed: u64,
        source_bit: bool,
    ) -> KuceraOutcome {
        assert!((0.0..1.0).contains(&p), "failure probability out of range");
        assert!(
            tree.depth() <= self.len,
            "plan covers {} hops but tree depth is {}",
            self.len,
            tree.depth()
        );
        let n = tree.node_count();
        let by_level = level_runs(tree);
        // One flat register file: node `u`'s register `r` is slot
        // `u · n_regs + r`.
        let width = self.n_regs as usize;
        let slot = |u: u32, r: Reg| u as usize * width + r.0 as usize;
        let mut regs: Vec<Option<bool>> = vec![None; n * width];
        regs[slot(tree.order()[0], Reg(0))] = Some(source_bit);

        for op in &self.ops {
            match op {
                Op::Send {
                    time,
                    from_pos,
                    src,
                    dst,
                } => {
                    if *from_pos >= by_level.len() {
                        continue; // beyond the deepest level: dummy region
                    }
                    for &u in by_level[*from_pos] {
                        let children = tree.children_of(u as usize);
                        if children.is_empty() {
                            continue;
                        }
                        // A silent reception earlier in the chain is
                        // relayed as the default bit 0.
                        let bit = regs[slot(u, *src)].unwrap_or(false);
                        let delivered = deliver(bit, p, behavior, seed, u, *time);
                        for &c in children {
                            regs[slot(c, *dst)] = delivered;
                        }
                    }
                }
                Op::Vote { pos, srcs, dst } => {
                    if *pos >= by_level.len() {
                        continue;
                    }
                    for &u in by_level[*pos] {
                        // Count the ballots in place: +1 for a one, −1
                        // for a zero, none for a silent register.
                        let margin: isize = srcs
                            .iter()
                            .filter_map(|&r| regs[slot(u, r)])
                            .map(|b| if b { 1 } else { -1 })
                            .sum();
                        regs[slot(u, *dst)] = Some(margin > 0);
                    }
                }
            }
        }

        let mut values = vec![false; n];
        for (level, nodes) in by_level.iter().enumerate() {
            for &v in *nodes {
                values[v as usize] = regs[slot(v, self.final_reg[level])].unwrap_or(false);
            }
        }
        KuceraOutcome {
            values,
            rounds: self.time,
        }
    }
}

/// The tree's order cut into its BFS levels, which the order lists one
/// after another: level `d + 1` is exactly the children of level `d`.
fn level_runs(tree: &CsrTree) -> Vec<&[u32]> {
    let order = tree.order();
    let mut runs = Vec::with_capacity(tree.depth() + 1);
    let (mut start, mut end) = (0, 1);
    while start < end {
        let level = &order[start..end];
        runs.push(level);
        start = end;
        end += level
            .iter()
            .map(|&u| tree.children_of(u as usize).len())
            .sum::<usize>();
    }
    runs
}

/// Resolves one faulty-or-not transmission of `bit` from node `u` at
/// `time`: returns the delivered value (`None` = dropped).
fn deliver(
    bit: bool,
    p: f64,
    behavior: FailureBehavior,
    seed: u64,
    u: u32,
    time: usize,
) -> Option<bool> {
    if p == 0.0 {
        return Some(bit);
    }
    // Deterministic per-(node, time) coin, independent of op processing
    // order.
    let h = splitmix64(
        splitmix64(seed ^ u64::from(u).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            ^ (time as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
    );
    let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
    if unit >= p {
        return Some(bit);
    }
    match behavior {
        FailureBehavior::Flip => Some(!bit),
        FailureBehavior::Drop => None,
        FailureBehavior::RandomBit => Some(splitmix64(h) & 1 == 1),
    }
}

/// Convenience wrapper (Theorem 3.2): a plan + compilation for
/// broadcasting on `graph` from `source` with per-branch error low enough
/// that a union bound over branches gives almost-safety
/// (`Q ≤ 1/(2n²)`).
#[derive(Clone, Debug)]
pub struct KuceraBroadcast {
    compiled: CompiledPlan,
    tree: CsrTree,
}

impl KuceraBroadcast {
    /// Plans for the BFS-tree depth of `(graph, source)`.
    ///
    /// # Errors
    ///
    /// Returns the planning error when `p ≥ 1/2` or the prescribed
    /// amplification is impossible (see [`Plan::for_line`]).
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected from `source`.
    pub fn new(graph: &Graph, source: NodeId, p: f64) -> Result<Self, KuceraError> {
        let tree = spanning_tree(graph, source);
        let len = tree.depth().max(1);
        let n = graph.node_count().max(2);
        let target = 1.0 / (2.0 * (n * n) as f64);
        let plan = Plan::for_line(len, p, target)?;
        Ok(KuceraBroadcast {
            compiled: plan.compile(),
            tree,
        })
    }

    /// Total broadcast time `τ`.
    #[must_use]
    pub fn time(&self) -> usize {
        self.compiled.time()
    }

    /// Executes one broadcast on the graph the plan was built for.
    #[must_use]
    pub fn run(
        &self,
        p: f64,
        behavior: FailureBehavior,
        seed: u64,
        source_bit: bool,
    ) -> KuceraOutcome {
        self.compiled
            .run_tree(&self.tree, p, behavior, seed, source_bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use randcast_graph::generators;

    #[test]
    fn basic_metrics() {
        let b = Plan::basic(0.2);
        let m = b.metrics();
        assert_eq!((m.len, m.time, m.delay), (1, 1, 1));
        assert!((m.error_bound - 0.2).abs() < 1e-12);
    }

    #[test]
    fn serial_metrics_follow_co1() {
        let plan = Plan::basic(0.1).serial(4);
        let m = plan.metrics();
        assert_eq!((m.len, m.time, m.delay), (4, 4, 1));
        let expect = 1.0 - 0.9f64.powi(4);
        assert!((m.error_bound - expect).abs() < 1e-12);
    }

    #[test]
    fn repeat_metrics_follow_co2() {
        let plan = Plan::basic(0.1).repeat(3);
        let m = plan.metrics();
        assert_eq!((m.len, m.time, m.delay), (1, 3, 3));
        // Wrong majority: >= 2 of 3 fail: 3·0.01·0.9 + 0.001 = 0.028.
        assert!((m.error_bound - 0.028).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn repeat_rejects_even_kappa() {
        let _ = Plan::basic(0.1).repeat(4);
    }

    #[test]
    fn planner_reaches_length_and_error() {
        for len in [1usize, 5, 17, 100] {
            for p in [0.05, 0.2, 0.4] {
                let plan = Plan::for_line(len, p, 1e-6).expect("feasible");
                assert!(plan.len() >= len, "len {len} p {p}");
                assert!(plan.error_bound() <= 1e-6, "len {len} p {p}");
            }
        }
    }

    #[test]
    fn planner_time_is_near_linear() {
        // Time per hop should not explode as the line grows (the point of
        // the composition rules).
        let p = 0.3;
        let t50 = Plan::for_line(50, p, 1e-6).expect("feasible").time() as f64;
        let t400 = Plan::for_line(400, p, 1e-6).expect("feasible").time() as f64;
        let per_hop_growth = (t400 / 400.0) / (t50 / 50.0);
        assert!(per_hop_growth < 3.0, "growth={per_hop_growth}");
    }

    #[test]
    fn compile_counts_are_consistent() {
        let plan = Plan::basic(0.2).repeat(3).serial(4);
        let c = plan.compile();
        assert_eq!(c.len(), 4);
        assert_eq!(c.time(), plan.time());
        // 4 segments × 3 repetitions × 1 basic send.
        assert_eq!(c.send_count(), 12);
    }

    #[test]
    fn fault_free_execution_delivers_everywhere() {
        let tree = generators::path(9).bfs_tree(0);
        let plan = Plan::for_line(9, 0.3, 1e-4).expect("feasible");
        let c = plan.compile();
        for bit in [false, true] {
            let out = c.run_tree(&tree, 0.0, FailureBehavior::Flip, 1, bit);
            assert!(out.all_correct(bit), "bit={bit}");
        }
    }

    #[test]
    fn flip_faults_mostly_corrected() {
        let tree = generators::path(20).bfs_tree(0);
        let p = 0.25;
        let plan = Plan::for_line(20, p, 1e-6).expect("feasible");
        let c = plan.compile();
        let mut ok = 0;
        for seed in 0..40 {
            let out = c.run_tree(&tree, p, FailureBehavior::Flip, seed, true);
            ok += usize::from(out.all_correct(true));
        }
        assert!(ok >= 38, "ok={ok}");
    }

    #[test]
    fn empirical_error_within_analytic_bound() {
        // A deliberately weak plan so errors are observable: basic ×
        // serial(3), Q = 1-(1-p)^3.
        let p = 0.2;
        let plan = Plan::basic(p).serial(3);
        let bound = plan.error_bound();
        let c = plan.compile();
        let tree = generators::path(3).bfs_tree(0);
        let trials = 2000;
        let mut wrong_end = 0;
        for seed in 0..trials {
            let out = c.run_tree(&tree, p, FailureBehavior::Flip, seed, true);
            wrong_end += usize::from(!out.values[3]);
        }
        let rate = wrong_end as f64 / trials as f64;
        // Flip parity can self-correct, so the observed rate is below the
        // union-style bound but same order.
        assert!(rate <= bound + 0.03, "rate={rate} bound={bound}");
        assert!(rate > bound / 4.0, "rate={rate} bound={bound}");
    }

    #[test]
    fn works_on_trees_not_just_lines() {
        let g = generators::balanced_tree(3, 3);
        let p = 0.2;
        let kb = KuceraBroadcast::new(&g, g.node(0), p).expect("feasible");
        let mut ok = 0;
        for seed in 0..30 {
            let out = kb.run(p, FailureBehavior::Flip, seed, true);
            ok += usize::from(out.all_correct(true));
        }
        assert!(ok >= 28, "ok={ok}");
    }

    #[test]
    fn drop_behavior_defaults_to_zero_bias() {
        // With Drop behavior and source bit 0, drops can only help
        // (default is 0): success should be at least as high as with bit 1.
        let tree = generators::path(10).bfs_tree(0);
        let p = 0.3;
        let plan = Plan::for_line(10, p, 1e-4).expect("feasible").compile();
        let mut ok0 = 0;
        let mut ok1 = 0;
        for seed in 0..50 {
            ok0 += usize::from(
                plan.run_tree(&tree, p, FailureBehavior::Drop, seed, false)
                    .all_correct(false),
            );
            ok1 += usize::from(
                plan.run_tree(&tree, p, FailureBehavior::Drop, seed, true)
                    .all_correct(true),
            );
        }
        assert!(ok0 >= ok1, "ok0={ok0} ok1={ok1}");
        assert!(ok0 >= 48);
    }

    #[test]
    fn random_bit_behavior_is_weaker_than_flip() {
        let tree = generators::path(12).bfs_tree(0);
        let p = 0.35;
        // Weak plan to surface differences.
        let plan = Plan::basic(p).repeat(3).serial(12).compile();
        let mut flip_ok = 0;
        let mut rand_ok = 0;
        for seed in 0..300 {
            flip_ok += usize::from(
                plan.run_tree(&tree, p, FailureBehavior::Flip, seed, true)
                    .all_correct(true),
            );
            rand_ok += usize::from(
                plan.run_tree(&tree, p, FailureBehavior::RandomBit, seed, true)
                    .all_correct(true),
            );
        }
        assert!(rand_ok >= flip_ok, "rand={rand_ok} flip={flip_ok}");
    }

    #[test]
    fn deterministic_given_seed() {
        let tree = generators::path(8).bfs_tree(0);
        let plan = Plan::for_line(8, 0.3, 1e-4).expect("feasible").compile();
        let a = plan.run_tree(&tree, 0.3, FailureBehavior::Flip, 9, true);
        let b = plan.run_tree(&tree, 0.3, FailureBehavior::Flip, 9, true);
        assert_eq!(a, b);
    }

    #[test]
    fn single_node_graph() {
        let g = generators::path(0);
        let kb = KuceraBroadcast::new(&g, g.node(0), 0.3).expect("feasible");
        let out = kb.run(0.3, FailureBehavior::Flip, 0, true);
        assert!(out.all_correct(true));
    }

    #[test]
    fn intermediate_nodes_also_decided() {
        // Every node, not just the endpoint, must end with the bit.
        let tree = generators::path(15).bfs_tree(0);
        let p = 0.2;
        let plan = Plan::for_line(15, p, 1e-8).expect("feasible").compile();
        let out = plan.run_tree(&tree, p, FailureBehavior::Flip, 3, true);
        assert_eq!(out.values.len(), 16);
        assert_eq!(out.correct_count(true), 16);
    }
}
