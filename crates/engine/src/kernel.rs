//! The shared large-`n` simulation kernel: the informed bitmask,
//! aggregate fault samplers, and collision-counting scratch that the
//! fast-path engines ([`crate::flood_fast`], [`crate::radio_fast`],
//! [`crate::simple_fast`]) are built from.
//!
//! Before this module each fast engine owned a private copy of the same
//! machinery (bitmask words, the `p > 0.75` geometric-skip switch, the
//! touched-list counter). Centralizing it means one implementation to
//! audit for the sampling invariants below — and one place where the
//! RNG draw order is defined, which the per-seed reproducibility
//! guarantees of the engines depend on. Nothing here spawns a thread:
//! a trial runs on one thread, and only the sweep driver runs trials
//! in parallel.
//!
//! # Sampling invariants
//!
//! [`FaultSampler`] draws **exactly one** `f64`/`bool` per input element
//! in the dense regime and one `f64` per *success* (plus one trailing
//! miss) in the sparse regime, in input order. The dense/sparse switch
//! is a pure function of `p` (`p > 0.75`), so two runs with the same
//! seed and `p` observe identical RNG streams regardless of which
//! engine drives the sampler.
//!
//! # The batched (bit-sliced) trial mode
//!
//! The batch primitives ([`BatchTape`], [`BatchBernoulli`],
//! [`BatchedInformedSet`], [`LaneCounter`]) run [`LANES`] = 64
//! Monte-Carlo trials per machine word: lane `k` of every `u64` is
//! trial `k` of the block. All batch randomness is *site-addressed*: a
//! coin is a pure function of `(block seed, stream, site, lane)` rather
//! than a position in a sequential stream, so the order in which an
//! engine happens to evaluate coins cannot change any lane's outcome.
//! That purity is what makes per-lane EXACT equivalence between a
//! batched run and a scalar lane replay testable — both read the very
//! same words (`crates/core/tests/batch_equivalence.rs` pins it).

use rand::rngs::SmallRng;
use rand::Rng;

use randcast_stats::seed::{splitmix64, SeedSequence};

/// A word-level node bitmask with a running popcount — the informed
/// (or correct) set of a broadcast kernel.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InformedSet {
    words: Vec<u64>,
    count: usize,
}

impl InformedSet {
    /// An empty set over `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        InformedSet {
            words: vec![0u64; n.div_ceil(64)],
            count: 0,
        }
    }

    /// Inserts node `v`; returns whether it was newly inserted.
    #[inline]
    pub fn insert(&mut self, v: u32) -> bool {
        let (w, b) = (v as usize / 64, 1u64 << (v % 64));
        if self.words[w] & b == 0 {
            self.words[w] |= b;
            self.count += 1;
            true
        } else {
            false
        }
    }

    /// Whether node `v` is in the set.
    #[inline]
    #[must_use]
    pub fn contains(&self, v: u32) -> bool {
        self.words[v as usize / 64] & (1u64 << (v % 64)) != 0
    }

    /// Number of nodes in the set.
    #[inline]
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }
}

/// Aggregate per-round Bernoulli fault sampling over a participant
/// list: each element independently *succeeds* (transmitter works) with
/// probability `1 − p`.
///
/// Dense regime (`p ≤ 0.75`): one coin per element. Sparse regime
/// (`p > 0.75`): successes are rare, so the sampler jumps directly
/// between them with geometric skips and the cost is proportional to
/// the number of successes, not the participant count.
#[derive(Clone, Copy, Debug)]
pub struct FaultSampler {
    p: f64,
    /// `ln p`, precomputed for the sparse regime (0 when unused).
    ln_p: f64,
    sparse: bool,
}

impl FaultSampler {
    /// A sampler for per-(node, round) failure probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1)`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "failure probability out of range");
        FaultSampler {
            p,
            ln_p: if p > 0.0 { p.ln() } else { 0.0 },
            sparse: p > 0.75,
        }
    }

    /// The failure probability.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Samples one round over `input`, appending successful elements to
    /// `successes` and failed ones to `failures` (relative order
    /// preserved in both). Neither vector is cleared.
    pub fn partition_into(
        &self,
        rng: &mut SmallRng,
        input: &[u32],
        successes: &mut Vec<u32>,
        failures: &mut Vec<u32>,
    ) {
        if self.p == 0.0 {
            successes.extend_from_slice(input);
        } else if self.sparse {
            // Jump between successful elements: the number of failures
            // before the next success is Geometric(1 − p). Everything
            // skipped over failed.
            let mut prev = 0usize;
            let mut idx = geometric_skip(rng, self.ln_p);
            while idx < input.len() {
                failures.extend_from_slice(&input[prev..idx]);
                successes.push(input[idx]);
                prev = idx + 1;
                idx = prev.saturating_add(geometric_skip(rng, self.ln_p));
            }
            failures.extend_from_slice(&input[prev..]);
        } else {
            for &u in input {
                if rng.gen_bool(self.p) {
                    failures.push(u);
                } else {
                    successes.push(u);
                }
            }
        }
    }

    /// Samples one round over `input`, appending only the successful
    /// elements to `successes` (failures are discarded). Draws the same
    /// RNG stream as [`partition_into`](Self::partition_into).
    pub fn successes_into(&self, rng: &mut SmallRng, input: &[u32], successes: &mut Vec<u32>) {
        if self.p == 0.0 {
            successes.extend_from_slice(input);
        } else if self.sparse {
            let mut idx = geometric_skip(rng, self.ln_p);
            while idx < input.len() {
                successes.push(input[idx]);
                idx = (idx + 1).saturating_add(geometric_skip(rng, self.ln_p));
            }
        } else {
            successes.extend(input.iter().copied().filter(|_| !rng.gen_bool(self.p)));
        }
    }

    /// The number of failures before the first success when each trial
    /// independently fails with probability `p` — the index of the
    /// first working transmission in a phase, `usize::MAX`-saturated.
    /// One uniform drives the draw, so for a fixed RNG stream the
    /// result is monotone nondecreasing in `p` (the coupling the
    /// monotonicity property tests rely on).
    pub fn first_success(&self, rng: &mut SmallRng) -> usize {
        if self.p == 0.0 {
            0
        } else {
            geometric_skip(rng, self.ln_p)
        }
    }
}

/// Number of failures before the next success when each trial fails
/// with probability `p = exp(ln_p)`: `⌊ln(U) / ln(p)⌋` for uniform
/// `U ∈ (0, 1]`.
fn geometric_skip(rng: &mut SmallRng, ln_p: f64) -> usize {
    let u: f64 = rng.gen_range(0.0..1.0);
    // 1 − u ∈ (0, 1]: avoids ln(0).
    let skip = (1.0 - u).ln() / ln_p;
    if skip >= usize::MAX as f64 {
        usize::MAX
    } else {
        skip as usize
    }
}

/// Saturating per-listener transmitter counts with a touched list, so a
/// radio round's collision resolution costs only its frontier
/// neighborhoods (2 already means "collision"). Radio's `run()` and its
/// scalar lane pass over any shard store both count through it: the
/// counts span every shard, so a round's one drain sees every
/// transmission of the round.
#[derive(Clone, Debug)]
pub struct CollisionCounter {
    counts: Vec<u8>,
    touched: Vec<u32>,
}

impl CollisionCounter {
    /// A zeroed counter over `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        CollisionCounter {
            counts: vec![0u8; n],
            touched: Vec::new(),
        }
    }

    /// Records one transmission reaching listener `v`.
    #[inline]
    pub fn add(&mut self, v: u32) {
        let vi = v as usize;
        if self.counts[vi] == 0 {
            self.touched.push(v);
        }
        self.counts[vi] = self.counts[vi].saturating_add(1);
    }

    /// Visits every listener that heard **exactly one** transmitter (in
    /// touch order), then resets the counter for the next round.
    pub fn drain_sole_receivers(&mut self, mut hear: impl FnMut(u32)) {
        for i in 0..self.touched.len() {
            let v = self.touched[i];
            if self.counts[v as usize] == 1 {
                hear(v);
            }
            self.counts[v as usize] = 0;
        }
        self.touched.clear();
    }
}

/// Number of Monte-Carlo trial lanes in one batched block: one per bit
/// of a `u64`.
pub const LANES: usize = 64;

/// A set of trial lanes, bit `k` = lane `k` of the block.
pub type LaneMask = u64;

/// The lane mask selecting lanes `0..count` (all 64 when `count ≥ 64`).
#[must_use]
pub fn lane_mask_first(count: usize) -> LaneMask {
    if count >= LANES {
        !0
    } else {
        (1u64 << count) - 1
    }
}

/// The lanes set in `mask`, in ascending order.
pub fn mask_lanes(mask: LaneMask) -> impl Iterator<Item = u32> {
    (0..LANES as u32).filter(move |&lane| mask >> lane & 1 == 1)
}

/// The live-lane masks the kernels' masked-block tests run: lane 0,
/// lane 63, a first-8 and a first-63 tail, and a sparse set.
#[cfg(test)]
pub(crate) const TEST_LANE_MASKS: [LaneMask; 5] =
    [1, 1 << 63, 0xFF, !0 >> 1, 0x0420_0091_0024_1850];

/// Seed-tree stream label for per-(site) fault coins of a batched
/// block.
pub const FAULT_STREAM: u64 = 0xFA01;

/// Seed-tree stream label for per-(site) Decay participation coins of a
/// batched block.
pub const DECAY_STREAM: u64 = 0xDEC0;

/// Odd multiplier decorrelating sites before the SplitMix64 finisher.
const SITE_MUL: u64 = 0xD6E8_FEB8_6659_FD93;
/// Odd multiplier decorrelating bit planes of one site.
const PLANE_MUL: u64 = 0xCA5A_8268_83CA_B8F9;

/// `plane · PLANE_MUL` for every plane of a 53-bit draw, precomputed so
/// the hot mask loop spends its multiplier ports on the SplitMix
/// finisher alone.
const PLANE_MIX: [u64; 53] = {
    let mut t = [0u64; 53];
    let mut i = 0;
    while i < 53 {
        t[i] = (i as u64).wrapping_mul(PLANE_MUL);
        i += 1;
    }
    t
};

/// A pure random-word tape for one batched 64-trial block: every word
/// is a function of `(block seed, stream, site, plane)` and nothing
/// else.
///
/// The base is derived through the existing seed tree
/// ([`SeedSequence::child`]), so batched blocks hang off the same
/// derivation structure as scalar trial seeds. Lane `k`'s conceptual
/// "derived seed" is the pair `(block_seed, k)`: the lane reads bit `k`
/// of exactly the words a batched run over the whole block reads.
#[derive(Clone, Copy, Debug)]
pub struct BatchTape {
    base: u64,
}

impl BatchTape {
    /// The tape for `stream` (e.g. [`FAULT_STREAM`]) of a block.
    #[must_use]
    pub fn new(block_seed: u64, stream: u64) -> Self {
        BatchTape {
            base: SeedSequence::new(block_seed).child(stream).master(),
        }
    }

    /// The `plane`-th random word of `site`: bit `k` is one unbiased
    /// random bit of lane `k`.
    #[inline]
    #[must_use]
    pub fn word(&self, site: u64, plane: u32) -> u64 {
        splitmix64(
            self.base ^ site.wrapping_mul(SITE_MUL) ^ u64::from(plane).wrapping_mul(PLANE_MUL),
        )
    }

    /// All 64 lanes' fair coins at `site` (probability 1/2 each), as
    /// one word: bit `k` is lane `k`'s coin.
    #[inline]
    #[must_use]
    pub fn fair_mask(&self, site: u64) -> LaneMask {
        self.word(site, 0)
    }

    /// Lane `k`'s fair coin at `site` — bit `k` of
    /// [`fair_mask`](Self::fair_mask), exactly.
    #[inline]
    #[must_use]
    pub fn fair_lane(&self, site: u64, lane: u32) -> bool {
        self.fair_mask(site) >> lane & 1 == 1
    }

    /// Lane `k`'s 53-bit uniform at `site`, assembled MSB-first from the
    /// same plane words the bit-sliced threshold compare reads:
    /// `uniform53 / 2^53` is the lane's unit uniform.
    #[inline]
    #[must_use]
    pub fn uniform53(&self, site: u64, lane: u32) -> u64 {
        let mut m = 0u64;
        for plane in 0..53 {
            m = m << 1 | (self.word(site, plane) >> lane & 1);
        }
        m
    }
}

/// A bit-sliced Bernoulli(`p`) sampler over a [`BatchTape`]: one call
/// draws 64 independent coins (one per lane) from one site.
///
/// Exactness: the vendored `rand` evaluates `gen_bool(p)` as
/// `(bits >> 11) as f64 / 2^53 < p`, i.e. a 53-bit uniform integer `M`
/// compared against `p`. That comparison is equivalent to the *integer*
/// comparison `M < ⌈p · 2^53⌉` (scaling by a power of two is exact in
/// `f64`), so the threshold compare here hits the same acceptance set —
/// per-lane probabilities match the scalar sampler bit-for-bit in
/// distribution. The compare runs lexicographically over the plane
/// words, MSB first, and stops as soon as every undecided lane is
/// resolved (~`log2(lanes) + 2` words in expectation), which is where
/// the batch speedup comes from.
#[derive(Clone, Copy, Debug)]
pub struct BatchBernoulli {
    /// `⌈p · 2^53⌉`; the coin is `M < tint`. `tint = 2^53` means the
    /// coin is always true.
    tint: u64,
}

impl BatchBernoulli {
    /// A sampler with per-lane success probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1]`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        BatchBernoulli {
            tint: crate::fault::FaultCoin::new(p).0,
        }
    }

    /// Draws all lanes of `active` at `site`: the returned mask has bit
    /// `k` set iff lane `k` is in `active` and its coin came up true.
    /// Lanes outside `active` are reported false (their underlying coin
    /// value is unaffected — restricting `active` never changes an
    /// included lane's bit).
    #[must_use]
    #[inline]
    pub fn mask(&self, tape: &BatchTape, site: u64, active: LaneMask) -> LaneMask {
        if self.tint >= 1 << 53 {
            return active;
        }
        if self.tint == 0 {
            return 0;
        }
        // Hoist the site mix out of the plane loop; each word is then
        // one multiply plus the SplitMix64 finisher.
        let site_base = tape.base ^ site.wrapping_mul(SITE_MUL);
        let mut hit = 0u64;
        let mut undecided = active;
        let mut plane = 0usize;
        // Four planes per check: the SplitMix finishers are independent
        // (pipelined multiplies) and the exit branch runs once per
        // quad instead of once per word. The per-plane update is
        // identical to a word-at-a-time scan, so lane semantics are
        // unchanged. 53 = 4 · 13 + 1; the last plane is handled below.
        while undecided != 0 && plane < 52 {
            let w0 = splitmix64(site_base ^ PLANE_MIX[plane]);
            let w1 = splitmix64(site_base ^ PLANE_MIX[plane + 1]);
            let w2 = splitmix64(site_base ^ PLANE_MIX[plane + 2]);
            let w3 = splitmix64(site_base ^ PLANE_MIX[plane + 3]);
            // Branch-free select on the threshold bit: a 1-bit accepts
            // lanes with a 0 word bit, a 0-bit rejects lanes with a 1.
            let tb0 = 0u64.wrapping_sub(self.tint >> (52 - plane) & 1);
            let tb1 = 0u64.wrapping_sub(self.tint >> (51 - plane) & 1);
            let tb2 = 0u64.wrapping_sub(self.tint >> (50 - plane) & 1);
            let tb3 = 0u64.wrapping_sub(self.tint >> (49 - plane) & 1);
            hit |= undecided & !w0 & tb0;
            undecided &= w0 ^ !tb0;
            hit |= undecided & !w1 & tb1;
            undecided &= w1 ^ !tb1;
            hit |= undecided & !w2 & tb2;
            undecided &= w2 ^ !tb2;
            hit |= undecided & !w3 & tb3;
            undecided &= w3 ^ !tb3;
            plane += 4;
        }
        if undecided != 0 {
            let w = splitmix64(site_base ^ 52u64.wrapping_mul(PLANE_MUL));
            let tb = 0u64.wrapping_sub(self.tint & 1);
            hit |= undecided & !w & tb;
        }
        // Lanes still undecided have M == tint exactly: not less.
        hit
    }

    /// Lane `k`'s coin at `site` — bit `k` of [`mask`](Self::mask),
    /// exactly, evaluated by reading single bits of the same plane
    /// words.
    #[inline]
    #[must_use]
    pub fn lane(&self, tape: &BatchTape, site: u64, lane: u32) -> bool {
        if self.tint >= 1 << 53 {
            return true;
        }
        for plane in 0..53 {
            let t = self.tint >> (52 - plane) & 1;
            let m = tape.word(site, plane) >> lane & 1;
            if m != t {
                return t == 1;
            }
        }
        false
    }
}

/// Per-lane unsigned counters stored bit-plane-wise: `planes[j]` holds
/// bit `j` of all 64 lane counts. Masked increments are ripple-carry
/// word operations (amortized O(1) per `+1`), and order comparisons
/// against a scalar threshold come out as lane masks without ever
/// materializing the 64 counts.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LaneCounter {
    planes: Vec<u64>,
}

impl LaneCounter {
    /// A counter with every lane at zero.
    #[must_use]
    pub fn new() -> Self {
        LaneCounter { planes: Vec::new() }
    }

    /// A counter holding the given per-lane values (the bit-plane
    /// transpose of `counts`).
    #[must_use]
    pub fn from_counts(counts: &[u32; LANES]) -> Self {
        let max = counts.iter().copied().max().unwrap_or(0);
        let width = if max == 0 {
            0
        } else {
            max.ilog2() as usize + 1
        };
        let mut planes = vec![0u64; width];
        for (lane, &c) in counts.iter().enumerate() {
            let mut bits = u64::from(c);
            while bits != 0 {
                planes[bits.trailing_zeros() as usize] |= 1u64 << lane;
                bits &= bits - 1;
            }
        }
        LaneCounter { planes }
    }

    /// Resets every lane to zero, keeping the allocated planes — the
    /// per-phase vote counters of the malicious kernels reuse one
    /// counter across millions of phases.
    #[inline]
    pub fn clear(&mut self) {
        self.planes.clear();
    }

    /// Adds `amount` to every lane selected by `mask`.
    #[inline]
    pub fn add_masked(&mut self, mask: LaneMask, amount: u64) {
        if mask == 0 || amount == 0 {
            return;
        }
        let mut carry = 0u64;
        let mut bit = 0usize;
        while carry != 0 || (bit < 64 && amount >> bit != 0) {
            if self.planes.len() == bit {
                self.planes.push(0);
            }
            let a = self.planes[bit];
            let b = if bit < 64 && amount >> bit & 1 == 1 {
                mask
            } else {
                0
            };
            let partial = a ^ b;
            self.planes[bit] = partial ^ carry;
            carry = (a & b) | (partial & carry);
            bit += 1;
        }
    }

    /// Lane `k`'s current count.
    #[must_use]
    pub fn get(&self, lane: u32) -> u64 {
        Self::get_in(&self.planes, lane)
    }

    /// Lane `k`'s count in a plane snapshot previously taken from
    /// [`planes`](Self::planes).
    #[inline]
    #[must_use]
    pub fn get_in(planes: &[u64], lane: u32) -> u64 {
        planes
            .iter()
            .enumerate()
            .map(|(bit, &w)| (w >> lane & 1) << bit)
            .sum()
    }

    /// The raw bit planes (for cheap per-round snapshots).
    #[inline]
    #[must_use]
    pub fn planes(&self) -> &[u64] {
        &self.planes
    }

    /// The mask of lanes whose count is `≥ threshold`, via one
    /// bit-sliced MSB-first comparison.
    #[inline]
    #[must_use]
    pub fn ge_mask(&self, threshold: u64) -> LaneMask {
        let bits = self
            .planes
            .len()
            .max(64 - threshold.leading_zeros() as usize);
        let mut gt = 0u64;
        let mut eq = !0u64;
        for bit in (0..bits).rev() {
            let a = self.planes.get(bit).copied().unwrap_or(0);
            if bit < 64 && threshold >> bit & 1 == 1 {
                eq &= a;
            } else {
                gt |= eq & a;
                eq &= !a;
            }
        }
        gt | eq
    }

    /// The mask of lanes whose count is exactly `value`.
    #[inline]
    #[must_use]
    pub fn eq_mask(&self, value: u64) -> LaneMask {
        let bits = self.planes.len().max(64 - value.leading_zeros() as usize);
        let mut eq = !0u64;
        for bit in 0..bits {
            let a = self.planes.get(bit).copied().unwrap_or(0);
            eq &= if bit < 64 && value >> bit & 1 == 1 {
                a
            } else {
                !a
            };
        }
        eq
    }
}

/// Per-lane popcounts over a slice of lane masks: `out[k]` is the
/// number of masks with bit `k` set. Runs as 64×64 bit-matrix
/// transposes plus one hardware popcount per lane — ~7 word ops per
/// mask, an order of magnitude cheaper than 64 ripple-carry adds.
#[must_use]
pub fn lane_popcounts(masks: &[LaneMask]) -> [u32; LANES] {
    let mut counts = [0u32; LANES];
    let mut block = [0u64; LANES];
    for chunk in masks.chunks(LANES) {
        block[..chunk.len()].copy_from_slice(chunk);
        block[chunk.len()..].fill(0);
        transpose64(&mut block);
        for (lane, &col) in block.iter().enumerate() {
            counts[lane] += col.count_ones();
        }
    }
    counts
}

/// In-place 64×64 bit-matrix transpose (Hacker's Delight 7-3): after
/// the call, bit `i` of `a[k]` equals bit `k` of the original `a[i]`.
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut m = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = (a[k] >> j ^ a[k + j]) & m;
            a[k + j] ^= t;
            a[k] ^= t << j;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// The mask of lanes whose bit-plane value (little-endian: `planes[i]`
/// holds bit `i` of every lane) is `≤ k`, via one MSB-first bit-sliced
/// comparison.
#[must_use]
pub fn planes_le_mask(planes: &[u64], k: u64) -> LaneMask {
    if planes.len() < 64 && k >> planes.len() != 0 {
        // Every representable value fits under k.
        return !0;
    }
    let mut gt = 0u64;
    let mut und = !0u64;
    for (i, &pl) in planes.iter().enumerate().rev() {
        let kb = 0u64.wrapping_sub(if i < 64 { k >> i & 1 } else { 0 });
        gt |= und & pl & !kb;
        und &= !(pl ^ kb);
    }
    !gt
}

/// The mask of lanes whose bit-plane value equals `k` exactly.
#[must_use]
pub fn planes_eq_mask(planes: &[u64], k: u64) -> LaneMask {
    if planes.len() < 64 && k >> planes.len() != 0 {
        // k is not representable in this width.
        return 0;
    }
    let mut eq = !0u64;
    for (i, &pl) in planes.iter().enumerate().rev() {
        let kb = 0u64.wrapping_sub(if i < 64 { k >> i & 1 } else { 0 });
        eq &= !(pl ^ kb);
    }
    eq
}

/// The mask of lanes where `a`'s bit-plane value exceeds `b`'s. The two
/// slices must have equal width.
#[must_use]
pub fn planes_gt_mask(a: &[u64], b: &[u64]) -> LaneMask {
    debug_assert_eq!(a.len(), b.len());
    let mut gt = 0u64;
    let mut und = !0u64;
    for (&ai, &bi) in a.iter().zip(b).rev() {
        gt |= und & ai & !bi;
        und &= !(ai ^ bi);
    }
    gt
}

/// Overwrites `dst`'s value with `src`'s in every lane of `m` (both in
/// little-endian bit-plane form, equal widths).
pub fn planes_assign(dst: &mut [u64], src: &[u64], m: LaneMask) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = (*d & !m) | (s & m);
    }
}

/// Sets `dst`'s value to `base + addend + 1` in every lane of `m` and
/// to `default`'s value in every other lane (bit-plane form; `addend`
/// may be narrower than `base` and is zero-extended). The sum must fit
/// the plane width for every selected lane.
///
/// This is the batched engines' schedule finisher: a node's per-lane
/// success rounds are `s + 1 + attempt`, with the attempt indices
/// accumulated plane-wise across loop iterations (success sets are
/// disjoint, so accumulation is a plain OR) and added here in one
/// ripple pass instead of one masked add per iteration; failed lanes
/// take the `never` sentinel in the same pass.
pub fn planes_add_one_masked(
    dst: &mut [u64],
    base: &[u64],
    addend: &[u64],
    m: LaneMask,
    default: &[u64],
) {
    debug_assert_eq!(dst.len(), base.len());
    debug_assert_eq!(dst.len(), default.len());
    debug_assert!(addend.len() <= base.len());
    let mut carry = m; // the `+ 1`
    if m == !0 {
        // Every lane selected (the common case in a batched engine's
        // hot loop): no default select, and once the carry dies past
        // the addend the remaining planes are a straight copy.
        for (i, d) in dst.iter_mut().enumerate() {
            let a = base[i];
            if carry == 0 && i >= addend.len() {
                *d = a;
                continue;
            }
            let b = if i < addend.len() { addend[i] } else { 0 };
            *d = a ^ b ^ carry;
            carry = (a & b) | (a & carry) | (b & carry);
        }
    } else {
        for (i, d) in dst.iter_mut().enumerate() {
            let a = base[i];
            let b = if i < addend.len() { addend[i] } else { 0 };
            let sum = a ^ b ^ carry;
            *d = (default[i] & !m) | (sum & m);
            carry = (a & b) | (a & carry) | (b & carry);
        }
    }
    debug_assert_eq!(carry & m, 0, "bit-plane addition overflowed");
}

/// The batched counterpart of [`InformedSet`]: one lane word per node
/// (bit `k` = "node is informed in trial `k`") plus a [`LaneCounter`]
/// of per-lane set sizes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BatchedInformedSet {
    masks: Vec<u64>,
    counts: LaneCounter,
    n: usize,
}

impl BatchedInformedSet {
    /// An empty set over `n` nodes (all lanes).
    #[must_use]
    pub fn new(n: usize) -> Self {
        BatchedInformedSet {
            masks: vec![0u64; n],
            counts: LaneCounter::new(),
            n,
        }
    }

    /// Assembles a set from externally computed parts (a batched
    /// engine's group-level accounting). `counts` must equal the
    /// per-lane popcounts over `masks`.
    pub(crate) fn from_parts(masks: Vec<u64>, counts: LaneCounter) -> Self {
        let n = masks.len();
        BatchedInformedSet { masks, counts, n }
    }

    /// Inserts node `v` into every lane of `lanes`; returns the lanes
    /// where it was newly inserted.
    #[inline]
    pub fn insert_masked(&mut self, v: u32, lanes: LaneMask) -> LaneMask {
        let m = &mut self.masks[v as usize];
        let newly = lanes & !*m;
        if newly != 0 {
            *m |= newly;
            self.counts.add_masked(newly, 1);
        }
        newly
    }

    /// The lanes containing node `v`.
    #[inline]
    #[must_use]
    pub fn lanes(&self, v: u32) -> LaneMask {
        self.masks[v as usize]
    }

    /// Whether lane `k` contains node `v`.
    #[inline]
    #[must_use]
    pub fn lane_contains(&self, v: u32, lane: u32) -> bool {
        self.masks[v as usize] >> lane & 1 == 1
    }

    /// Lane `k`'s set size.
    #[inline]
    #[must_use]
    pub fn count(&self, lane: u32) -> usize {
        self.counts.get(lane) as usize
    }

    /// The per-lane size counter (for snapshots and bit-sliced
    /// threshold masks).
    #[inline]
    #[must_use]
    pub fn counts(&self) -> &LaneCounter {
        &self.counts
    }

    /// Number of nodes the set ranges over.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }
}

/// Seed-tree stream label for the per-(site) throttle (healing) coins
/// of a batched block — the second coin of a [`ThrottledFault`], drawn
/// from its own stream so it never collides with the fault coins at the
/// same site.
pub const THROTTLE_STREAM: u64 = 0x7407;

/// What a corrupted transmission does to its payload, i.e. which
/// adversary semantics a [`FaultModel`] instance realizes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CorruptionKind {
    /// The transmission is suppressed — the paper's omission faults
    /// (§2.1). Received bits can always be trusted.
    Silent,
    /// The transmission is delivered with its bit inverted — the
    /// opposite-behavior adversary of Theorem 2.3
    /// (`FlipMpAdversary` on the trait engines).
    Flip,
    /// The transmission is delivered carrying the constant lie `¬truth`
    /// — the lie half of the lie-or-jam radio adversary of Theorem 2.4
    /// under the limited-malicious clamp (only *scheduled* speakers can
    /// act, so the jam half is unreachable and lying is the binding
    /// behavior).
    Lie,
}

/// The coin tapes a [`FaultModel`] may read during a batched block:
/// the fault coins (one stream for every model, so the omission
/// instance reads the very words every silent pass reads) plus the
/// throttle coins of [`ThrottledFault`].
#[derive(Clone, Copy, Debug)]
pub struct FaultTapes {
    /// Per-(site) corruption coins ([`FAULT_STREAM`]).
    pub fault: BatchTape,
    /// Per-(site) keep/heal coins ([`THROTTLE_STREAM`]).
    pub throttle: BatchTape,
}

impl FaultTapes {
    /// Both tapes of one batched block.
    #[must_use]
    pub fn new(block_seed: u64) -> Self {
        FaultTapes {
            fault: BatchTape::new(block_seed, FAULT_STREAM),
            throttle: BatchTape::new(block_seed, THROTTLE_STREAM),
        }
    }
}

/// Error returned when a throttling target is infeasible: throttling
/// only *removes* corruption, so it needs `0 < p_target ≤ p < 1`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ThrottleError {
    /// The inner model's corruption probability.
    pub p: f64,
    /// The rejected target probability.
    pub p_target: f64,
}

impl std::fmt::Display for ThrottleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "need 0 < p_target <= p < 1 (got p_target={}, p={})",
            self.p_target, self.p
        )
    }
}

impl std::error::Error for ThrottleError {}

/// A fault model the fast kernels are parametric over: *which* sites
/// corrupt (a pure function of the site-addressed coin tapes plus any
/// preprocessed placement) and *what* corruption does to the payload
/// ([`CorruptionKind`]).
///
/// # The corruption-mask contract
///
/// `corrupt_mask(tapes, site, v, active)` returns the lanes of `active`
/// in which node `v`'s transmission at `site` is corrupted. Like
/// [`BatchBernoulli::mask`], restricting `active` never changes an
/// included lane's bit, and `corrupt_lane` is bit `k` of the full mask
/// exactly — the properties that make batched runs lane-exact with
/// scalar replays and sharded walks outcome-neutral (the mask depends
/// only on `(tapes, site, v)`, never on evaluation order).
///
/// # Placement preprocessing
///
/// Worst-case instances pin a node *set* instead of (or in addition to)
/// flipping per-round coins. Engines hand the model their topology once
/// per plan via [`preprocess_tree`](FaultModel::preprocess_tree) /
/// [`preprocess_graph`](FaultModel::preprocess_graph) (default no-ops)
/// before the first run; the placement then feeds `corrupt_mask`
/// through the node argument `v`.
///
/// Models are read-only during a run, so they are `Sync`: one instance
/// can serve runs on several threads at once.
pub trait FaultModel: Sync {
    /// What corruption does to the payload.
    fn kind(&self) -> CorruptionKind;

    /// The marginal per-(node, round) corruption probability (for
    /// display and feasibility prescriptions; placement instances
    /// report their budget fraction).
    fn rate(&self) -> f64;

    /// `Some(p)` when corruption is i.i.d. Bernoulli(`p`) per site,
    /// independent across sites — the license for [`Silent`]
    /// (`CorruptionKind::Silent`) models to reuse the coupled
    /// geometric/first-success omission kernels at the effective rate.
    ///
    /// [`Silent`]: CorruptionKind::Silent
    fn iid_rate(&self) -> Option<f64>;

    /// Stable display name (experiment tables, bench labels).
    fn name(&self) -> &'static str;

    /// Placement pass over a children-CSR broadcast tree (`order` is a
    /// root-first BFS order of the tree's nodes). Default: no-op.
    fn preprocess_tree(
        &mut self,
        child_offsets: &[u32],
        children: &[u32],
        order: &[u32],
        source: u32,
    ) {
        let _ = (child_offsets, children, order, source);
    }

    /// Placement pass over a symmetric adjacency CSR. Default: no-op.
    fn preprocess_graph(&mut self, offsets: &[u32], neighbors: &[u32], source: u32) {
        let _ = (offsets, neighbors, source);
    }

    /// The lanes of `active` in which node `v`'s transmission at `site`
    /// is corrupted.
    fn corrupt_mask(&self, tapes: &FaultTapes, site: u64, v: u32, active: LaneMask) -> LaneMask;

    /// Lane `k` of [`corrupt_mask`](Self::corrupt_mask), exactly.
    fn corrupt_lane(&self, tapes: &FaultTapes, site: u64, v: u32, lane: u32) -> bool {
        self.corrupt_mask(tapes, site, v, 1u64 << lane) >> lane & 1 == 1
    }
}

/// The paper's omission faults (§2.1) as a [`FaultModel`]: i.i.d.
/// Bernoulli(`p`) silent corruption on the [`FAULT_STREAM`] coins — the
/// instance behind every kernel's plain-`p` lane and batch entry
/// points.
#[derive(Clone, Copy, Debug)]
pub struct Omission {
    p: f64,
    bern: BatchBernoulli,
}

impl Omission {
    /// Omission faults at per-(node, round) probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1)`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "failure probability out of range");
        Omission {
            p,
            bern: BatchBernoulli::new(p),
        }
    }
}

impl FaultModel for Omission {
    fn kind(&self) -> CorruptionKind {
        CorruptionKind::Silent
    }
    fn rate(&self) -> f64 {
        self.p
    }
    fn iid_rate(&self) -> Option<f64> {
        Some(self.p)
    }
    fn name(&self) -> &'static str {
        "omission"
    }
    #[inline]
    fn corrupt_mask(&self, tapes: &FaultTapes, site: u64, _v: u32, active: LaneMask) -> LaneMask {
        self.bern.mask(&tapes.fault, site, active)
    }
    #[inline]
    fn corrupt_lane(&self, tapes: &FaultTapes, site: u64, _v: u32, lane: u32) -> bool {
        self.bern.lane(&tapes.fault, site, lane)
    }
}

/// Theorem 2.3's opposite-behavior adversary as a [`FaultModel`]:
/// i.i.d. Bernoulli(`p`) faults whose transmissions are delivered with
/// the bit inverted (`FlipMpAdversary` semantics — identical under the
/// full and limited malicious clamps, since flipping only alters
/// *scheduled* transmissions).
#[derive(Clone, Copy, Debug)]
pub struct FlipFault {
    p: f64,
    bern: BatchBernoulli,
}

impl FlipFault {
    /// Flip faults at per-(node, round) probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1)`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "failure probability out of range");
        FlipFault {
            p,
            bern: BatchBernoulli::new(p),
        }
    }
}

impl FaultModel for FlipFault {
    fn kind(&self) -> CorruptionKind {
        CorruptionKind::Flip
    }
    fn rate(&self) -> f64 {
        self.p
    }
    fn iid_rate(&self) -> Option<f64> {
        Some(self.p)
    }
    fn name(&self) -> &'static str {
        "flip"
    }
    #[inline]
    fn corrupt_mask(&self, tapes: &FaultTapes, site: u64, _v: u32, active: LaneMask) -> LaneMask {
        self.bern.mask(&tapes.fault, site, active)
    }
    #[inline]
    fn corrupt_lane(&self, tapes: &FaultTapes, site: u64, _v: u32, lane: u32) -> bool {
        self.bern.lane(&tapes.fault, site, lane)
    }
}

/// The lie half of Theorem 2.4's lie-or-jam radio adversary under the
/// limited-malicious clamp, as a [`FaultModel`]: i.i.d. Bernoulli(`p`)
/// faults whose scheduled transmissions carry the constant lie
/// `¬truth` (with the repo's `SOURCE_BIT = true` convention, a lie is
/// `false` — a corrupted round contributes no vote for the truth).
/// Out-of-turn jamming is clamped away, so lying is the adversary's
/// only remaining move — see `LieOrJamAdversary` for the unclamped
/// trait-engine original.
#[derive(Clone, Copy, Debug)]
pub struct LieOrJamFault {
    p: f64,
    bern: BatchBernoulli,
}

impl LieOrJamFault {
    /// Lie faults at per-(node, round) probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1)`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "failure probability out of range");
        LieOrJamFault {
            p,
            bern: BatchBernoulli::new(p),
        }
    }
}

impl FaultModel for LieOrJamFault {
    fn kind(&self) -> CorruptionKind {
        CorruptionKind::Lie
    }
    fn rate(&self) -> f64 {
        self.p
    }
    fn iid_rate(&self) -> Option<f64> {
        Some(self.p)
    }
    fn name(&self) -> &'static str {
        "lie-or-jam"
    }
    #[inline]
    fn corrupt_mask(&self, tapes: &FaultTapes, site: u64, _v: u32, active: LaneMask) -> LaneMask {
        self.bern.mask(&tapes.fault, site, active)
    }
    #[inline]
    fn corrupt_lane(&self, tapes: &FaultTapes, site: u64, _v: u32, lane: u32) -> bool {
        self.bern.lane(&tapes.fault, site, lane)
    }
}

/// `adversary::Throttled` ported onto the kernel interface: each
/// corruption of the inner model independently *stays* with probability
/// `p_target / p` (one keep coin from the [`THROTTLE_STREAM`] tape) and
/// heals into a clean transmission otherwise, so the effective
/// corruption rate is exactly `p_target` while the fault *sites* remain
/// those of the inner model.
#[derive(Clone, Copy, Debug)]
pub struct ThrottledFault<M> {
    inner: M,
    keep: BatchBernoulli,
    keep_prob: f64,
}

impl<M: FaultModel> ThrottledFault<M> {
    /// Throttles `inner` down to effective rate `p_target`.
    ///
    /// # Errors
    ///
    /// Returns [`ThrottleError`] unless `0 < p_target ≤ p < 1` where
    /// `p = inner.rate()` — throttling can only remove corruption.
    pub fn try_new(inner: M, p_target: f64) -> Result<Self, ThrottleError> {
        let p = inner.rate();
        if !(0.0 < p_target && p_target <= p && p < 1.0) {
            return Err(ThrottleError { p, p_target });
        }
        let keep_prob = p_target / p;
        Ok(ThrottledFault {
            inner,
            keep: BatchBernoulli::new(keep_prob),
            keep_prob,
        })
    }
}

impl<M: FaultModel> FaultModel for ThrottledFault<M> {
    fn kind(&self) -> CorruptionKind {
        self.inner.kind()
    }
    fn rate(&self) -> f64 {
        self.inner.rate() * self.keep_prob
    }
    fn iid_rate(&self) -> Option<f64> {
        // An i.i.d. inner coin AND an independent i.i.d. keep coin is
        // itself i.i.d. at the product rate.
        self.inner.iid_rate().map(|p| p * self.keep_prob)
    }
    fn name(&self) -> &'static str {
        "throttled"
    }
    fn preprocess_tree(
        &mut self,
        child_offsets: &[u32],
        children: &[u32],
        order: &[u32],
        source: u32,
    ) {
        self.inner
            .preprocess_tree(child_offsets, children, order, source);
    }
    fn preprocess_graph(&mut self, offsets: &[u32], neighbors: &[u32], source: u32) {
        self.inner.preprocess_graph(offsets, neighbors, source);
    }
    #[inline]
    fn corrupt_mask(&self, tapes: &FaultTapes, site: u64, v: u32, active: LaneMask) -> LaneMask {
        let hit = self.inner.corrupt_mask(tapes, site, v, active);
        self.keep.mask(&tapes.throttle, site, hit)
    }
}

/// Per-node subtree sizes of a children-CSR broadcast tree, computed by
/// one reverse sweep over a root-first BFS `order` (children precede no
/// ancestor in reverse order, so each node's size is final when read).
/// Nodes outside `order` (unreachable) keep size 0.
#[must_use]
pub fn subtree_sizes(child_offsets: &[u32], children: &[u32], order: &[u32]) -> Vec<u64> {
    let mut size = vec![0u64; child_offsets.len().saturating_sub(1)];
    for &u in order.iter().rev() {
        let ui = u as usize;
        let mut s = 1u64;
        for &c in &children[child_offsets[ui] as usize..child_offsets[ui + 1] as usize] {
            s += size[c as usize];
        }
        size[ui] = s;
    }
    size
}

/// Godard–Peters-style adversarial fault *placement* as a
/// [`FaultModel`]: the preprocessing pass pins the `⌈frac · (n − 1)⌉`
/// non-source nodes with the heaviest cut weight — subtree size on a
/// broadcast tree (corrupting `v` severs `v`'s whole subtree), degree
/// on a radio adjacency — as *always* corrupt; everyone else is always
/// clean. No per-round coins are read, so the placement composes with
/// any site addressing. Deterministic: ties break toward the smaller
/// node id.
#[derive(Clone, Debug)]
pub struct WorstCasePlacement {
    frac: f64,
    kind: CorruptionKind,
    placed: Vec<u64>,
    placed_count: usize,
}

impl WorstCasePlacement {
    /// A placement adversary corrupting a `frac` fraction of the
    /// non-source nodes with `kind` semantics. The placement itself is
    /// empty until a `preprocess_*` pass runs.
    ///
    /// # Panics
    ///
    /// Panics if `frac ∉ [0, 1]`.
    #[must_use]
    pub fn new(frac: f64, kind: CorruptionKind) -> Self {
        assert!(
            (0.0..=1.0).contains(&frac),
            "placement fraction out of range"
        );
        WorstCasePlacement {
            frac,
            kind,
            placed: Vec::new(),
            placed_count: 0,
        }
    }

    /// Whether node `v` is pinned corrupt.
    #[must_use]
    pub fn is_placed(&self, v: u32) -> bool {
        self.placed
            .get(v as usize / 64)
            .is_some_and(|w| w >> (v % 64) & 1 == 1)
    }

    /// Number of pinned nodes (0 before preprocessing).
    #[must_use]
    pub fn placed_count(&self) -> usize {
        self.placed_count
    }

    /// Pins the top-`⌈frac · (n − 1)⌉` non-source nodes by
    /// `(weight desc, id asc)`.
    fn place_by_weights(&mut self, weights: &[u64], source: u32) {
        let n = weights.len();
        self.placed = vec![0u64; n.div_ceil(64)];
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let budget = (self.frac * n.saturating_sub(1) as f64).ceil() as usize;
        let mut ranked: Vec<u32> = (0..n as u32).filter(|&v| v != source).collect();
        ranked.sort_unstable_by_key(|&v| (std::cmp::Reverse(weights[v as usize]), v));
        self.placed_count = budget.min(ranked.len());
        for &v in &ranked[..self.placed_count] {
            self.placed[v as usize / 64] |= 1u64 << (v % 64);
        }
    }
}

impl FaultModel for WorstCasePlacement {
    fn kind(&self) -> CorruptionKind {
        self.kind
    }
    fn rate(&self) -> f64 {
        self.frac
    }
    fn iid_rate(&self) -> Option<f64> {
        None
    }
    fn name(&self) -> &'static str {
        "worst-case-placement"
    }
    fn preprocess_tree(
        &mut self,
        child_offsets: &[u32],
        children: &[u32],
        order: &[u32],
        source: u32,
    ) {
        let weights = subtree_sizes(child_offsets, children, order);
        self.place_by_weights(&weights, source);
    }
    fn preprocess_graph(&mut self, offsets: &[u32], _neighbors: &[u32], source: u32) {
        let weights: Vec<u64> = offsets.windows(2).map(|w| u64::from(w[1] - w[0])).collect();
        self.place_by_weights(&weights, source);
    }
    #[inline]
    fn corrupt_mask(&self, _tapes: &FaultTapes, _site: u64, v: u32, active: LaneMask) -> LaneMask {
        if self.is_placed(v) {
            active
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn informed_set_tracks_membership_and_count() {
        let mut s = InformedSet::new(130);
        assert!(!s.contains(0));
        assert!(s.insert(0));
        assert!(!s.insert(0), "double insert reports false");
        assert!(s.insert(129));
        assert!(s.insert(64));
        assert_eq!(s.count(), 3);
        assert!(s.contains(129));
        assert!(!s.contains(65));
    }

    #[test]
    fn skip_mean_matches_geometric_expectation() {
        // E[failures before a success] = p / (1 − p).
        let mut rng = SmallRng::seed_from_u64(3);
        for p in [0.8, 0.9, 0.97] {
            let ln_p = f64::ln(p);
            let trials = 20_000;
            let total: f64 = (0..trials)
                .map(|_| geometric_skip(&mut rng, ln_p) as f64)
                .sum();
            let mean = total / f64::from(trials);
            let expected = p / (1.0 - p);
            assert!(
                (mean - expected).abs() < 0.08 * expected,
                "p={p}: mean {mean} vs {expected}"
            );
        }
    }

    #[test]
    fn partition_preserves_order_and_covers_input() {
        let input: Vec<u32> = (0..500).collect();
        for p in [0.0, 0.3, 0.9] {
            let sampler = FaultSampler::new(p);
            let mut rng = SmallRng::seed_from_u64(7);
            let (mut ok, mut fail) = (Vec::new(), Vec::new());
            sampler.partition_into(&mut rng, &input, &mut ok, &mut fail);
            assert_eq!(ok.len() + fail.len(), input.len(), "p={p}");
            assert!(ok.windows(2).all(|w| w[0] < w[1]));
            assert!(fail.windows(2).all(|w| w[0] < w[1]));
            let mut merged = [ok.clone(), fail.clone()].concat();
            merged.sort_unstable();
            assert_eq!(merged, input, "p={p}");
        }
    }

    #[test]
    fn successes_match_partition_successes_exactly() {
        // Same seed ⇒ the two entry points must agree on the success
        // set (they share one draw order by construction).
        let input: Vec<u32> = (0..300).map(|i| i * 3).collect();
        for p in [0.1, 0.5, 0.76, 0.95] {
            let sampler = FaultSampler::new(p);
            let mut a = SmallRng::seed_from_u64(11);
            let mut b = SmallRng::seed_from_u64(11);
            let (mut ok1, mut fail) = (Vec::new(), Vec::new());
            let mut ok2 = Vec::new();
            sampler.partition_into(&mut a, &input, &mut ok1, &mut fail);
            sampler.successes_into(&mut b, &input, &mut ok2);
            assert_eq!(ok1, ok2, "p={p}");
        }
    }

    #[test]
    fn success_rate_tracks_one_minus_p_across_the_switch() {
        let input: Vec<u32> = (0..2000).collect();
        for p in [0.74, 0.76] {
            let sampler = FaultSampler::new(p);
            let mut total = 0usize;
            let reps = 50;
            for seed in 0..reps {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut ok = Vec::new();
                sampler.successes_into(&mut rng, &input, &mut ok);
                total += ok.len();
            }
            let rate = total as f64 / (reps as usize * input.len()) as f64;
            assert!((rate - (1.0 - p)).abs() < 0.01, "p={p}: rate {rate}");
        }
    }

    #[test]
    fn first_success_is_monotone_in_p_per_seed() {
        for seed in 0..50u64 {
            let mut prev = 0usize;
            for p in [0.0, 0.2, 0.5, 0.8, 0.95] {
                let mut rng = SmallRng::seed_from_u64(seed);
                let t = FaultSampler::new(p).first_success(&mut rng);
                assert!(t >= prev, "seed={seed} p={p}: {t} < {prev}");
                prev = t;
            }
        }
    }

    #[test]
    fn first_success_mean_matches_geometric() {
        let sampler = FaultSampler::new(0.6);
        let mut rng = SmallRng::seed_from_u64(5);
        let trials = 20_000;
        let total: usize = (0..trials).map(|_| sampler.first_success(&mut rng)).sum();
        let mean = total as f64 / trials as f64;
        let expected = 0.6 / 0.4;
        assert!((mean - expected).abs() < 0.05 * expected, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sampler_rejects_p_one() {
        let _ = FaultSampler::new(1.0);
    }

    #[test]
    fn collision_counter_finds_sole_receivers() {
        let mut c = CollisionCounter::new(10);
        c.add(3);
        c.add(5);
        c.add(5); // collision
        c.add(7);
        let mut heard = Vec::new();
        c.drain_sole_receivers(|v| heard.push(v));
        assert_eq!(heard, vec![3, 7]);
        // Counter resets fully between rounds.
        c.add(5);
        let mut heard2 = Vec::new();
        c.drain_sole_receivers(|v| heard2.push(v));
        assert_eq!(heard2, vec![5]);
    }

    #[test]
    fn collision_counter_saturates_instead_of_wrapping() {
        let mut c = CollisionCounter::new(2);
        for _ in 0..300 {
            c.add(1);
        }
        let mut heard = Vec::new();
        c.drain_sole_receivers(|v| heard.push(v));
        assert!(heard.is_empty(), "255+ transmitters is still a collision");
    }

    /// Radio's scalar lane pass routes the one counter's drain into
    /// per-shard lists by listener shard. Per shard, that must equal a
    /// shard-local counter: the shard's listeners heard by exactly one
    /// transmitter, in the order the round first reached them.
    #[test]
    fn sharded_collisions_replay_the_monolithic_drain_per_shard() {
        fn shard_local(bounds: &[u32], adds: &[u32]) -> Vec<Vec<u32>> {
            let shard_of = |v: u32| bounds.partition_point(|&b| b <= v) - 1;
            let mut counts = vec![0u32; *bounds.last().unwrap() as usize];
            let mut touched: Vec<Vec<u32>> = vec![Vec::new(); bounds.len() - 1];
            for &v in adds {
                if counts[v as usize] == 0 {
                    touched[shard_of(v)].push(v);
                }
                counts[v as usize] += 1;
            }
            for list in &mut touched {
                list.retain(|&v| counts[v as usize] == 1);
            }
            touched
        }
        fn routed(counter: &mut CollisionCounter, bounds: &[u32], adds: &[u32]) -> Vec<Vec<u32>> {
            let shard_of = |v: u32| bounds.partition_point(|&b| b <= v) - 1;
            for &v in adds {
                counter.add(v);
            }
            let mut lists: Vec<Vec<u32>> = vec![Vec::new(); bounds.len() - 1];
            counter.drain_sole_receivers(|v| lists[shard_of(v)].push(v));
            lists
        }

        // One counter across rounds, so every round also checks that
        // the previous drain reset it.
        let bounds = [0u32, 40, 90, 120];
        let mut counter = CollisionCounter::new(120);
        let mut rng = SmallRng::seed_from_u64(7);
        for round in 0..20 {
            use rand::Rng;
            let adds: Vec<u32> = (0..rng.gen_range(0..200))
                .map(|_| rng.gen_range(0..120))
                .collect();
            let got = routed(&mut counter, &bounds, &adds);
            assert_eq!(got, shard_local(&bounds, &adds), "round {round}");
        }

        // A 10⁵-listener round: every listener touched once, every third
        // one twice, in a scattered order.
        let bounds = [0u32, 30_000, 71_000, 100_000];
        let n = 100_000u32;
        let adds: Vec<u32> = (0..n)
            .map(|i| (i * 7919) % n)
            .chain((0..n).step_by(3))
            .collect();
        let mut counter = CollisionCounter::new(n as usize);
        let got = routed(&mut counter, &bounds, &adds);
        assert_eq!(got, shard_local(&bounds, &adds));
        assert_eq!(got.iter().map(Vec::len).sum::<usize>(), 66_666);
        assert_eq!(
            routed(&mut counter, &bounds, &[3]),
            [vec![3], vec![], vec![]]
        );
    }

    #[test]
    fn lane_mask_first_selects_a_prefix() {
        assert_eq!(lane_mask_first(0), 0);
        assert_eq!(lane_mask_first(1), 1);
        assert_eq!(lane_mask_first(5), 0b11111);
        assert_eq!(lane_mask_first(64), !0);
        assert_eq!(lane_mask_first(1000), !0);
        assert_eq!(mask_lanes(0).count(), 0);
        assert_eq!(mask_lanes(0b1010).collect::<Vec<_>>(), [1, 3]);
        assert_eq!(mask_lanes(1 << 63).collect::<Vec<_>>(), [63]);
        assert!(mask_lanes(!0).eq(0..64));
    }

    /// Coin rates at the extremes: 2⁻⁴⁰, 10⁻⁶ and its complement, and
    /// the adoption coin `1 − p^m` that Simple's omission collapse draws
    /// at p = 0.3, m = 20 (`1 − 3.5·10⁻¹¹`).
    fn extreme_ps() -> [f64; 4] {
        [2f64.powi(-40), 1e-6, 1.0 - 1e-6, 1.0 - 0.3f64.powi(20)]
    }

    #[test]
    fn batch_mask_and_lane_view_agree_bit_for_bit() {
        let tape = BatchTape::new(42, FAULT_STREAM);
        for p in [0.0, 0.3, 0.5, 0.76, 0.9, 1.0]
            .into_iter()
            .chain(extreme_ps())
        {
            let bern = BatchBernoulli::new(p);
            for site in 0..200u64 {
                let full = bern.mask(&tape, site, !0);
                for lane in 0..64 {
                    assert_eq!(
                        full >> lane & 1 == 1,
                        bern.lane(&tape, site, lane),
                        "p={p} site={site} lane={lane}"
                    );
                }
                // Restricting the active mask never changes an
                // included lane's coin.
                let half = bern.mask(&tape, site, 0xAAAA_AAAA_AAAA_AAAA);
                assert_eq!(half, full & 0xAAAA_AAAA_AAAA_AAAA, "p={p} site={site}");
            }
        }
    }

    #[test]
    fn batch_lane_matches_uniform53_threshold() {
        // The lane view is exactly `uniform53 < ⌈p·2^53⌉` — the same
        // acceptance set as the vendored rand's `gen_bool`.
        let tape = BatchTape::new(7, FAULT_STREAM);
        for p in [0.25, 0.76].into_iter().chain(extreme_ps()) {
            let bern = BatchBernoulli::new(p);
            let tint = (p * (1u64 << 53) as f64).ceil() as u64;
            for site in 0..50u64 {
                for lane in [0u32, 17, 63] {
                    let m = tape.uniform53(site, lane);
                    assert!(m < 1 << 53);
                    assert_eq!(bern.lane(&tape, site, lane), m < tint);
                }
            }
        }
    }

    #[test]
    fn uniform53_is_uniform_on_the_unit_interval() {
        // Kolmogorov–Smirnov over 2¹⁶ draws (1,024 sites × 64 lanes) on
        // two fixed seeds, failing at √N·D > 2.0 (p ≈ 7·10⁻⁴).
        for seed in [11u64, 12] {
            let tape = BatchTape::new(seed, FAULT_STREAM);
            let mut u: Vec<f64> = (0..1024u64)
                .flat_map(|site| (0..64).map(move |lane| (site, lane)))
                .map(|(site, lane)| tape.uniform53(site, lane) as f64 / (1u64 << 53) as f64)
                .collect();
            u.sort_by(f64::total_cmp);
            let n = u.len() as f64;
            let d = u
                .iter()
                .enumerate()
                .map(|(i, &x)| (x - i as f64 / n).max((i + 1) as f64 / n - x))
                .fold(0.0, f64::max);
            assert!(
                n.sqrt() * d < 2.0,
                "seed={seed}: √N·D = {:.3}",
                n.sqrt() * d
            );
        }
    }

    #[test]
    fn batch_coin_rate_tracks_p_in_both_regimes() {
        // Across the scalar sampler's dense/sparse boundary, and near
        // both ends, the batch coins must hit probability p: the hit
        // count over 64 lanes × 4000 sites is Binomial(N, p), checked by
        // its z-score (an absolute rate tolerance would pass a coin at
        // 10⁻³ that never fires).
        let tape = BatchTape::new(99, FAULT_STREAM);
        let trials = 4000.0 * 64.0;
        for p in [1e-3, 0.3, 0.76, 0.9, 1.0 - 1e-3] {
            let bern = BatchBernoulli::new(p);
            let hits: u32 = (0..4000u64)
                .map(|site| bern.mask(&tape, site, !0).count_ones())
                .sum();
            let z = (f64::from(hits) - trials * p) / (trials * p * (1.0 - p)).sqrt();
            assert!(z.abs() < 4.5, "p={p}: {hits} hits, z = {z:.2}");
        }
    }

    #[test]
    fn fair_mask_is_unbiased_and_matches_lane_view() {
        let tape = BatchTape::new(3, DECAY_STREAM);
        let mut ones = 0u32;
        for site in 0..2000u64 {
            let w = tape.fair_mask(site);
            ones += w.count_ones();
            for lane in [0u32, 31, 63] {
                assert_eq!(tape.fair_lane(site, lane), w >> lane & 1 == 1);
            }
        }
        let rate = f64::from(ones) / (2000.0 * 64.0);
        assert!((rate - 0.5).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn tape_streams_are_decorrelated() {
        let fault = BatchTape::new(5, FAULT_STREAM);
        let decay = BatchTape::new(5, DECAY_STREAM);
        let same = (0..64u64)
            .filter(|&s| fault.word(s, 0) == decay.word(s, 0))
            .count();
        assert_eq!(same, 0, "streams must not share words");
    }

    #[test]
    fn lane_counter_add_and_compare_match_scalar_counts() {
        let mut c = LaneCounter::new();
        let mut reference = [0u64; 64];
        let mut rng = SmallRng::seed_from_u64(8);
        for _ in 0..200 {
            let mask: u64 = rng.gen();
            let amount = rng.gen_range(0u64..5);
            c.add_masked(mask, amount);
            for (lane, r) in reference.iter_mut().enumerate() {
                if mask >> lane & 1 == 1 {
                    *r += amount;
                }
            }
        }
        for lane in 0..64u32 {
            assert_eq!(c.get(lane), reference[lane as usize], "lane {lane}");
            assert_eq!(
                LaneCounter::get_in(c.planes(), lane),
                reference[lane as usize]
            );
        }
        for threshold in [0u64, 1, 17, 250, 300, 1000] {
            let ge = c.ge_mask(threshold);
            let eq = c.eq_mask(threshold);
            for lane in 0..64u32 {
                let count = reference[lane as usize];
                assert_eq!(ge >> lane & 1 == 1, count >= threshold, "ge {threshold}");
                assert_eq!(eq >> lane & 1 == 1, count == threshold, "eq {threshold}");
            }
        }
    }

    #[test]
    fn batched_informed_set_tracks_lanes_and_counts() {
        let mut s = BatchedInformedSet::new(10);
        assert_eq!(s.insert_masked(3, 0b101), 0b101);
        assert_eq!(s.insert_masked(3, 0b111), 0b010, "only the new lane");
        assert_eq!(s.insert_masked(3, 0b111), 0, "no-op reinsert");
        assert!(s.lane_contains(3, 0));
        assert!(!s.lane_contains(4, 0));
        assert_eq!(s.lanes(3), 0b111);
        s.insert_masked(7, 0b001);
        assert_eq!(s.count(0), 2);
        assert_eq!(s.count(1), 1);
        assert_eq!(s.count(63), 0);
        assert_eq!(s.counts().eq_mask(2), 0b001);
        assert_eq!(s.counts().ge_mask(1), 0b111);
        assert_eq!(s.n(), 10);
    }

    #[test]
    fn lane_popcounts_matches_naive_and_counter_construction() {
        // A non-multiple-of-64 length exercises the zero-padded tail.
        let masks: Vec<u64> = (0..157u64)
            .map(|i| splitmix64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        let counts = lane_popcounts(&masks);
        let mut reference = LaneCounter::new();
        for &m in &masks {
            reference.add_masked(m, 1);
        }
        for lane in 0..LANES as u32 {
            let naive = masks.iter().filter(|&&m| m >> lane & 1 == 1).count() as u64;
            assert_eq!(u64::from(counts[lane as usize]), naive, "lane {lane}");
            assert_eq!(reference.get(lane), naive);
        }
        let rebuilt = LaneCounter::from_counts(&counts);
        assert_eq!(rebuilt.planes(), reference.planes());
    }

    /// Packs 64 per-lane values into little-endian bit planes.
    fn to_planes(values: &[u64; 64], width: usize) -> Vec<u64> {
        let mut planes = vec![0u64; width];
        for (lane, &v) in values.iter().enumerate() {
            for (i, plane) in planes.iter_mut().enumerate() {
                *plane |= (v >> i & 1) << lane;
            }
        }
        planes
    }

    #[test]
    fn plane_compare_assign_and_add_match_scalar_lanes() {
        let mut a = [0u64; 64];
        let mut b = [0u64; 64];
        let mut state = 41u64;
        for lane in 0..64 {
            state = splitmix64(state);
            a[lane] = state % 200;
            state = splitmix64(state);
            b[lane] = state % 200;
        }
        let width = 8;
        let pa = to_planes(&a, width);
        let pb = to_planes(&b, width);

        for k in [0u64, 1, 63, 128, 199, 255, 256, 1000] {
            let le = planes_le_mask(&pa, k);
            for (lane, &av) in a.iter().enumerate() {
                assert_eq!(le >> lane & 1 == 1, av <= k, "k={k} lane={lane}");
            }
        }
        let gt = planes_gt_mask(&pa, &pb);
        for lane in 0..64 {
            assert_eq!(gt >> lane & 1 == 1, a[lane] > b[lane], "lane={lane}");
        }
        for k in [0u64, 7, 42, 199, 255, 300] {
            let eq = planes_eq_mask(&pa, k);
            for (lane, &av) in a.iter().enumerate() {
                assert_eq!(eq >> lane & 1 == 1, av == k, "k={k} lane={lane}");
            }
        }

        let m = 0xAAAA_5555_0F0F_F0F0u64;
        let mut dst = pb.clone();
        planes_assign(&mut dst, &pa, m);
        for lane in 0..64u32 {
            let expect = if m >> lane & 1 == 1 { a } else { b };
            assert_eq!(LaneCounter::get_in(&dst, lane), expect[lane as usize]);
        }

        // base + addend + 1, with a narrower addend (top planes zero).
        let mut addend = [0u64; 64];
        for lane in 0..64 {
            addend[lane] = b[lane] % 32;
        }
        let p_add = to_planes(&addend, 5);
        let mut sum1 = vec![0u64; width];
        planes_add_one_masked(&mut sum1, &pa, &p_add, m, &pb);
        for lane in 0..64u32 {
            let expect = if m >> lane & 1 == 1 {
                a[lane as usize] + addend[lane as usize] + 1
            } else {
                b[lane as usize]
            };
            assert_eq!(LaneCounter::get_in(&sum1, lane), expect, "lane={lane}");
        }
    }

    #[test]
    fn omission_model_reads_the_omission_fault_words_exactly() {
        // The byte-identity anchor: the omission instance's corruption
        // coins are the very FAULT_STREAM coins of a plain Bernoulli
        // draw at the same sites.
        let tapes = FaultTapes::new(77);
        let reference_tape = BatchTape::new(77, FAULT_STREAM);
        for p in [0.0, 0.3, 0.76] {
            let model = Omission::new(p);
            let bern = BatchBernoulli::new(p);
            for site in 0..100u64 {
                assert_eq!(
                    model.corrupt_mask(&tapes, site, 9, !0),
                    bern.mask(&reference_tape, site, !0),
                    "p={p} site={site}"
                );
            }
        }
    }

    #[test]
    fn fault_models_are_lane_exact_and_active_restrictable() {
        let tapes = FaultTapes::new(13);
        let throttled = ThrottledFault::try_new(FlipFault::new(0.6), 0.2).unwrap();
        let mut placed = WorstCasePlacement::new(0.5, CorruptionKind::Flip);
        // Star around node 0: ranked by degree, nodes 1..=2 get pinned.
        placed.preprocess_graph(&[0, 4, 5, 6, 7, 8], &[1, 2, 3, 4, 0, 0, 0, 0], 0);
        let models: [&dyn FaultModel; 4] = [
            &Omission::new(0.4),
            &LieOrJamFault::new(0.3),
            &throttled,
            &placed,
        ];
        for model in models {
            for site in 0..60u64 {
                for v in [0u32, 1, 3] {
                    let full = model.corrupt_mask(&tapes, site, v, !0);
                    for lane in [0u32, 17, 63] {
                        assert_eq!(
                            full >> lane & 1 == 1,
                            model.corrupt_lane(&tapes, site, v, lane),
                            "{} site={site} v={v} lane={lane}",
                            model.name()
                        );
                    }
                    let half = model.corrupt_mask(&tapes, site, v, 0x5555_5555_5555_5555);
                    assert_eq!(half, full & 0x5555_5555_5555_5555, "{}", model.name());
                }
            }
        }
    }

    #[test]
    fn throttled_rate_hits_the_target() {
        // p = 0.6 faults kept with probability 1/3 must corrupt at 0.2;
        // 64 lanes x 4000 sites gives SE ~ 0.0008.
        let tapes = FaultTapes::new(21);
        let model = ThrottledFault::try_new(Omission::new(0.6), 0.2).unwrap();
        assert!((model.rate() - 0.2).abs() < 1e-12);
        assert_eq!(
            model.iid_rate().map(|r| (r - 0.2).abs() < 1e-12),
            Some(true)
        );
        let total: u32 = (0..4000u64)
            .map(|site| model.corrupt_mask(&tapes, site, 5, !0).count_ones())
            .sum();
        let rate = f64::from(total) / (4000.0 * 64.0);
        assert!((rate - 0.2).abs() < 0.005, "rate {rate}");
    }

    #[test]
    fn throttle_error_rejects_infeasible_targets() {
        for (p, p_target) in [(0.3, 0.4), (0.3, 0.0), (0.3, -0.1)] {
            let err = ThrottledFault::try_new(Omission::new(p), p_target).unwrap_err();
            assert_eq!(err, ThrottleError { p, p_target });
            assert!(err.to_string().contains("p_target"), "{err}");
        }
        // Boundary: p_target == p keeps every fault.
        let same = ThrottledFault::try_new(Omission::new(0.3), 0.3).unwrap();
        assert!((same.rate() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn subtree_sizes_match_a_hand_tree() {
        // 0 -> {1, 2}, 1 -> {3, 4}, 4 -> {5}; node 6 unreachable.
        let child_offsets = [0u32, 2, 4, 4, 4, 5, 5, 5];
        let children = [1u32, 2, 3, 4, 5];
        let order = [0u32, 1, 2, 3, 4, 5];
        let sizes = subtree_sizes(&child_offsets, &children, &order);
        assert_eq!(sizes, vec![6, 4, 1, 1, 2, 1, 0]);
    }

    #[test]
    fn placement_pins_cut_maximizing_nodes_deterministically() {
        // Same tree: by subtree size the ranking (source excluded) is
        // 1 (4), 4 (2), then the ties 2/3/5 (1 each) by id, then 6 (0).
        let child_offsets = [0u32, 2, 4, 4, 4, 5, 5, 5];
        let children = [1u32, 2, 3, 4, 5];
        let order = [0u32, 1, 2, 3, 4, 5];
        let mut m = WorstCasePlacement::new(0.5, CorruptionKind::Silent);
        m.preprocess_tree(&child_offsets, &children, &order, 0);
        // ceil(0.5 * 6) = 3 pinned: nodes 1, 4, 2.
        assert_eq!(m.placed_count(), 3);
        for v in [1u32, 4, 2] {
            assert!(m.is_placed(v), "node {v}");
        }
        for v in [0u32, 3, 5, 6] {
            assert!(!m.is_placed(v), "node {v}");
        }
        let tapes = FaultTapes::new(1);
        assert_eq!(m.corrupt_mask(&tapes, 9, 1, !0), !0);
        assert_eq!(m.corrupt_mask(&tapes, 9, 3, !0), 0);
        // frac = 1 pins every non-source node that exists.
        let mut all = WorstCasePlacement::new(1.0, CorruptionKind::Flip);
        all.preprocess_tree(&child_offsets, &children, &order, 0);
        assert_eq!(all.placed_count(), 6);
        assert!(!all.is_placed(0), "source never pinned");
    }
}
