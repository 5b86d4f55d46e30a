//! The paper's failure model: per-(node, step) Bernoulli transmitter
//! faults, classified by severity.

use std::error::Error;
use std::fmt;

use rand::RngCore;

/// The three transmission-failure types studied in the paper, in
/// increasing order of adversarial power.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FaultKind {
    /// Node-omission failures (§2.1): a failed node sends nothing during
    /// that step. Received information can always be trusted.
    Omission,
    /// Limited malicious failures (§2.2.2 remark, §3 Theorem 3.2):
    /// transmissions that were *scheduled* may be altered or dropped, but
    /// a failure cannot cause a node to transmit out of turn.
    LimitedMalicious,
    /// Full malicious transmission failures (§2.2): the transmitter
    /// behaves arbitrarily and adaptively, including transmitting in steps
    /// where the algorithm requires silence.
    Malicious,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::Omission => "omission",
            FaultKind::LimitedMalicious => "limited-malicious",
            FaultKind::Malicious => "malicious",
        };
        f.write_str(s)
    }
}

/// Error returned when a failure probability is outside `[0, 1)`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct InvalidProbability(
    /// The rejected value.
    pub f64,
);

impl fmt::Display for InvalidProbability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "failure probability {} not in [0, 1)", self.0)
    }
}

impl Error for InvalidProbability {}

/// A validated failure probability `p ∈ [0, 1)`.
///
/// The paper requires `p < 1` (with `p = 1` no information ever leaves the
/// source). `p = 0` models the fault-free executions used as baselines.
///
/// # Example
///
/// ```
/// use randcast_engine::FailureProb;
///
/// let p = FailureProb::new(0.3).unwrap();
/// assert_eq!(p.get(), 0.3);
/// assert!(FailureProb::new(1.0).is_err());
/// ```
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug, Default)]
pub struct FailureProb(f64);

impl FailureProb {
    /// Validates `p ∈ [0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidProbability`] if `p` is NaN or outside `[0, 1)`.
    pub fn new(p: f64) -> Result<Self, InvalidProbability> {
        if p.is_nan() || !(0.0..1.0).contains(&p) {
            Err(InvalidProbability(p))
        } else {
            Ok(FailureProb(p))
        }
    }

    /// The probability value.
    #[must_use]
    pub fn get(self) -> f64 {
        self.0
    }

    /// Fault-free (`p = 0`).
    #[must_use]
    pub fn zero() -> Self {
        FailureProb(0.0)
    }
}

impl fmt::Display for FailureProb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Complete fault configuration for an execution: failure type plus
/// per-step failure probability.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FaultConfig {
    /// The failure type.
    pub kind: FaultKind,
    /// Per-(node, step) failure probability.
    pub p: FailureProb,
}

impl FaultConfig {
    /// Builds a configuration from a raw probability.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidProbability`] if `p` is outside `[0, 1)`.
    pub fn new(kind: FaultKind, p: f64) -> Result<Self, InvalidProbability> {
        Ok(FaultConfig {
            kind,
            p: FailureProb::new(p)?,
        })
    }

    /// A fault-free configuration (`p = 0`, omission kind — the kind is
    /// irrelevant at `p = 0`).
    #[must_use]
    pub fn fault_free() -> Self {
        FaultConfig {
            kind: FaultKind::Omission,
            p: FailureProb::zero(),
        }
    }

    /// Omission faults with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1)`.
    #[must_use]
    pub fn omission(p: f64) -> Self {
        FaultConfig::new(FaultKind::Omission, p).expect("invalid probability")
    }

    /// Limited-malicious faults with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1)`.
    #[must_use]
    pub fn limited_malicious(p: f64) -> Self {
        FaultConfig::new(FaultKind::LimitedMalicious, p).expect("invalid probability")
    }

    /// Malicious faults with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1)`.
    #[must_use]
    pub fn malicious(p: f64) -> Self {
        FaultConfig::new(FaultKind::Malicious, p).expect("invalid probability")
    }
}

/// A node-step's transmitter-fault coin, true with probability `p`, that
/// draws nothing at `p = 0`. The vendored `gen_bool(p)` tests `M / 2⁵³ < p`
/// on a draw's top 53 bits `M`; scaling by a power of two is exact in
/// `f64`, so the integer compare `M < ⌈p · 2⁵³⌉` accepts the same words.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FaultCoin(pub(crate) u64);

impl FaultCoin {
    pub(crate) fn new(p: f64) -> Self {
        FaultCoin((p * (1u64 << 53) as f64).ceil() as u64)
    }

    pub(crate) fn fails<R: RngCore>(self, rng: &mut R) -> bool {
        self.0 != 0 && rng.next_u64() >> 11 < self.0
    }
}

/// The fault draw the engines made before they drew each coin in their
/// node pass, kept for their reference steps: one `gen_bool(p)` per node
/// into a cleared mask, none at `p = 0`.
#[cfg(test)]
impl FaultConfig {
    pub(crate) fn sample_step_into(
        &self,
        nodes: usize,
        rng: &mut rand::rngs::SmallRng,
        mask: &mut Vec<bool>,
    ) {
        use rand::Rng;
        mask.clear();
        let p = self.p.get();
        if p == 0.0 {
            mask.resize(nodes, false);
            return;
        }
        mask.extend((0..nodes).map(|_| rng.gen_bool(p)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn probability_validation() {
        assert!(FailureProb::new(0.0).is_ok());
        assert!(FailureProb::new(0.999).is_ok());
        assert!(FailureProb::new(1.0).is_err());
        assert!(FailureProb::new(-0.1).is_err());
        assert!(FailureProb::new(f64::NAN).is_err());
    }

    #[test]
    fn invalid_probability_display() {
        let e = FailureProb::new(1.5).unwrap_err();
        assert!(e.to_string().contains("1.5"));
    }

    #[test]
    fn fault_free_samples_nothing() {
        // At p = 0 no coin fails, and none consumes a draw.
        let mut rng = SmallRng::seed_from_u64(1);
        let mut untouched = rng.clone();
        let coin = FaultCoin::new(0.0);
        assert!((0..100).all(|_| !coin.fails(&mut rng)));
        assert_eq!(rng.next_u64(), untouched.next_u64());
    }

    #[test]
    fn sampling_rate_matches_p() {
        let mut rng = SmallRng::seed_from_u64(2);
        let coin = FaultCoin::new(0.3);
        let draws = 20_000;
        let failures = (0..draws).filter(|_| coin.fails(&mut rng)).count();
        let rate = failures as f64 / draws as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate={rate}");
    }

    /// Probabilities whose thresholds are exact (`2⁻⁴⁰`, quarters),
    /// rounded up (`10⁻⁶`, 0.3, 0.9, `1 − 10⁻⁶`), and the two `f64`s
    /// next to 0.75.
    fn probes() -> Vec<f64> {
        let mut ps = vec![2f64.powi(-40), 1e-6, 0.25, 0.3, 0.5, 0.75, 0.9, 1.0 - 1e-6];
        ps.push(f64::from_bits(0.75f64.to_bits() - 1));
        ps.push(f64::from_bits(0.75f64.to_bits() + 1));
        ps
    }

    /// An RNG that yields one fixed word.
    struct Word(u64);

    impl RngCore for Word {
        fn next_u32(&mut self) -> u32 {
            self.0 as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn coin_accepts_what_gen_bool_accepts_at_the_threshold() {
        // gen_bool's float test on a word, as the vendored `rand` runs it.
        let float_coin = |word: u64, p: f64| ((word >> 11) as f64 / (1u64 << 53) as f64) < p;
        for p in probes() {
            let coin = FaultCoin::new(p);
            let t = coin.0;
            for top in [t - 1, t, t + 1] {
                for low in [0, 0x7ff] {
                    let word = top << 11 | low;
                    assert_eq!(
                        coin.fails(&mut Word(word)),
                        float_coin(word, p),
                        "p = {p:e}, top 53 bits = {top}"
                    );
                }
            }
            assert!(coin.fails(&mut Word((t - 1) << 11)), "p = {p:e}");
            assert!(!coin.fails(&mut Word(t << 11)), "p = {p:e}");
        }
    }

    #[test]
    fn coin_matches_gen_bool_draw_for_draw() {
        for p in probes() {
            let coin = FaultCoin::new(p);
            let mut rng = SmallRng::seed_from_u64(7);
            let mut reference = rng.clone();
            for draw in 0..100_000 {
                assert_eq!(
                    coin.fails(&mut rng),
                    reference.gen_bool(p),
                    "p = {p:e}, draw {draw}"
                );
            }
        }
    }

    #[test]
    fn constructors_set_kind() {
        assert_eq!(FaultConfig::omission(0.1).kind, FaultKind::Omission);
        assert_eq!(
            FaultConfig::limited_malicious(0.1).kind,
            FaultKind::LimitedMalicious
        );
        assert_eq!(FaultConfig::malicious(0.1).kind, FaultKind::Malicious);
    }

    #[test]
    fn kind_display() {
        assert_eq!(FaultKind::Omission.to_string(), "omission");
        assert_eq!(FaultKind::Malicious.to_string(), "malicious");
        assert_eq!(FaultKind::LimitedMalicious.to_string(), "limited-malicious");
    }

    #[test]
    #[should_panic(expected = "invalid probability")]
    fn omission_constructor_panics_on_bad_p() {
        let _ = FaultConfig::omission(2.0);
    }
}
