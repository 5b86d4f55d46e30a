//! The paper's failure model: per-(node, step) Bernoulli transmitter
//! faults, classified by severity.

use std::error::Error;
use std::fmt;

use rand::rngs::SmallRng;
use rand::Rng;

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

    /// Samples the set of failed transmitters for one step into `mask`:
    /// `mask[v]` is `true` iff node `v`'s transmitter fails. One
    /// independent coin per node, exactly as in the paper. The mask is
    /// cleared and refilled, so per-round engines reuse one buffer.
    pub fn sample_step_into(&self, nodes: usize, rng: &mut SmallRng, mask: &mut Vec<bool>) {
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
    use rand::SeedableRng;

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
        let mut rng = SmallRng::seed_from_u64(1);
        let f = FaultConfig::fault_free();
        let mut mask = vec![true; 3];
        f.sample_step_into(100, &mut rng, &mut mask);
        assert_eq!(mask.len(), 100);
        assert!(mask.iter().all(|&b| !b));
    }

    #[test]
    fn sampling_rate_matches_p() {
        let mut rng = SmallRng::seed_from_u64(2);
        let f = FaultConfig::omission(0.3);
        let mut failures = 0usize;
        let steps = 2000;
        let nodes = 10;
        let mut mask = Vec::new();
        for _ in 0..steps {
            f.sample_step_into(nodes, &mut rng, &mut mask);
            assert_eq!(mask.len(), nodes);
            failures += mask.iter().filter(|&&b| b).count();
        }
        let rate = failures as f64 / (steps * nodes) as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate={rate}");
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
