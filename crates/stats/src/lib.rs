//! Monte-Carlo and estimation substrate for the `randcast` project.
//!
//! The paper's guarantees are probabilistic ("almost-safe" = success with
//! probability ≥ `1 − 1/n`), and its parameter choices are Chernoff-bound
//! driven. This crate provides the numerically careful pieces shared by all
//! experiments:
//!
//! * [`seed`] — SplitMix64 seed derivation so that every trial of every
//!   experiment is deterministic from a single master seed,
//! * [`aggregate`] — per-cell outcome reduction (success counts, mean
//!   rounds, mean informed fraction) shared by the sweep driver,
//! * [`montecarlo`] — the seeded sequential trial runner,
//! * [`estimate`] — success-rate estimation with Wilson confidence
//!   intervals and almost-safety verdicts,
//! * [`chernoff`] — the paper's parameter formulas (`m = ⌈c log n⌉` with
//!   the explicit constants from Sections 2 and 3),
//! * [`quantile`] — distribution summaries (median, upper quantiles) for
//!   per-trial broadcast times,
//! * [`table`] — plain-text table rendering for experiment reports,
//! * [`report`] — the structured sweep-result schema with its
//!   dependency-free JSON writer/parser and Markdown-table rendering.
//!
//! # Example
//!
//! ```
//! use randcast_stats::{estimate::SuccessEstimate, montecarlo, seed::SeedSequence};
//!
//! // Estimate P(coin(0.8)) with 1000 deterministic trials.
//! let outcome = montecarlo::run_trials(1000, SeedSequence::new(42), |rng| {
//!     use rand::Rng;
//!     rng.gen_bool(0.8)
//! });
//! let est = SuccessEstimate::from_outcomes(&outcome);
//! assert!((est.rate() - 0.8).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod chernoff;
pub mod estimate;
pub mod montecarlo;
pub mod quantile;
pub mod report;
pub mod seed;
pub mod table;
