//! Adversary generators for the synchronous crash-failure model.
//!
//! An adversary is an input vector plus a failure pattern (see the
//! `synchrony` crate).  This crate provides every adversary family used by
//! the reproduction of *Unbeatable Set Consensus via Topological and
//! Combinatorial Reasoning*:
//!
//! * [`random`] — seeded random adversaries for property tests and
//!   decision-time surveys;
//! * [`scenarios`] — the constructions behind the paper's figures: the
//!   hidden-path run of Fig. 1, the hidden-capacity chains of Fig. 2, and the
//!   Fig. 4-style family on which `u-Pmin[k]` decides at time 2 while every
//!   failure-counting protocol waits for `⌊t/k⌋ + 1` rounds;
//! * [`lemma2`] — the constructive witness-run builder of Lemma 2, the
//!   engine of the unbeatability proof;
//! * [`enumerate`] — exhaustive enumeration of all adversaries of a small
//!   system, used to spot-check the optimality claims;
//! * [`space`] — the [`PatternSpace`] trait behind pluggable fault models
//!   (the paper's crash space plus the mobile send-omission space) and the
//!   conformance contract every space must honor;
//! * [`symmetry`] — the process-renaming orbits of a pattern space, which
//!   let exhaustive sweeps run one canonical pattern per orbit.
//!
//! ```
//! use adversary::scenarios;
//!
//! // The run family of Fig. 4, for k = 3 and t = 12.
//! let scenario = scenarios::uniform_gap(3, 4, 3)?;
//! assert_eq!(scenario.t, 12);
//! assert_eq!(scenario.adversary.num_failures(), 12);
//! # Ok::<(), synchrony::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod enumerate;
pub mod lemma2;
pub mod random;
pub mod scenarios;
pub mod space;
pub mod symmetry;

pub use enumerate::{AdversarySpace, CrashSpace, EnumerationConfig};
pub use lemma2::WitnessScenario;
pub use random::{RandomAdversaries, RandomConfig};
pub use scenarios::{HiddenCapacityScenario, UniformGapScenario};
pub use space::{OmissionConfig, OmissionSpace, PatternModel, PatternSpace};
