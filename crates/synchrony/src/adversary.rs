//! Adversaries: input vector plus failure pattern.

use std::fmt;

use crate::{FailurePattern, InputVector, ModelError, ProcessId, SystemParams, Value};

/// An adversary `α = (v⃗, F)`: the input vector and the failure pattern chosen
/// by the external scheduler (paper, §2.1).  A deterministic protocol and an
/// adversary uniquely determine a run.
///
/// ```
/// use synchrony::{Adversary, FailurePattern, InputVector};
///
/// let inputs = InputVector::from_values([0, 1, 2]);
/// let mut failures = FailurePattern::crash_free(3);
/// failures.crash_silent(2, 1)?;
/// let adversary = Adversary::new(inputs, failures)?;
/// assert_eq!(adversary.num_failures(), 1);
/// # Ok::<(), synchrony::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adversary {
    inputs: InputVector,
    failures: FailurePattern,
}

impl Adversary {
    /// Combines an input vector and a failure pattern into an adversary.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InputLengthMismatch`] if the two components do
    /// not range over the same number of processes, or
    /// [`ModelError::TooFewProcesses`] if that number is below two.
    pub fn new(inputs: InputVector, failures: FailurePattern) -> Result<Self, ModelError> {
        if inputs.len() != failures.n() {
            return Err(ModelError::InputLengthMismatch {
                got: inputs.len(),
                expected: failures.n(),
            });
        }
        if inputs.len() < 2 {
            return Err(ModelError::TooFewProcesses { n: inputs.len() });
        }
        Ok(Adversary { inputs, failures })
    }

    /// Creates a failure-free adversary from an input vector.
    pub fn failure_free(inputs: InputVector) -> Result<Self, ModelError> {
        let n = inputs.len();
        Adversary::new(inputs, FailurePattern::crash_free(n))
    }

    /// Returns the input vector.
    pub fn inputs(&self) -> &InputVector {
        &self.inputs
    }

    /// Returns the failure pattern.
    pub fn failures(&self) -> &FailurePattern {
        &self.failures
    }

    /// Returns the number of processes.
    pub fn n(&self) -> usize {
        self.inputs.len()
    }

    /// Returns the number of processes that fail (the paper's `f`).
    pub fn num_failures(&self) -> usize {
        self.failures.num_faulty()
    }

    /// Validates the adversary against system parameters: sizes must agree and
    /// the number of crashes must not exceed `t`.
    ///
    /// # Errors
    ///
    /// Propagates the corresponding [`ModelError`] variants.
    pub fn validate_against(&self, params: &SystemParams) -> Result<(), ModelError> {
        if self.inputs.len() != params.n() {
            return Err(ModelError::InputLengthMismatch {
                got: self.inputs.len(),
                expected: params.n(),
            });
        }
        self.failures.validate_against(params)
    }

    /// Splits the adversary back into its components.
    pub fn into_parts(self) -> (InputVector, FailurePattern) {
        (self.inputs, self.failures)
    }

    /// Overwrites the initial value of one process in place.
    ///
    /// Together with [`Adversary::set_failures`], this is what lets a block
    /// cursor (`adversary::enumerate::AdversaryCursor`) reuse one scratch
    /// adversary across a whole enumeration: stepping an input code touches
    /// only the digits that changed, allocating nothing.
    ///
    /// # Panics
    ///
    /// Panics if `process` is out of range.
    pub fn set_input(&mut self, process: impl Into<ProcessId>, value: impl Into<Value>) {
        self.inputs.set_value(process, value);
    }

    /// Replaces the failure pattern, keeping the input vector (and the
    /// adversary's allocations) in place.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InputLengthMismatch`] if the new pattern does
    /// not range over the same number of processes — the adversary is left
    /// unchanged in that case.
    pub fn set_failures(&mut self, failures: FailurePattern) -> Result<(), ModelError> {
        if failures.n() != self.inputs.len() {
            return Err(ModelError::InputLengthMismatch {
                got: failures.n(),
                expected: self.inputs.len(),
            });
        }
        self.failures = failures;
        Ok(())
    }
}

impl fmt::Display for Adversary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "α = ({}, {})", self.inputs, self.failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mismatched_sizes_are_rejected() {
        let inputs = InputVector::from_values([0, 1]);
        let failures = FailurePattern::crash_free(3);
        assert_eq!(
            Adversary::new(inputs, failures),
            Err(ModelError::InputLengthMismatch { got: 2, expected: 3 })
        );
    }

    #[test]
    fn tiny_systems_are_rejected() {
        let inputs = InputVector::from_values([0]);
        let failures = FailurePattern::crash_free(1);
        assert_eq!(Adversary::new(inputs, failures), Err(ModelError::TooFewProcesses { n: 1 }));
    }

    #[test]
    fn failure_free_constructor() {
        let adv = Adversary::failure_free(InputVector::from_values([0, 1, 1])).unwrap();
        assert_eq!(adv.num_failures(), 0);
        assert_eq!(adv.n(), 3);
    }

    #[test]
    fn validate_against_checks_failure_budget() {
        let params = SystemParams::new(3, 0).unwrap();
        let mut failures = FailurePattern::crash_free(3);
        failures.crash_silent(0, 1).unwrap();
        let adv = Adversary::new(InputVector::from_values([0, 1, 2]), failures).unwrap();
        assert_eq!(
            adv.validate_against(&params),
            Err(ModelError::TooManyCrashes { crashes: 1, bound: 0 })
        );
    }

    #[test]
    fn in_place_mutation_preserves_invariants() {
        let mut adv = Adversary::failure_free(InputVector::from_values([0, 1, 2])).unwrap();
        adv.set_input(1, 7u64);
        assert_eq!(adv.inputs().value_of(1), Value::new(7));

        let mut failures = FailurePattern::crash_free(3);
        failures.crash_silent(0, 1).unwrap();
        adv.set_failures(failures).unwrap();
        assert_eq!(adv.num_failures(), 1);

        // A pattern over the wrong process count is rejected and nothing
        // changes.
        let wrong = FailurePattern::crash_free(4);
        assert_eq!(
            adv.set_failures(wrong),
            Err(ModelError::InputLengthMismatch { got: 4, expected: 3 })
        );
        assert_eq!(adv.num_failures(), 1);
    }

    #[test]
    fn into_parts_roundtrips() {
        let inputs = InputVector::from_values([0, 1, 2]);
        let failures = FailurePattern::crash_free(3);
        let adv = Adversary::new(inputs.clone(), failures.clone()).unwrap();
        let (i2, f2) = adv.into_parts();
        assert_eq!(i2, inputs);
        assert_eq!(f2, failures);
    }
}
