//! Workspace-wide error type.
//!
//! The CrowdER crates share one error enum rather than a per-crate
//! hierarchy: the failure modes are few (bad configuration, malformed
//! input, infeasible optimization instance) and callers almost always
//! either bubble them up or abort an experiment run.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T, E = Error> = std::result::Result<T, E>;

/// Errors produced by CrowdER components.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A pair was requested between a record and itself.
    SelfPair(u32),
    /// A record id referenced a record that does not exist in the dataset.
    UnknownRecord(u32),
    /// A configuration parameter was outside its legal range.
    InvalidConfig {
        /// Name of the offending parameter.
        param: &'static str,
        /// Human-readable description of the violated constraint.
        message: String,
    },
    /// An optimization instance admitted no feasible solution.
    Infeasible(String),
    /// A numerical routine failed to converge within its iteration budget.
    NoConvergence {
        /// Name of the routine (e.g. `"crowd-simulation"`).
        routine: &'static str,
        /// Iterations performed before giving up.
        iterations: usize,
    },
    /// Input data violated a structural assumption (e.g. ragged rows).
    InvalidData(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::SelfPair(id) => {
                write!(f, "cannot form a pair of record {id} with itself")
            }
            Error::UnknownRecord(id) => write!(f, "unknown record id {id}"),
            Error::InvalidConfig { param, message } => {
                write!(f, "invalid configuration for `{param}`: {message}")
            }
            Error::Infeasible(what) => write!(f, "infeasible instance: {what}"),
            Error::NoConvergence {
                routine,
                iterations,
            } => {
                write!(
                    f,
                    "`{routine}` did not converge after {iterations} iterations"
                )
            }
            Error::InvalidData(msg) => write!(f, "invalid data: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = Error::SelfPair(7);
        assert!(e.to_string().contains('7'));
        let e = Error::InvalidConfig {
            param: "k",
            message: "must be >= 2".into(),
        };
        assert!(e.to_string().contains('k'));
        assert!(e.to_string().contains(">= 2"));
        let e = Error::NoConvergence {
            routine: "crowd-simulation",
            iterations: 10,
        };
        assert!(e.to_string().contains("crowd-simulation"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&Error::UnknownRecord(1));
    }
}
