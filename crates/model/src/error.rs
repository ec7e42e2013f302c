//! Typed validation errors shared by every configurable component.
//!
//! All `validate()` methods across the workspace (gossip configs, ring-model
//! configs, cost parameters, fault plans, …) return `Result<(), ConfigError>`
//! instead of stringly-typed errors, so callers can match on the failure
//! kind programmatically while `Display` still renders the familiar
//! human-readable message.

use std::fmt;

/// A structured configuration-validation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A value that must be strictly positive (and finite) was not.
    NotPositive {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A probability or fraction lies outside `[0, 1]`.
    OutOfUnitRange {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// An integral count is below its minimum.
    TooSmall {
        /// Name of the offending field.
        field: &'static str,
        /// The smallest admissible value.
        min: u64,
        /// The rejected value.
        value: u64,
    },
    /// A real value must be finite and at least `min`.
    BelowMin {
        /// Name of the offending field.
        field: &'static str,
        /// The smallest admissible value.
        min: f64,
        /// The rejected value.
        value: f64,
    },
    /// `field` must not exceed the named bound (e.g. `t_a ≤ t_f`).
    Exceeds {
        /// Name of the offending field.
        field: &'static str,
        /// Name of the bounding field.
        bound: &'static str,
        /// The rejected value.
        value: f64,
        /// The bound's value.
        limit: f64,
    },
    /// A cross-field consistency rule failed. `at` carries a phase or
    /// element index when the failure is positional.
    Inconsistent {
        /// Description of the violated rule.
        what: &'static str,
        /// Position (phase/index) of the violation, when applicable.
        at: Option<usize>,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::NotPositive { field, value } => {
                write!(f, "{field} must be positive and finite, got {value}")
            }
            ConfigError::OutOfUnitRange { field, value } => {
                write!(f, "{field} {value} outside [0,1]")
            }
            ConfigError::TooSmall { field, min, value } => {
                write!(f, "{field} must be ≥ {min}, got {value}")
            }
            ConfigError::BelowMin { field, min, value } => {
                write!(f, "{field} must be finite and ≥ {min}, got {value}")
            }
            ConfigError::Exceeds {
                field,
                bound,
                value,
                limit,
            } => write!(f, "{field} ({value}) must not exceed {bound} ({limit})"),
            ConfigError::Inconsistent { what, at } => match at {
                Some(i) => write!(f, "{what} at {i}"),
                None => write!(f, "{what}"),
            },
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = ConfigError::OutOfUnitRange {
            field: "probability",
            value: 1.5,
        };
        assert_eq!(e.to_string(), "probability 1.5 outside [0,1]");
        let e = ConfigError::NotPositive {
            field: "rho",
            value: 0.0,
        };
        assert_eq!(e.to_string(), "rho must be positive and finite, got 0");
        let e = ConfigError::TooSmall {
            field: "s",
            min: 1,
            value: 0,
        };
        assert_eq!(e.to_string(), "s must be ≥ 1, got 0");
        let e = ConfigError::BelowMin {
            field: "carrier-sense factor",
            min: 1.0,
            value: 0.5,
        };
        assert_eq!(
            e.to_string(),
            "carrier-sense factor must be finite and ≥ 1, got 0.5"
        );
        let e = ConfigError::Exceeds {
            field: "t_a",
            bound: "t_f",
            value: 2.0,
            limit: 1.0,
        };
        assert_eq!(e.to_string(), "t_a (2) must not exceed t_f (1)");
        let e = ConfigError::Inconsistent {
            what: "informed_cum decreases",
            at: Some(3),
        };
        assert_eq!(e.to_string(), "informed_cum decreases at 3");
    }

    #[test]
    fn implements_error_trait() {
        fn takes_error(_: &dyn std::error::Error) {}
        let e = ConfigError::Inconsistent {
            what: "lengths differ",
            at: None,
        };
        takes_error(&e);
        assert_eq!(e.to_string(), "lengths differ");
    }

    #[test]
    fn matchable_by_kind() {
        let e = ConfigError::OutOfUnitRange {
            field: "p",
            value: -0.2,
        };
        assert!(matches!(e, ConfigError::OutOfUnitRange { field: "p", .. }));
    }
}
