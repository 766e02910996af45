//! The workspace-wide error type.
//!
//! Every fallible step of the pipeline — registry lookup and registration,
//! DSL loading, encoding a (functional, condition) pair, campaign
//! building — reports through [`XcvError`] instead of bare `Option`s or
//! panics. The enum lives in `xcv-functionals` because that is the lowest
//! crate every other layer (conditions, grid, core, report, bench) already
//! depends on.

use std::fmt;

/// Everything that can go wrong across the XCVerifier pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum XcvError {
    /// The condition does not apply to the functional (the `−` cells of
    /// Table I): Lieb–Oxford conditions need an exchange part, the others a
    /// correlation part.
    NotApplicable {
        functional: String,
        condition: String,
    },
    /// A registry lookup by name found nothing.
    UnknownFunctional(String),
    /// `Registry::register` refused a handle whose name (case-insensitive)
    /// is already taken.
    DuplicateFunctional(String),
    /// An operation needed `F_x` but the functional has no exchange part.
    MissingExchange { functional: String },
    /// Loading a DSL-defined functional failed (lexing, parsing, symbolic
    /// execution, or contract validation).
    Dsl { functional: String, message: String },
    /// Scalar or interval evaluation failed outside its natural domain.
    Eval { context: String, message: String },
}

impl XcvError {
    /// Shorthand for wrapping a DSL pipeline error with the functional name.
    pub fn dsl(functional: impl Into<String>, err: impl fmt::Display) -> Self {
        XcvError::Dsl {
            functional: functional.into(),
            message: err.to_string(),
        }
    }
}

impl fmt::Display for XcvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XcvError::NotApplicable {
                functional,
                condition,
            } => write!(f, "{condition} does not apply to {functional}"),
            XcvError::UnknownFunctional(name) => {
                write!(f, "no functional named {name:?} in the registry")
            }
            XcvError::DuplicateFunctional(name) => {
                write!(f, "a functional named {name:?} is already registered")
            }
            XcvError::MissingExchange { functional } => {
                write!(f, "{functional} has no exchange part")
            }
            XcvError::Dsl {
                functional,
                message,
            } => write!(f, "loading DSL functional {functional:?}: {message}"),
            XcvError::Eval { context, message } => {
                write!(f, "evaluation failed in {context}: {message}")
            }
        }
    }
}

impl std::error::Error for XcvError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = XcvError::NotApplicable {
            functional: "LYP".into(),
            condition: "LO bound".into(),
        };
        assert_eq!(e.to_string(), "LO bound does not apply to LYP");
        assert!(XcvError::UnknownFunctional("B3LYP".into())
            .to_string()
            .contains("B3LYP"));
        assert!(XcvError::dsl("wigner", "parse error at 1:1: oops")
            .to_string()
            .contains("parse error"));
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&XcvError::UnknownFunctional("B3LYP".into()));
    }
}
