//! Error and warning types for the EPL compiler.

use std::fmt;

use crate::token::Pos;

/// A parse error with source position.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Where the error occurred.
    pub pos: Pos,
    /// Human-readable description.
    pub message: String,
}

impl ParseError {
    /// Creates a parse error.
    pub fn new(pos: Pos, message: impl Into<String>) -> Self {
        ParseError {
            pos,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A semantic (schema-binding) error.
#[derive(Clone, Debug, PartialEq)]
pub struct SemanticError {
    /// 0-based index of the offending rule.
    pub rule: usize,
    /// Human-readable description.
    pub message: String,
}

impl SemanticError {
    /// Creates a semantic error for rule `rule`.
    pub fn new(rule: usize, message: impl Into<String>) -> Self {
        SemanticError {
            rule,
            message: message.into(),
        }
    }
}

impl fmt::Display for SemanticError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error in rule {}: {}", self.rule + 1, self.message)
    }
}

impl std::error::Error for SemanticError {}

/// Severity of a compiler warning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// A probable mistake (e.g. `colocate` and `separate` on one pair).
    Warning,
    /// Worth knowing; resolved by runtime priorities (§4.3).
    Note,
}

/// A conflict-detector diagnostic, as issued by the paper's compiler.
#[derive(Clone, Debug, PartialEq)]
pub struct Warning {
    /// Severity class.
    pub severity: Severity,
    /// Indices of the rules involved.
    pub rules: Vec<usize>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Warning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.severity {
            Severity::Warning => "warning",
            Severity::Note => "note",
        };
        let rules: Vec<String> = self.rules.iter().map(|r| (r + 1).to_string()).collect();
        write!(f, "{tag} (rules {}): {}", rules.join(", "), self.message)
    }
}

/// Any failure of [`compile`](crate::compile).
#[derive(Clone, Debug, PartialEq)]
pub enum CompileError {
    /// The source did not parse.
    Parse(ParseError),
    /// The policy does not fit the actor schema.
    Semantic(SemanticError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => e.fmt(f),
            CompileError::Semantic(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CompileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let p = ParseError::new(Pos { line: 2, col: 5 }, "oops");
        assert_eq!(p.to_string(), "parse error at 2:5: oops");
        let s = SemanticError::new(0, "bad type");
        assert_eq!(s.to_string(), "error in rule 1: bad type");
        let w = Warning {
            severity: Severity::Note,
            rules: vec![0, 2],
            message: "priority".into(),
        };
        assert_eq!(w.to_string(), "note (rules 1, 3): priority");
    }
}
