//! Analyzer diagnostics: severity levels, codes, and rendering through
//! the same [`SourceLocation`] renderer the parser uses.

use std::fmt;

use crate::error::SourceLocation;

/// How certain — and how serious — a diagnostic is.
///
/// The analyzer's verdict lattice maps onto severities: a **must**-violate
/// verdict (the abstract heap proves the assertion fires) is an `Error`;
/// a **may**-violate verdict (plausible on the abstract heap but the
/// analyzer declines to promise it) and the advisory lints are `Warning`s;
/// supporting facts ride along as `Note`s inside a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory only.
    Note,
    /// May-violate verdicts and lints; the script may still run clean.
    Warning,
    /// Must-violate verdicts and predicted runtime failures.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        })
    }
}

/// One analyzer finding, anchored to a script line (and column when the
/// offending token is known).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// 1-based script line the diagnostic anchors to.
    pub line: usize,
    /// 1-based column of the anchoring token, when known.
    pub column: Option<usize>,
    /// Severity (must = error, may/lint = warning).
    pub severity: Severity,
    /// Stable short code, e.g. `dead-reachable` or `use-after-assert-dead`.
    pub code: &'static str,
    /// Human-readable message.
    pub message: String,
    /// Supporting facts (abstract paths, provenance lines), one per line.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// The diagnostic's source location, for the shared renderer.
    pub(crate) fn location(&self) -> SourceLocation {
        SourceLocation {
            line: self.line,
            column: self.column,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity,
            self.code,
            self.location(),
            self.message
        )?;
        for note in &self.notes {
            write!(f, "\n  {note}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_with_location_and_notes() {
        let d = Diagnostic {
            line: 25,
            column: Some(1),
            severity: Severity::Error,
            code: "dead-reachable",
            message: "`fresh` is still reachable".into(),
            notes: vec!["path: occupant -.rep-> fresh".into()],
        };
        let s = d.to_string();
        assert!(s.starts_with("error[dead-reachable] line 25:1: "));
        assert!(s.contains("\n  path: occupant"));
    }

    #[test]
    fn severity_ordering_matches_lattice() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Note);
    }
}
