//! Script errors with line information.

use std::error::Error;
use std::fmt;

/// What went wrong while parsing or executing a script.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScriptErrorKind {
    /// Unknown command word.
    UnknownCommand(String),
    /// Wrong number or shape of arguments; the message names the
    /// expected form.
    BadArguments(String),
    /// Reference to a variable that was never bound.
    UnknownVariable(String),
    /// Reference to a class that was never declared.
    UnknownClass(String),
    /// Reference to a field not declared on the class.
    UnknownField {
        /// The class searched.
        class: String,
        /// The missing field.
        field: String,
    },
    /// A `config` command after the VM already started executing.
    ConfigAfterStart,
    /// An `expect-*` assertion failed; the message describes the
    /// mismatch.
    ExpectationFailed(String),
    /// The VM rejected the operation.
    Vm(String),
}

/// A source position: a 1-based line and, when the reporter could compute
/// it cheaply, a 1-based column. This is the one renderer shared by the
/// parser ([`crate::parse_line`]), the interpreter, and the static
/// analyzer ([`crate::analysis`]), so every diagnostic in the crate
/// locates itself the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceLocation {
    /// 1-based line number in the script.
    pub line: usize,
    /// 1-based column of the offending token, when known.
    pub column: Option<usize>,
}

impl fmt::Display for SourceLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.column {
            // The column extends the classic `line N` form rather than
            // replacing it, so line-only consumers keep working.
            Some(col) => write!(f, "line {}:{col}", self.line),
            None => write!(f, "line {}", self.line),
        }
    }
}

/// A parse or execution error, tagged with its 1-based script line and,
/// when cheaply available, the offending token and column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptError {
    /// 1-based line number in the script.
    pub line: usize,
    /// The failure.
    pub kind: ScriptErrorKind,
    /// The offending token, when the reporter identified one.
    pub token: Option<String>,
    /// 1-based column of the offending token, when known.
    pub column: Option<usize>,
}

impl ScriptError {
    /// Creates an error at `line` with no token information.
    pub(crate) fn new(line: usize, kind: ScriptErrorKind) -> ScriptError {
        ScriptError {
            line,
            kind,
            token: None,
            column: None,
        }
    }

    /// Attaches the offending token (and its 1-based column, when known).
    #[must_use]
    pub(crate) fn with_token(
        mut self,
        token: impl Into<String>,
        column: Option<usize>,
    ) -> ScriptError {
        self.token = Some(token.into());
        self.column = column;
        self
    }

    /// The error's source location, for the shared renderer.
    pub(crate) fn location(&self) -> SourceLocation {
        SourceLocation {
            line: self.line,
            column: self.column,
        }
    }
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.location())?;
        match &self.kind {
            ScriptErrorKind::UnknownCommand(c) => write!(f, "unknown command `{c}`"),
            ScriptErrorKind::BadArguments(m) => write!(f, "bad arguments: {m}"),
            ScriptErrorKind::UnknownVariable(v) => write!(f, "unknown variable `{v}`"),
            ScriptErrorKind::UnknownClass(c) => write!(f, "unknown class `{c}`"),
            ScriptErrorKind::UnknownField { class, field } => {
                write!(f, "class `{class}` has no field `{field}`")
            }
            ScriptErrorKind::ConfigAfterStart => {
                write!(f, "`config` must appear before any other command")
            }
            ScriptErrorKind::ExpectationFailed(m) => write!(f, "expectation failed: {m}"),
            ScriptErrorKind::Vm(m) => write!(f, "vm error: {m}"),
        }
    }
}

impl Error for ScriptError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_line_and_kind() {
        let e = ScriptError::new(7, ScriptErrorKind::UnknownVariable("x".into()));
        let s = e.to_string();
        assert!(s.contains("line 7"));
        assert!(s.contains("`x`"));
    }

    #[test]
    fn line_only_format_is_preserved_without_column() {
        let e = ScriptError::new(3, ScriptErrorKind::ConfigAfterStart);
        assert!(e.to_string().starts_with("line 3: "));
    }

    #[test]
    fn column_extends_the_location() {
        let e = ScriptError::new(3, ScriptErrorKind::UnknownCommand("frob".into()))
            .with_token("frob", Some(5));
        assert!(e.to_string().starts_with("line 3:5: "));
        assert_eq!(e.token.as_deref(), Some("frob"));
        assert_eq!(e.location().column, Some(5));
    }
}
