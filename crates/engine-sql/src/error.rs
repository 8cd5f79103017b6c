//! SQL engine error type.

use std::fmt;

use nf2_columnar::ScanError;

/// Errors from parsing, planning, or executing SQL.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// Tokenizer failure (position, message).
    Lex(usize, String),
    /// Parser failure.
    Parse(String),
    /// The query uses a construct the active dialect does not support
    /// (the Table-1 capability matrix in executable form).
    Capability {
        /// Dialect name.
        dialect: &'static str,
        /// Description of the unsupported construct.
        construct: String,
    },
    /// Name resolution failure.
    Unresolved(String),
    /// Semantic/planning error.
    Plan(String),
    /// Runtime evaluation error.
    Eval(String),
    /// Substrate error.
    Columnar(String),
    /// Typed scan fault from the chaos layer (carries row group + leaf).
    Scan(ScanError),
    /// The run observed a tripped [`obs::CancelToken`] and stopped at a
    /// row-group boundary (expired deadline or explicit cancel).
    Cancelled(obs::Cancelled),
}

impl SqlError {
    /// The typed scan fault, when this error is one.
    pub fn scan_error(&self) -> Option<&ScanError> {
        match self {
            SqlError::Scan(e) => Some(e),
            _ => None,
        }
    }

    /// The typed cancellation payload, when this error is one.
    pub fn cancelled(&self) -> Option<&obs::Cancelled> {
        match self {
            SqlError::Cancelled(c) => Some(c),
            _ => None,
        }
    }
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Lex(pos, m) => write!(f, "lex error at byte {pos}: {m}"),
            SqlError::Parse(m) => write!(f, "parse error: {m}"),
            SqlError::Capability { dialect, construct } => {
                write!(f, "{dialect} does not support {construct}")
            }
            SqlError::Unresolved(m) => write!(f, "cannot resolve {m}"),
            SqlError::Plan(m) => write!(f, "planning error: {m}"),
            SqlError::Eval(m) => write!(f, "evaluation error: {m}"),
            SqlError::Columnar(m) => write!(f, "storage error: {m}"),
            SqlError::Scan(e) => write!(f, "scan fault: {e}"),
            SqlError::Cancelled(c) => write!(f, "{c}"),
        }
    }
}

impl std::error::Error for SqlError {}

impl From<nested_value::ValueError> for SqlError {
    fn from(e: nested_value::ValueError) -> Self {
        SqlError::Eval(e.to_string())
    }
}

impl From<nf2_columnar::ColumnarError> for SqlError {
    fn from(e: nf2_columnar::ColumnarError) -> Self {
        match e {
            nf2_columnar::ColumnarError::Cancelled(c) => SqlError::Cancelled(c),
            other => match other.into_scan_fault() {
                Ok(s) => SqlError::Scan(s),
                Err(m) => SqlError::Columnar(m),
            },
        }
    }
}

impl From<obs::Cancelled> for SqlError {
    fn from(c: obs::Cancelled) -> Self {
        SqlError::Cancelled(c)
    }
}

impl From<physical_ir::PirError> for SqlError {
    fn from(e: physical_ir::PirError) -> Self {
        match e {
            physical_ir::PirError::Columnar(c) => SqlError::from(c),
            physical_ir::PirError::Cancelled(c) => SqlError::Cancelled(c),
            e @ physical_ir::PirError::MorselPanic { .. } => SqlError::Eval(e.to_string()),
        }
    }
}
