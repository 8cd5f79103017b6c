//! Error type for the JSONiq engine.

use std::fmt;

use nf2_columnar::ScanError;

/// Errors from parsing or evaluating JSONiq.
#[derive(Debug, Clone, PartialEq)]
pub enum FlworError {
    /// Tokenizer failure.
    Lex(usize, String),
    /// Parser failure.
    Parse(String),
    /// Unbound variable or unknown function.
    Unresolved(String),
    /// Dynamic type error (JSONiq errors like XPTY0004/JNTY0004).
    Type(String),
    /// Other dynamic errors (arity, arithmetic, …).
    Dynamic(String),
    /// Substrate error.
    Columnar(String),
    /// Typed scan fault from the chaos layer (carries row group + leaf).
    Scan(ScanError),
    /// The run observed a tripped [`obs::CancelToken`] and stopped at a
    /// row-group boundary (expired deadline or explicit cancel).
    Cancelled(obs::Cancelled),
}

impl FlworError {
    /// The typed scan fault, when this error is one.
    pub fn scan_error(&self) -> Option<&ScanError> {
        match self {
            FlworError::Scan(e) => Some(e),
            _ => None,
        }
    }

    /// The typed cancellation payload, when this error is one.
    pub fn cancelled(&self) -> Option<&obs::Cancelled> {
        match self {
            FlworError::Cancelled(c) => Some(c),
            _ => None,
        }
    }
}

impl fmt::Display for FlworError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlworError::Lex(pos, m) => write!(f, "lex error at byte {pos}: {m}"),
            FlworError::Parse(m) => write!(f, "parse error: {m}"),
            FlworError::Unresolved(m) => write!(f, "unresolved: {m}"),
            FlworError::Type(m) => write!(f, "type error: {m}"),
            FlworError::Dynamic(m) => write!(f, "dynamic error: {m}"),
            FlworError::Columnar(m) => write!(f, "storage error: {m}"),
            FlworError::Scan(e) => write!(f, "scan fault: {e}"),
            FlworError::Cancelled(c) => write!(f, "{c}"),
        }
    }
}

impl std::error::Error for FlworError {}

impl From<nf2_columnar::ColumnarError> for FlworError {
    fn from(e: nf2_columnar::ColumnarError) -> Self {
        match e {
            nf2_columnar::ColumnarError::Cancelled(c) => FlworError::Cancelled(c),
            other => match other.into_scan_fault() {
                Ok(s) => FlworError::Scan(s),
                Err(m) => FlworError::Columnar(m),
            },
        }
    }
}

impl From<obs::Cancelled> for FlworError {
    fn from(c: obs::Cancelled) -> Self {
        FlworError::Cancelled(c)
    }
}

impl From<physical_ir::PirError> for FlworError {
    fn from(e: physical_ir::PirError) -> Self {
        match e {
            physical_ir::PirError::Columnar(c) => FlworError::from(c),
            physical_ir::PirError::Cancelled(c) => FlworError::Cancelled(c),
            e @ physical_ir::PirError::MorselPanic { .. } => FlworError::Dynamic(e.to_string()),
        }
    }
}
