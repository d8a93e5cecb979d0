//! Workspace-wide error type.
//!
//! All fallible public APIs in BlendHouse-rs return [`Result<T>`]. The error
//! enum is deliberately coarse: each variant corresponds to a subsystem
//! boundary a caller might plausibly branch on, and everything else is carried
//! as a message.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T, E = BhError> = std::result::Result<T, E>;

/// The error type shared by every BlendHouse-rs crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BhError {
    /// Vector dimensionality did not match the index / column definition.
    DimensionMismatch {
        /// Dimensionality the index/column requires.
        expected: usize,
        /// Dimensionality the caller supplied.
        got: usize,
    },
    /// A named entity (table, segment, index, worker) was not found.
    NotFound(String),
    /// An entity with the same name already exists.
    AlreadyExists(String),
    /// SQL text failed to lex or parse; message includes position info.
    Parse(String),
    /// A semantically invalid plan or statement (e.g. ORDER BY distance on a
    /// non-vector column, unknown index type).
    Plan(String),
    /// Invalid argument or configuration value.
    InvalidArgument(String),
    /// Index build / search failure (untrained IVF, corrupt serialized index).
    Index(String),
    /// Storage-layer failure (missing blob, corrupt segment, I/O error text).
    Storage(String),
    /// Simulated or real I/O failure.
    Io(String),
    /// A simulated RPC failed (peer down, timeout).
    Rpc(String),
    /// The target worker is down; the query layer may retry elsewhere.
    WorkerUnavailable(String),
    /// Serialization / deserialization failure.
    Serde(String),
    /// A lock was poisoned by a panic on another thread; the payload names
    /// the lock class (see `bh_common::sync`).
    LockPoisoned(String),
    /// Internal invariant violation — indicates a bug in BlendHouse itself.
    Internal(String),
}

impl BhError {
    /// True if the operation may succeed when retried on another worker or
    /// after topology refresh. Used by query-level retry (§II-E fault
    /// tolerance).
    pub fn is_retryable(&self) -> bool {
        matches!(self, BhError::Rpc(_) | BhError::WorkerUnavailable(_))
    }

    /// True for a failure caused by racing a concurrent compaction's garbage
    /// collection: a segment of the statement's snapshot, or one of its
    /// blobs, is gone. Re-running against a fresh snapshot succeeds. Matches
    /// the messages of `TableStore::segment` and the object stores' `get`
    /// (held to them by a test beside `TableStore`).
    pub fn is_snapshot_race(&self) -> bool {
        match self {
            BhError::NotFound(msg) => msg.contains("segment"),
            BhError::Storage(msg) => msg.contains("blob not found"),
            _ => false,
        }
    }

    /// Stable machine-readable error code — the variant name in
    /// `SCREAMING_SNAKE_CASE`. Recorded in the query log's `error_code`
    /// column so failures can be grouped without parsing display text.
    pub fn code(&self) -> &'static str {
        match self {
            BhError::DimensionMismatch { .. } => "DIMENSION_MISMATCH",
            BhError::NotFound(_) => "NOT_FOUND",
            BhError::AlreadyExists(_) => "ALREADY_EXISTS",
            BhError::Parse(_) => "PARSE",
            BhError::Plan(_) => "PLAN",
            BhError::InvalidArgument(_) => "INVALID_ARGUMENT",
            BhError::Index(_) => "INDEX",
            BhError::Storage(_) => "STORAGE",
            BhError::Io(_) => "IO",
            BhError::Rpc(_) => "RPC",
            BhError::WorkerUnavailable(_) => "WORKER_UNAVAILABLE",
            BhError::Serde(_) => "SERDE",
            BhError::LockPoisoned(_) => "LOCK_POISONED",
            BhError::Internal(_) => "INTERNAL",
        }
    }
}

impl fmt::Display for BhError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BhError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            BhError::NotFound(s) => write!(f, "not found: {s}"),
            BhError::AlreadyExists(s) => write!(f, "already exists: {s}"),
            BhError::Parse(s) => write!(f, "parse error: {s}"),
            BhError::Plan(s) => write!(f, "plan error: {s}"),
            BhError::InvalidArgument(s) => write!(f, "invalid argument: {s}"),
            BhError::Index(s) => write!(f, "index error: {s}"),
            BhError::Storage(s) => write!(f, "storage error: {s}"),
            BhError::Io(s) => write!(f, "io error: {s}"),
            BhError::Rpc(s) => write!(f, "rpc error: {s}"),
            BhError::WorkerUnavailable(s) => write!(f, "worker unavailable: {s}"),
            BhError::Serde(s) => write!(f, "serde error: {s}"),
            BhError::LockPoisoned(s) => write!(f, "lock poisoned: {s}"),
            BhError::Internal(s) => write!(f, "internal error: {s}"),
        }
    }
}

impl std::error::Error for BhError {}

impl From<std::io::Error> for BhError {
    fn from(e: std::io::Error) -> Self {
        BhError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_detail() {
        let e = BhError::DimensionMismatch { expected: 128, got: 64 };
        assert_eq!(e.to_string(), "dimension mismatch: expected 128, got 64");
        let e = BhError::NotFound("table t".into());
        assert!(e.to_string().contains("table t"));
    }

    #[test]
    fn retryable_classification() {
        assert!(BhError::Rpc("down".into()).is_retryable());
        assert!(BhError::WorkerUnavailable("w1".into()).is_retryable());
        assert!(!BhError::Parse("x".into()).is_retryable());
        assert!(!BhError::Storage("x".into()).is_retryable());
    }

    #[test]
    fn snapshot_race_classification() {
        assert!(BhError::NotFound("segment 17".into()).is_snapshot_race());
        assert!(BhError::Storage("blob not found: tables/t/17/index".into()).is_snapshot_race());
        assert!(!BhError::NotFound("table t".into()).is_snapshot_race());
        assert!(!BhError::Storage("disk full".into()).is_snapshot_race());
        assert!(!BhError::Rpc("segment 17".into()).is_snapshot_race());
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: BhError = io.into();
        assert!(matches!(e, BhError::Io(_)));
    }
}
