//! Storage-engine errors.

use ipa_ftl::FtlError;
use std::fmt;

/// Errors surfaced by the storage engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// Device-level failure.
    Device(FtlError),
    /// No slot/space left on the target page.
    PageFull { page: u64 },
    /// Slot does not exist or was deleted.
    SlotNotFound { page: u64, slot: u16 },
    /// Unknown table.
    TableNotFound(String),
    /// Table region exhausted (fixed benchmark sizing keeps this fatal).
    TableFull(String),
    /// Row bytes do not match the table's row length.
    RowSizeMismatch { expected: usize, got: usize },
    /// Update range does not fit inside the row.
    FieldOutOfRange {
        row_len: usize,
        offset: usize,
        len: usize,
    },
    /// A log record would not fit one log page. Physical logging stores
    /// old and new bytes, so a row longer than about half a page cannot
    /// be logged; the engine rejects such a table at build time.
    LogRecordTooLarge { bytes: usize, max: usize },
    /// WAL replay found a malformed record.
    WalCorrupt { lba: u64, reason: &'static str },
    /// Transaction handle is unknown or already finished.
    NoSuchTransaction(u64),
    /// B+-tree key already present (primary-key semantics).
    DuplicateKey(u64),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Device(e) => write!(f, "device error: {e}"),
            StorageError::PageFull { page } => write!(f, "page {page} is full"),
            StorageError::SlotNotFound { page, slot } => {
                write!(f, "slot {slot} not found on page {page}")
            }
            StorageError::TableNotFound(n) => write!(f, "table '{n}' not found"),
            StorageError::TableFull(n) => write!(f, "table '{n}' region exhausted"),
            StorageError::RowSizeMismatch { expected, got } => {
                write!(f, "row size {got}, table expects {expected}")
            }
            StorageError::FieldOutOfRange {
                row_len,
                offset,
                len,
            } => {
                write!(f, "field {offset}+{len} outside row of {row_len} bytes")
            }
            StorageError::LogRecordTooLarge { bytes, max } => {
                write!(f, "log record of {bytes} bytes exceeds a log page ({max})")
            }
            StorageError::WalCorrupt { lba, reason } => {
                write!(f, "WAL corrupt at page {lba}: {reason}")
            }
            StorageError::NoSuchTransaction(id) => write!(f, "no such transaction {id}"),
            StorageError::DuplicateKey(k) => write!(f, "duplicate key {k}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FtlError> for StorageError {
    fn from(e: FtlError) -> Self {
        StorageError::Device(e)
    }
}

/// Result alias for the storage engine.
pub type Result<T> = std::result::Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_device_errors() {
        let e: StorageError = FtlError::DeviceFull.into();
        assert!(e.to_string().contains("device full"));
    }

    #[test]
    fn display_variants() {
        assert!(StorageError::PageFull { page: 7 }.to_string().contains("7"));
        assert!(StorageError::TableNotFound("acct".into())
            .to_string()
            .contains("acct"));
    }
}
