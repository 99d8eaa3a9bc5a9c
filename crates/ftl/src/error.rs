//! FTL-level errors.

use ipa_flash::FlashError;
use std::fmt;

/// Logical block (page-granular) address as seen by the host.
pub type Lba = u64;

/// Errors surfaced by the translation layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FtlError {
    /// Underlying device error that the FTL could not hide.
    Flash(FlashError),
    /// No free space left even after garbage collection.
    DeviceFull,
    /// Read of an LBA that was never written (or was trimmed).
    UnmappedLba(Lba),
    /// LBA beyond the exported capacity.
    LbaOutOfRange { lba: Lba, capacity: u64 },
    /// Data lost: ECC could not correct the page.
    Uncorrectable { lba: Lba },
    /// `write_delta` was issued against a region without an IPA layout.
    LayoutRequired { lba: Lba },
    /// `write_delta` arguments do not describe a record-slot append.
    BadWriteDelta { lba: Lba, reason: &'static str },
    /// The in-place append cannot be executed (NOP exhausted / bit
    /// conflict); the caller must fall back to a full out-of-place write.
    InPlaceRejected { lba: Lba, cause: FlashError },
    /// Buffer size does not match the device page size.
    SizeMismatch { expected: usize, got: usize },
}

impl fmt::Display for FtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtlError::Flash(e) => write!(f, "flash error: {e}"),
            FtlError::DeviceFull => write!(f, "device full: GC found no reclaimable block"),
            FtlError::UnmappedLba(lba) => write!(f, "LBA {lba} is unmapped"),
            FtlError::LbaOutOfRange { lba, capacity } => {
                write!(f, "LBA {lba} out of range (capacity {capacity} pages)")
            }
            FtlError::Uncorrectable { lba } => write!(f, "uncorrectable data loss at LBA {lba}"),
            FtlError::LayoutRequired { lba } => {
                write!(
                    f,
                    "write_delta on LBA {lba} requires an IPA-formatted region"
                )
            }
            FtlError::BadWriteDelta { lba, reason } => {
                write!(f, "malformed write_delta on LBA {lba}: {reason}")
            }
            FtlError::InPlaceRejected { lba, cause } => {
                write!(f, "in-place append rejected at LBA {lba}: {cause}")
            }
            FtlError::SizeMismatch { expected, got } => {
                write!(f, "buffer size {got} does not match page size {expected}")
            }
        }
    }
}

impl std::error::Error for FtlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FtlError::Flash(e) | FtlError::InPlaceRejected { cause: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<FlashError> for FtlError {
    fn from(e: FlashError) -> Self {
        FtlError::Flash(e)
    }
}

/// Result alias for FTL operations.
pub type Result<T> = std::result::Result<T, FtlError>;

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_flash::Ppa;

    #[test]
    fn conversion_from_flash() {
        let e: FtlError = FlashError::BadBlock { block: 3 }.into();
        assert!(matches!(e, FtlError::Flash(_)));
        assert!(e.to_string().contains("block 3"));
    }

    #[test]
    fn source_chains() {
        use std::error::Error;
        let e = FtlError::InPlaceRejected {
            lba: 9,
            cause: FlashError::NopExceeded {
                ppa: Ppa::new(0, 0),
                nop: 8,
            },
        };
        assert!(e.source().is_some());
        assert!(e.to_string().contains("LBA 9"));
    }
}
