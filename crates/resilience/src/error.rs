//! The typed store-error taxonomy.
//!
//! Three failure classes, because callers treat them differently:
//!
//! * **Transient** — a retry may succeed (flaky read, latency-induced
//!   timeout, torn read detected by checksum). The segment store retries
//!   these under a [`crate::RetryPolicy`].
//! * **Permanent I/O** — the operation will not succeed by repetition
//!   (file gone, page id out of range, write refused).
//! * **Corruption** — the bytes came back but fail validation (checksum
//!   mismatch, impossible header). Detected, never silently decoded.

/// An error from the disk path: block backend, segment store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Permanent I/O failure on `op` (seek/read/write/create).
    Io {
        /// The operation that failed.
        op: &'static str,
        /// Human-readable cause (from the OS error).
        detail: String,
    },
    /// A transient fault on `op`; retrying may succeed.
    Transient {
        /// The operation that faulted.
        op: &'static str,
        /// What the fault looked like.
        detail: String,
    },
    /// Page `page` failed checksum or structural validation.
    Corrupt {
        /// The offending page id.
        page: u32,
        /// What failed (checksum mismatch, bad count, short page).
        detail: String,
    },
    /// A read referenced a page that does not exist.
    NoSuchPage {
        /// The requested page id.
        page: u32,
        /// How many pages the backend holds.
        pages: u32,
    },
    /// A transient fault persisted through every allowed retry.
    RetriesExhausted {
        /// The operation that kept faulting.
        op: &'static str,
        /// Attempts made (including the first).
        attempts: u32,
        /// The final underlying error, rendered.
        last: String,
    },
}

impl StoreError {
    /// True when a retry may succeed (the retry loop's gate).
    pub fn is_transient(&self) -> bool {
        // Corruption is retried too: a torn *read* yields fresh bytes on
        // the next attempt, while persistent on-disk corruption will keep
        // failing and surface as RetriesExhausted→Corrupt at the caller.
        matches!(
            self,
            StoreError::Transient { .. } | StoreError::Corrupt { .. }
        )
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { op, detail } => write!(f, "i/o error during {op}: {detail}"),
            StoreError::Transient { op, detail } => {
                write!(f, "transient fault during {op}: {detail}")
            }
            StoreError::Corrupt { page, detail } => {
                write!(f, "page {page} is corrupt: {detail}")
            }
            StoreError::NoSuchPage { page, pages } => {
                write!(f, "page {page} out of range (backend holds {pages})")
            }
            StoreError::RetriesExhausted { op, attempts, last } => {
                write!(f, "{op} still failing after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io {
            op: "i/o",
            detail: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_and_corrupt_are_retryable_io_is_not() {
        let t = StoreError::Transient {
            op: "read_page",
            detail: "injected".into(),
        };
        let c = StoreError::Corrupt {
            page: 3,
            detail: "checksum".into(),
        };
        let p = StoreError::Io {
            op: "read_page",
            detail: "gone".into(),
        };
        assert!(t.is_transient());
        assert!(c.is_transient());
        assert!(!p.is_transient());
        assert!(!StoreError::NoSuchPage { page: 9, pages: 2 }.is_transient());
    }

    #[test]
    fn display_renders_every_variant() {
        let all = [
            StoreError::Io {
                op: "seek",
                detail: "x".into(),
            },
            StoreError::Transient {
                op: "read_page",
                detail: "y".into(),
            },
            StoreError::Corrupt {
                page: 7,
                detail: "z".into(),
            },
            StoreError::NoSuchPage { page: 1, pages: 0 },
            StoreError::RetriesExhausted {
                op: "read_page",
                attempts: 4,
                last: "w".into(),
            },
        ];
        for e in all {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn io_error_converts() {
        let e: StoreError = std::io::Error::new(std::io::ErrorKind::NotFound, "nope").into();
        assert!(matches!(e, StoreError::Io { .. }));
    }
}
