//! Error types shared across the workspace.

use std::fmt;

/// Convenient result alias using [`enum@Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced by the atomic multicast stack.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// A wire-format frame could not be decoded.
    Wire(WireError),
    /// The addressed ring is not known to this process.
    UnknownRing(crate::ids::RingId),
    /// The addressed node is not part of the configuration.
    UnknownNode(crate::ids::NodeId),
    /// The operation requires the coordinator role but this process does not
    /// hold it (anymore).
    NotCoordinator,
    /// A stable-storage operation failed.
    Storage(String),
    /// A consensus instance was requested that acceptors already trimmed.
    Trimmed {
        /// The ring whose log was trimmed.
        ring: crate::ids::RingId,
        /// The requested instance.
        requested: crate::ids::InstanceId,
        /// Instances up to and including this one are gone.
        trimmed_up_to: crate::ids::InstanceId,
    },
    /// The request timed out waiting for a quorum or a reply.
    Timeout(&'static str),
    /// Configuration is invalid (empty ring, no acceptors, ...).
    Config(String),
    /// An I/O error from the live runtime.
    Io(std::io::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Wire(e) => write!(f, "wire format error: {e}"),
            Error::UnknownRing(r) => write!(f, "unknown ring {r}"),
            Error::UnknownNode(n) => write!(f, "unknown node {n}"),
            Error::NotCoordinator => write!(f, "this process is not the coordinator"),
            Error::Storage(s) => write!(f, "stable storage error: {s}"),
            Error::Trimmed {
                ring,
                requested,
                trimmed_up_to,
            } => write!(
                f,
                "instance {requested} of {ring} was trimmed (log starts after {trimmed_up_to})"
            ),
            Error::Timeout(what) => write!(f, "timed out waiting for {what}"),
            Error::Config(s) => write!(f, "invalid configuration: {s}"),
            Error::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Wire(e) => Some(e),
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for Error {
    fn from(e: WireError) -> Self {
        Error::Wire(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

/// A malformed frame encountered while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The buffer ended before the value was complete.
    Truncated {
        /// What was being decoded.
        context: &'static str,
    },
    /// An enum discriminant byte had no corresponding variant.
    BadTag {
        /// What was being decoded.
        context: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A varint ran past 10 bytes, or past the width of the integer it
    /// decodes into.
    VarintOverflow,
    /// A declared length exceeds the sanity limit.
    LengthTooLarge {
        /// The declared length.
        len: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { context } => write!(f, "truncated input decoding {context}"),
            WireError::BadTag { context, tag } => {
                write!(f, "invalid tag {tag} decoding {context}")
            }
            WireError::VarintOverflow => write!(f, "varint exceeds its integer width"),
            WireError::LengthTooLarge { len } => write!(f, "declared length {len} too large"),
        }
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{InstanceId, RingId};

    #[test]
    fn errors_display_meaningfully() {
        let e = Error::Trimmed {
            ring: RingId::new(1),
            requested: InstanceId::new(5),
            trimmed_up_to: InstanceId::new(10),
        };
        let s = e.to_string();
        assert!(s.contains("i5"));
        assert!(s.contains("r1"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
        assert_send_sync::<WireError>();
    }

    #[test]
    fn wire_error_converts() {
        let e: Error = WireError::VarintOverflow.into();
        assert!(matches!(e, Error::Wire(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
