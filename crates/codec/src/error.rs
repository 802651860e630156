//! Error types for the codec crate.

use std::error::Error as StdError;
use std::fmt;

/// Errors produced while encoding or decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The encoder configuration is inconsistent (message explains why).
    InvalidConfig(String),
    /// Input frame dimensions are unusable for the configured macro-block
    /// size, or frames in a sequence disagree in size.
    BadDimensions(String),
    /// The bitstream is truncated or structurally malformed.
    Bitstream(String),
    /// A specific frame's header or payload is truncated or malformed.
    /// Every failure past the stream header surfaces as this variant, so
    /// callers can tell which frame broke.
    Corrupt {
        /// Decode-order index of the damaged frame.
        frame: u32,
        /// What went wrong inside the frame payload.
        detail: String,
    },
}

impl CodecError {
    /// Attributes a bitstream failure to the frame (decode order) whose
    /// bytes were being parsed; other variants pass through.
    pub(crate) fn in_frame(self, frame: u32) -> Self {
        match self {
            CodecError::Bitstream(detail) => CodecError::Corrupt { frame, detail },
            other => other,
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::InvalidConfig(msg) => write!(f, "invalid codec configuration: {msg}"),
            CodecError::BadDimensions(msg) => write!(f, "bad frame dimensions: {msg}"),
            CodecError::Bitstream(msg) => write!(f, "malformed bitstream: {msg}"),
            CodecError::Corrupt { frame, detail } => {
                write!(f, "corrupt frame {frame}: {detail}")
            }
        }
    }
}

impl StdError for CodecError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, CodecError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = CodecError::InvalidConfig("gop too short".into());
        assert_eq!(e.to_string(), "invalid codec configuration: gop too short");
        let e = CodecError::Bitstream("truncated at byte 12".into());
        assert!(e.to_string().contains("truncated"));
        let e = CodecError::Corrupt {
            frame: 7,
            detail: "mode byte 0xff".into(),
        };
        assert_eq!(e.to_string(), "corrupt frame 7: mode byte 0xff");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<CodecError>();
    }
}
