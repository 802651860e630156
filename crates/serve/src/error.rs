//! Error type of the serving layer.
//!
//! Mirrors the codec's `CodecError::Corrupt` convention: every variant
//! carries enough context to locate the failure (which session, at what
//! scheduler time) without a debugger — serving errors are operational
//! events, and the message is what lands in a fleet's logs.

use std::error::Error as StdError;
use std::fmt;
use vr_dann::VrDannError;

/// Errors produced by the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Driving one session's decode → engine loop failed.
    Session {
        /// Index of the session in the admitted set.
        session: usize,
        /// Sequence name of the session.
        name: String,
        /// The underlying pipeline failure.
        source: VrDannError,
    },
    /// An entry point refused its input before any work: a configuration
    /// it could not bill or generate (a degenerate cost model, stall or
    /// load) or an empty stream library.
    Refused {
        /// What was refused, and why.
        detail: String,
    },
    /// The shared-NPU event loop detected a broken invariant (an
    /// unserviceable queue state or a runaway replay).
    Scheduler {
        /// Scheduler clock when the invariant broke, in nanoseconds.
        time_ns: f64,
        /// What broke.
        detail: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Session {
                session,
                name,
                source,
            } => {
                write!(f, "session {session} ({name}) failed: {source}")
            }
            ServeError::Refused { detail } => write!(f, "refused: {detail}"),
            ServeError::Scheduler { time_ns, detail } => {
                write!(
                    f,
                    "scheduler invariant broken at t={time_ns:.0} ns: {detail}"
                )
            }
        }
    }
}

impl StdError for ServeError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            ServeError::Session { source, .. } => Some(source),
            ServeError::Refused { .. } | ServeError::Scheduler { .. } => None,
        }
    }
}

/// Serving-layer result.
pub type Result<T> = std::result::Result<T, ServeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_context() {
        let e = ServeError::Session {
            session: 3,
            name: "cows".into(),
            source: VrDannError::BadInput("frame 7 never segmented".into()),
        };
        let msg = e.to_string();
        assert!(msg.contains("session 3"));
        assert!(msg.contains("cows"));
        assert!(msg.contains("frame 7"));
        assert!(StdError::source(&e).is_some());

        let s = ServeError::Scheduler {
            time_ns: 1234.5,
            detail: "no servable front".into(),
        };
        assert!(s.to_string().contains("t=1234 ns") || s.to_string().contains("1235"));
        assert!(StdError::source(&s).is_none());

        let r = ServeError::Refused {
            detail: "invalid load: mean_interarrival_ns is NaN".into(),
        };
        let msg = r.to_string();
        assert!(msg.starts_with("refused: invalid load") && !msg.contains("invariant"));
        assert!(StdError::source(&r).is_none());
    }
}
