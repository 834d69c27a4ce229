//! Errors of the networked transport.

use rjoin_core::EngineError;
use rjoin_dht::Id;
use serde::bin::BinError;
use std::error::Error as StdError;
use std::fmt;
use std::io;

/// Everything that can go wrong between two RJoin processes.
///
/// Frame-level problems ([`Truncated`](TransportError::Truncated),
/// [`TooLarge`](TransportError::TooLarge),
/// [`Malformed`](TransportError::Malformed)) are distinguished from
/// connection-level ones ([`Connect`](TransportError::Connect),
/// [`Io`](TransportError::Io)) so failure-path tests — and operators — can
/// tell a peer that died mid-frame from one that was never reachable.
#[derive(Debug)]
pub enum TransportError {
    /// An established connection failed while reading or writing.
    Io(io::Error),
    /// A peer could not be connected to (e.g. connection refused).
    Connect {
        /// The address that was dialled.
        addr: String,
        /// The underlying socket error.
        source: io::Error,
    },
    /// The stream ended in the middle of a frame: the peer hung up after
    /// promising (or while sending) more bytes.
    Truncated {
        /// Bytes the frame still owed.
        expected: usize,
        /// Bytes actually received.
        got: usize,
    },
    /// A frame announced a length above the sanity limit.
    TooLarge {
        /// The announced payload length.
        len: usize,
    },
    /// A complete frame arrived but its payload was not a valid message
    /// (the codec's own error says why).
    Malformed(BinError),
    /// No address is known for the peer (it is in neither the ring view nor
    /// the client list).
    UnknownPeer {
        /// The unresolvable identifier.
        id: Id,
    },
    /// A blocking cluster operation (settle, drain) did not finish in time.
    Timeout {
        /// What was being waited for.
        what: String,
    },
    /// An engine-level error surfaced through the service API.
    Engine(EngineError),
    /// An internal channel or worker thread went away.
    Disconnected,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "connection i/o error: {e}"),
            TransportError::Connect { addr, source } => {
                write!(f, "failed to connect to {addr}: {source}")
            }
            TransportError::Truncated { expected, got } => {
                write!(f, "peer hung up mid-frame: expected {expected} more bytes, got {got}")
            }
            TransportError::TooLarge { len } => {
                write!(f, "frame length {len} exceeds the sanity limit")
            }
            TransportError::Malformed(e) => write!(f, "malformed frame payload: {e}"),
            TransportError::UnknownPeer { id } => write!(f, "no address known for peer {id}"),
            TransportError::Timeout { what } => write!(f, "timed out waiting for {what}"),
            TransportError::Engine(e) => write!(f, "engine error: {e}"),
            TransportError::Disconnected => write!(f, "internal worker or channel disconnected"),
        }
    }
}

impl StdError for TransportError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            TransportError::Io(e) => Some(e),
            TransportError::Connect { source, .. } => Some(source),
            TransportError::Malformed(e) => Some(e),
            TransportError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TransportError {
    fn from(e: io::Error) -> Self {
        TransportError::Io(e)
    }
}

impl From<EngineError> for TransportError {
    fn from(e: EngineError) -> Self {
        TransportError::Engine(e)
    }
}
