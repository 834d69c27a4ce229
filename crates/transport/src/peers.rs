//! Outbound connections, one per peer, each behind a byte buffer.
//!
//! # The flush rule
//!
//! [`PeerLinks::send_to`] does not write to the socket: it encodes the frame
//! onto the end of the peer's buffer (dialling first if there is no
//! connection yet, so an unreachable peer is still a synchronous error and a
//! frame is only ever accepted for a peer that answered). The buffer goes
//! out with one `write_all`
//!
//! * when its owner calls [`PeerLinks::flush`] — a node worker does so when
//!   its inbox is empty, *before* it blocks, and before it exits; the
//!   cluster client at the end of every `submit_query` / `publish_tuple` /
//!   control exchange — or
//! * as soon as it passes [`FLUSH_BYTES`], so a long turn cannot hoard.
//!
//! Coalescing is at the byte level only: frames stay one per message, and
//! because engine and control frames to one peer share the buffer, per-peer
//! FIFO holds across both. A buffered frame counts as *sent, not yet
//! processed*, which keeps the settle barrier unbalanced until it lands.

use crate::error::TransportError;
use crate::frame::encode_frame;
use crate::view::ClusterView;
use crate::wire::ServiceMessage;
use rjoin_dht::Id;
use std::collections::hash_map::{Entry, HashMap};
use std::io::Write;
use std::net::TcpStream;

/// A buffer that has grown past this is written out by the `send_to` that
/// grew it (64 KiB: a few hundred frames, one loopback segment).
pub const FLUSH_BYTES: usize = 64 << 10;

#[derive(Debug)]
struct Link {
    conn: TcpStream,
    /// Encoded frames not yet written to `conn`.
    pending: Vec<u8>,
}

impl Link {
    fn flush(&mut self) -> Result<(), TransportError> {
        if !self.pending.is_empty() {
            self.conn.write_all(&self.pending)?;
            self.pending.clear();
        }
        Ok(())
    }
}

/// One TCP connection per peer, dialled on first use. A write failure
/// drops the connection together with the bytes buffered for it — they were
/// in flight to a peer that hung up (at-most-once) — and the next send
/// dials afresh, so a restarted peer picks up from there while a dead one
/// surfaces as [`TransportError::Connect`].
#[derive(Debug, Default)]
pub struct PeerLinks {
    links: HashMap<Id, Link>,
}

impl PeerLinks {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues one frame for `id`, connecting (at the address `view` lists)
    /// if no connection is cached.
    pub fn send_to(
        &mut self,
        id: Id,
        view: &ClusterView,
        msg: &ServiceMessage,
    ) -> Result<(), TransportError> {
        let link = match self.links.entry(id) {
            Entry::Occupied(cached) => cached.into_mut(),
            Entry::Vacant(slot) => {
                let addr = view.addr_of(id).ok_or(TransportError::UnknownPeer { id })?;
                let conn = TcpStream::connect(addr)
                    .map_err(|source| TransportError::Connect { addr: addr.to_string(), source })?;
                let _ = conn.set_nodelay(true);
                slot.insert(Link { conn, pending: Vec::new() })
            }
        };
        encode_frame(&mut link.pending, msg)?;
        if link.pending.len() >= FLUSH_BYTES {
            if let Err(e) = link.flush() {
                self.links.remove(&id);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Writes out every non-empty buffer. All peers are attempted; the
    /// first failure is returned.
    pub fn flush(&mut self) -> Result<(), TransportError> {
        let mut first_error = Ok(());
        self.links.retain(|_, link| match link.flush() {
            Ok(()) => true,
            Err(e) => {
                if first_error.is_ok() {
                    first_error = Err(e);
                }
                false
            }
        });
        first_error
    }

    /// Drops the connection to `id`, if any, with whatever is buffered.
    pub fn disconnect(&mut self, id: Id) {
        self.links.remove(&id);
    }
}
