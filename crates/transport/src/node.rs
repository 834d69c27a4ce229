//! A node process: one node's [`NodeState`](rjoin_core::NodeState) and
//! dispatch pipeline behind a TCP listener.
//!
//! Threads in one process for tests (spawn many [`NodeProcess`]es on
//! loopback), or one per OS process for real deployments (the
//! `rjoin_node` binary wraps [`NodeProcess::spawn`] around a bootstrap
//! [`ServiceMessage::Configure`] frame).
//!
//! The structure mirrors the engine's drivers: per-connection reader
//! threads decode frames ([`FrameReader`]: every complete frame of a `read`
//! before the next one) and feed one mpsc inbox; a single worker thread
//! owns the [`NodeState`](rjoin_core::NodeState) and runs the *same*
//! node-local and effect phases the simulated engine runs
//! ([`handle_node_msg`] + [`perform_actions_in`]), so
//! the algorithm cannot drift between modes. The serial inbox gives each
//! node a total arrival order — which is all the exactly-once machinery
//! needs; no cross-node order is assumed anywhere.
//!
//! The worker's sends are buffered per peer and flushed when the inbox runs
//! empty, before the worker blocks on it (and before it exits), so a burst
//! of inbound messages turns into one write per peer — see
//! [`peers`](crate::peers) for the rule.

use crate::clock::ServiceClock;
use crate::error::TransportError;
use crate::frame::FrameReader;
use crate::net::{NetEnv, ServiceNet};
use crate::view::{ClusterView, Member};
use crate::wire::{ServiceMessage, StateTransfer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rjoin_core::pipeline::{
    handle_node_msg, perform_actions_in, standalone_node_state, TickEffect,
};
use rjoin_core::split::SplitMap;
use rjoin_core::{DrainedState, EngineConfig, RJoinMessage};
use rjoin_dht::Id;
use rjoin_relation::Catalog;
use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Observable counters of a node process, shared with the spawner so tests
/// and operators can see what the wire did.
#[derive(Debug, Default)]
pub struct NodeStats {
    /// Counted messages processed (engine messages + state transfers).
    pub processed: AtomicU64,
    /// Inbound streams that ended mid-frame (peer hangup).
    pub truncated_frames: AtomicU64,
    /// Inbound frames that parsed to garbage.
    pub malformed_frames: AtomicU64,
    /// Effect-phase dispatch errors (e.g. an unreachable peer while
    /// re-indexing a rewritten query).
    pub dispatch_errors: AtomicU64,
}

/// Bootstrap parameters for a node spawned fully configured (the
/// in-process path). A node spawned without them waits for a
/// [`ServiceMessage::Configure`] frame before processing engine traffic.
#[derive(Debug, Clone)]
pub struct NodeBoot {
    /// Engine configuration (shared by every node of a deployment).
    pub config: EngineConfig,
    /// The schema catalog.
    pub catalog: Catalog,
    /// The initial membership view.
    pub view: ClusterView,
    /// Tick length of the node's wall clock.
    pub tick: Duration,
}

/// A running node process (listener + reader threads + worker thread).
#[derive(Debug)]
pub struct NodeProcess {
    member: Member,
    stats: Arc<NodeStats>,
    worker: Option<JoinHandle<()>>,
    stopping: Arc<AtomicBool>,
}

impl NodeProcess {
    /// Spawns a node behind an already-bound listener. With `boot` the node
    /// is ready immediately; without, it stashes traffic until a
    /// `Configure` frame arrives (the `rjoin_node` binary's path).
    pub fn spawn(
        listener: TcpListener,
        label: &str,
        boot: Option<NodeBoot>,
    ) -> io::Result<NodeProcess> {
        let member = Member::new(label, listener.local_addr()?.to_string());
        let stats = Arc::new(NodeStats::default());
        let stopping = Arc::new(AtomicBool::new(false));
        let (tx, rx) = channel::<ServiceMessage>();

        spawn_acceptor(listener, tx, Arc::clone(&stats), Arc::clone(&stopping));

        let worker_member = member.clone();
        let worker_stats = Arc::clone(&stats);
        let worker_stopping = Arc::clone(&stopping);
        let worker = thread::Builder::new()
            .name(format!("rjoin-node-worker-{label}"))
            .spawn(move || work_loop(worker_member, boot, rx, worker_stats, worker_stopping))?;

        Ok(NodeProcess { member, stats, worker: Some(worker), stopping })
    }

    /// This node's identity and address.
    pub fn member(&self) -> &Member {
        &self.member
    }

    /// The node's observable counters.
    pub fn stats(&self) -> &Arc<NodeStats> {
        &self.stats
    }

    /// Waits for the worker to exit (after a `Shutdown` frame was
    /// delivered). Reader threads die with their connections.
    pub fn join(mut self) {
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for NodeProcess {
    fn drop(&mut self) {
        self.stopping.store(true, Ordering::Release);
        // Wake a blocked acceptor so its thread can observe the flag.
        let _ = TcpStream::connect(&self.member.addr);
    }
}

/// Accept loop: one reader thread per inbound connection.
fn spawn_acceptor(
    listener: TcpListener,
    tx: Sender<ServiceMessage>,
    stats: Arc<NodeStats>,
    stopping: Arc<AtomicBool>,
) {
    thread::spawn(move || {
        for conn in listener.incoming() {
            if stopping.load(Ordering::Acquire) {
                break;
            }
            let Ok(conn) = conn else { continue };
            let tx = tx.clone();
            let stats = Arc::clone(&stats);
            thread::spawn(move || read_connection(conn, tx, stats));
        }
    });
}

/// Drains one inbound connection into the worker inbox, classifying how
/// the stream ends.
fn read_connection(mut conn: TcpStream, tx: Sender<ServiceMessage>, stats: Arc<NodeStats>) {
    let _ = conn.set_nodelay(true);
    let mut frames = FrameReader::new();
    loop {
        match frames.next_frame::<_, ServiceMessage>(&mut conn) {
            Ok(Some(msg)) => {
                if tx.send(msg).is_err() {
                    return; // worker gone: shutdown
                }
            }
            Ok(None) => return, // clean hangup on a frame boundary
            Err(TransportError::Truncated { .. }) => {
                stats.truncated_frames.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Err(TransportError::Malformed(_) | TransportError::TooLarge { .. }) => {
                stats.malformed_frames.fetch_add(1, Ordering::Relaxed);
                return; // resynchronizing inside a byte stream is hopeless
            }
            Err(_) => return,
        }
    }
}

/// The configured half of a worker: everything that needs `Configure`.
struct NodeRuntime {
    config: EngineConfig,
    catalog: Catalog,
    state: rjoin_core::NodeState,
    net: ServiceNet,
    rng: StdRng,
    splits: SplitMap,
    /// Counted sends beyond the transport's own (Absorb transfers).
    extra_sent: u64,
}

impl NodeRuntime {
    fn new(id: Id, boot: NodeBoot) -> Self {
        let clock = Arc::new(ServiceClock::new(boot.tick));
        let net = ServiceNet::new(id, boot.view, clock, boot.config.network_delay.max(1));
        let rng = StdRng::seed_from_u64(boot.config.seed ^ id.0);
        NodeRuntime {
            state: standalone_node_state(id, &boot.config),
            catalog: boot.catalog,
            rng,
            splits: SplitMap::new(),
            extra_sent: 0,
            net,
            config: boot.config,
        }
    }

    /// Total counted sends (engine messages + state transfers).
    fn sent(&self) -> u64 {
        self.net.sent + self.extra_sent
    }

    /// Writes the buffered frames out; a peer that hung up is a dispatch
    /// error, as it would have been at send time.
    fn flush(&mut self, stats: &NodeStats) {
        if self.net.flush().is_err() {
            stats.dispatch_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Splits drained buckets by current owner and ships each share as an
    /// `Absorb`. Returns the number of re-homed items.
    fn ship_drained(&mut self, drained: DrainedState, stats: &NodeStats) -> u64 {
        let moved = drained.len() as u64;
        let mut per_owner: HashMap<Id, DrainedState> = HashMap::new();
        for sq in drained.queries {
            if let Ok(owner) = self.net.view.successor_of(sq.key.id()) {
                per_owner.entry(owner).or_default().queries.push(sq);
            }
        }
        for (ring, bucket) in drained.tuples {
            if let Ok(owner) = self.net.view.successor_of(Id(ring)) {
                per_owner.entry(owner).or_default().tuples.push((ring, bucket));
            }
        }
        for (ring, bucket) in drained.altt {
            if let Ok(owner) = self.net.view.successor_of(Id(ring)) {
                per_owner.entry(owner).or_default().altt.push((ring, bucket));
            }
        }
        for (owner, share) in per_owner {
            let transfer = StateTransfer::from_drained(share);
            let msg = ServiceMessage::Absorb { transfer };
            match self.net.send_control(owner, &msg) {
                Ok(()) => self.extra_sent += 1,
                Err(_) => {
                    stats.dispatch_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        moved
    }
}

/// The worker loop: total arrival order per node, exactly like the
/// engine's per-node delivery groups.
fn work_loop(
    member: Member,
    boot: Option<NodeBoot>,
    rx: Receiver<ServiceMessage>,
    stats: Arc<NodeStats>,
    stopping: Arc<AtomicBool>,
) {
    let id = member.id;
    let mut runtime = boot.map(|b| NodeRuntime::new(id, b));
    let mut stash: Vec<ServiceMessage> = Vec::new();

    loop {
        let msg = match rx.try_recv() {
            Ok(msg) => msg,
            Err(TryRecvError::Disconnected) => break,
            Err(TryRecvError::Empty) => {
                // Nothing left to coalesce with: everything this turn
                // queued goes out before the worker sleeps.
                if let Some(rt) = runtime.as_mut() {
                    rt.flush(&stats);
                }
                match rx.recv() {
                    Ok(msg) => msg,
                    Err(_) => break,
                }
            }
        };
        match msg {
            ServiceMessage::Configure { config, catalog, mut view } => {
                view.normalize();
                let tick = ServiceClock::DEFAULT_TICK;
                runtime = Some(NodeRuntime::new(id, NodeBoot { config, catalog, view, tick }));
                let rt = runtime.as_mut().expect("just configured");
                for stashed in std::mem::take(&mut stash) {
                    handle_configured(rt, id, stashed, &stats);
                }
            }
            ServiceMessage::Shutdown => break,
            other => match runtime.as_mut() {
                Some(rt) => {
                    if handle_configured(rt, id, other, &stats) {
                        break;
                    }
                }
                None => stash.push(other),
            },
        }
    }
    if let Some(rt) = runtime.as_mut() {
        rt.flush(&stats);
    }
    stopping.store(true, Ordering::Release);
    // Wake the acceptor out of its blocking accept.
    let _ = TcpStream::connect(&member.addr);
}

/// Handles one frame on a configured node. Returns `true` on shutdown.
fn handle_configured(rt: &mut NodeRuntime, id: Id, msg: ServiceMessage, stats: &NodeStats) -> bool {
    match msg {
        ServiceMessage::Engine { at, msg } => {
            rt.net.clock.observe(at);
            stats.processed.fetch_add(1, Ordering::Relaxed);
            if matches!(msg, RJoinMessage::Answer { .. }) {
                // Answers are addressed to query owners (clients); one
                // reaching a ring node is a routing bug upstream, not a
                // reason to crash the node.
                stats.dispatch_errors.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            let t = rt.net.clock.now();
            let effect = handle_node_msg(&mut rt.state, &rt.catalog, &rt.config, t, t, id, msg);
            if let TickEffect::Node { actions, .. } = effect {
                let mut env = NetEnv {
                    net: &mut rt.net,
                    rng: &mut rt.rng,
                    splits: &rt.splits,
                    state: Some(&mut rt.state),
                };
                if perform_actions_in(&mut env, &rt.config, &rt.catalog, id, actions).is_err() {
                    stats.dispatch_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        ServiceMessage::Absorb { transfer } => {
            stats.processed.fetch_add(1, Ordering::Relaxed);
            rt.state.absorb(transfer.into_drained(), rt.config.share_subjoins);
        }
        ServiceMessage::View { mut view } => {
            view.normalize();
            rt.net.view = view;
        }
        ServiceMessage::Rehome => {
            let view = rt.net.view.clone();
            let drained = rt.state.drain_misplaced(|ring| {
                // Keep a bucket on resolution failure rather than lose it.
                view.successor_of(Id(ring)).map(|owner| owner == id).unwrap_or(true)
            });
            if !drained.is_empty() {
                rt.ship_drained(drained, stats);
            }
        }
        ServiceMessage::Drain { reply_to } => {
            let drained = rt.state.drain_misplaced(|_| false);
            let moved = rt.ship_drained(drained, stats);
            if rt.net.send_control(reply_to, &ServiceMessage::DrainDone { moved }).is_err() {
                stats.dispatch_errors.fetch_add(1, Ordering::Relaxed);
            }
            // Do not hold the leaver's state behind whatever else is queued.
            rt.flush(stats);
        }
        ServiceMessage::Ping { token, reply_to } => {
            let pong = ServiceMessage::Pong {
                token,
                sent: rt.sent(),
                processed: stats.processed.load(Ordering::Relaxed),
            };
            if rt.net.send_control(reply_to, &pong).is_err() {
                stats.dispatch_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        ServiceMessage::Shutdown => return true,
        ServiceMessage::Configure { .. }
        | ServiceMessage::Pong { .. }
        | ServiceMessage::DrainDone { .. } => {}
    }
    false
}
