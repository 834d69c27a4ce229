//! The service-facing cluster handle: a client process that launches node
//! processes over loopback TCP, dispatches queries and tuples through the
//! same pipeline the simulated engine uses, and collects answers.
//!
//! The handle plays the role the `RJoinEngine` driver plays for the
//! simulated transport: it owns the query-id sequence, validates
//! submissions against the catalog, and runs client-side dispatch
//! (Procedure 1 for tuples, the placement pipeline for queries) — but
//! every effect goes out as a TCP frame instead of a virtual-queue push.
//!
//! # Quiescence
//!
//! The simulator's `run_until_quiet` becomes [`Cluster::settle`]: a
//! conservation barrier over counted messages. Each node reports, via
//! `Ping`/`Pong`, how many counted frames it has sent and processed; the
//! network is quiescent exactly when
//!
//! ```text
//! client_sent + Σ node_sent == Σ node_processed + client_received
//! ```
//!
//! and the totals are *stable across two consecutive probe rounds* (a
//! single balanced round can race a frame that is buffered in a socket
//! but not yet counted on either side). A frame still sitting in a sender's
//! outbound buffer is already in its `sent`, so it unbalances the equation
//! until it has been flushed, read and processed. Rounds are spaced by a
//! bounded exponential back-off; the two-identical-rounds rule, not the
//! pause, is what makes the barrier sound.
//!
//! The client flushes its own outbound buffers at the end of every
//! `submit_query`, `publish_tuple` and control send, so nothing it was asked
//! to send waits on a later call.
//!
//! # Scope
//!
//! Networked mode is pipeline-only: cyclic query shapes (which the
//! simulated engine places on a hypercube) and hot-key splitting (a
//! quiescent-point whole-network optimization) are rejected/disabled.

use crate::clock::ServiceClock;
use crate::error::TransportError;
use crate::frame::FrameReader;
use crate::net::ServiceNet;
use crate::node::{NodeBoot, NodeProcess, NodeStats};
use crate::view::{ClusterView, Member};
use crate::wire::ServiceMessage;
use rjoin_core::pipeline::{dispatch_query_in, DispatchEnv};
use rjoin_core::{
    traffic_class, AnswerLog, AnswerRecord, EngineConfig, EngineError, NodeId, PendingQuery,
    QueryId, RJoinMessage,
};
use rjoin_dht::Id;
use rjoin_net::{child_lineage, Transport};
use rjoin_query::plan::{self, QueryShape};
use rjoin_query::{tuple_index_keys, JoinQuery, QueryError};
use rjoin_relation::{Catalog, Tuple, Value};
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Deployment parameters of a [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Tick length of every process clock.
    pub tick: Duration,
    /// How long [`Cluster::settle`] waits for the conservation equation to
    /// balance before giving up.
    pub settle_timeout: Duration,
    /// Label the client's ring identifier is hashed from.
    pub client_label: String,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            tick: ServiceClock::DEFAULT_TICK,
            settle_timeout: Duration::from_secs(30),
            client_label: "rjoin-client".to_string(),
        }
    }
}

/// What the client's reader threads collect.
#[derive(Debug, Default)]
struct ClientInbox {
    answers: AnswerLog,
    /// Counted frames received (the client side of the conservation
    /// equation).
    received: u64,
}

/// A running deployment: node processes over loopback TCP plus the client
/// endpoint submitting work and collecting answers.
pub struct Cluster {
    config: EngineConfig,
    catalog: Catalog,
    cluster_cfg: ClusterConfig,
    client_id: Id,
    net: ServiceNet,
    nodes: HashMap<Id, NodeProcess>,
    node_seq: usize,
    /// Tells the client's accept loop to exit (it holds the inbox alive).
    stopping: Arc<AtomicBool>,
    inbox: Arc<Mutex<ClientInbox>>,
    pong_rx: Receiver<(u64, u64, u64)>,
    drain_rx: Receiver<u64>,
    next_query_seq: u64,
    next_token: u64,
    qids: Vec<QueryId>,
    /// Final counters of nodes that have left (their `sent`/`processed`
    /// would otherwise vanish from the conservation sums).
    departed_sent: u64,
    departed_processed: u64,
}

impl Cluster {
    /// Launches `n` node processes on loopback TCP plus the client
    /// endpoint. Node labels are `rjoin-node-{i}` — the same labels the
    /// simulated bootstrap hashes, so key ownership matches a simulated
    /// run over `n` nodes exactly.
    pub fn launch(
        config: EngineConfig,
        catalog: Catalog,
        n: usize,
        cluster_cfg: ClusterConfig,
    ) -> Result<Cluster, TransportError> {
        assert!(n > 0, "a cluster needs at least one node");
        // Bind every listener before building the view, so the view ships
        // with final addresses and no node races its own registration.
        let mut listeners = Vec::with_capacity(n);
        let mut members = Vec::with_capacity(n);
        for i in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            let label = format!("rjoin-node-{i}");
            members.push(Member::new(&label, listener.local_addr()?.to_string()));
            listeners.push((listener, label));
        }
        let client_listener = TcpListener::bind("127.0.0.1:0")?;
        let client =
            Member::new(&cluster_cfg.client_label, client_listener.local_addr()?.to_string());
        let client_id = client.id;
        let view = ClusterView::new(members, vec![client]);

        let clock = Arc::new(ServiceClock::new(cluster_cfg.tick));
        let inbox = Arc::new(Mutex::new(ClientInbox::default()));
        let (pong_tx, pong_rx) = channel();
        let (drain_tx, drain_rx) = channel();
        let stopping = Arc::new(AtomicBool::new(false));
        spawn_client_acceptor(
            client_listener,
            Arc::clone(&inbox),
            Arc::clone(&clock),
            pong_tx,
            drain_tx,
            Arc::clone(&stopping),
        );

        let mut nodes = HashMap::new();
        for (listener, label) in listeners {
            let boot = NodeBoot {
                config: config.clone(),
                catalog: catalog.clone(),
                view: view.clone(),
                tick: cluster_cfg.tick,
            };
            let process = NodeProcess::spawn(listener, &label, Some(boot))?;
            nodes.insert(process.member().id, process);
        }

        let delay = config.network_delay.max(1);
        let net = ServiceNet::new(client_id, view, clock, delay);
        Ok(Cluster {
            config,
            catalog,
            cluster_cfg,
            client_id,
            net,
            nodes,
            node_seq: n,
            stopping,
            inbox,
            pong_rx,
            drain_rx,
            next_query_seq: 0,
            next_token: 0,
            qids: Vec::new(),
            departed_sent: 0,
            departed_processed: 0,
        })
    }

    /// The client's ring identifier (owner of every submitted query id).
    pub fn client_id(&self) -> Id {
        self.client_id
    }

    /// Identifiers of the live ring members.
    pub fn node_ids(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.nodes.keys().map(|&id| NodeId(id)).collect();
        ids.sort();
        ids
    }

    /// The observable counters of one node process.
    pub fn node_stats(&self, id: impl Into<NodeId>) -> Option<Arc<NodeStats>> {
        self.nodes.get(&id.into().id()).map(|p| Arc::clone(p.stats()))
    }

    /// Query ids in submission order (the replay harness compares per-query
    /// answer sets by this index, since simulated and networked runs have
    /// different owners).
    pub fn query_ids(&self) -> &[QueryId] {
        &self.qids
    }

    /// Submits a continuous query from the client: validated, planned on
    /// the rewrite pipeline, and indexed in the network through the same
    /// dispatch code path the simulated engine runs.
    ///
    /// Cyclic join graphs are rejected with [`QueryError::CyclicShape`]:
    /// hypercube placement is a simulator-only plan in this release.
    pub fn submit_query(&mut self, query: JoinQuery) -> Result<QueryId, TransportError> {
        query.validate(&self.catalog).map_err(EngineError::from)?;
        let graph = plan::JoinGraph::build(&query);
        if !graph.classes.is_empty() && graph.shape() == QueryShape::Cyclic {
            return Err(EngineError::Query(QueryError::CyclicShape).into());
        }
        let id = QueryId { owner: self.client_id, seq: self.next_query_seq };
        self.next_query_seq += 1;
        if query.distinct() {
            self.inbox.lock().expect("client inbox").answers.mark_distinct(id);
        }
        let pending = PendingQuery::input(id, self.client_id, self.net.clock.now(), query);
        // Placement draws from the client's lineage of this submission.
        let lineage = child_lineage(u128::from(self.client_id.0), id.seq);
        let mut env = DispatchEnv::new(&mut self.net, None, self.config.seed, lineage);
        let dispatched =
            dispatch_query_in(&mut env, &self.config, &self.catalog, self.client_id, pending, true);
        self.net.flush()?;
        dispatched?;
        self.qids.push(id);
        Ok(id)
    }

    /// Publishes a tuple from the client: validated and indexed under every
    /// attribute-level and value-level key (Procedure 1). The tuple's
    /// publication time is observed by the client clock, so replayed
    /// scenarios keep their recorded timeline.
    pub fn publish_tuple(&mut self, tuple: Tuple) -> Result<(), TransportError> {
        self.catalog.validate_tuple(&tuple).map_err(EngineError::from)?;
        self.net.clock.observe(tuple.pub_time());
        let schema = self.catalog.require_schema(tuple.relation()).map_err(EngineError::from)?;
        let keys: Vec<_> = tuple_index_keys(&tuple, schema)
            .into_iter()
            .map(|key| {
                let level = key.level();
                (key.hashed(), level)
            })
            .collect();
        let tuple = Arc::new(tuple);
        let sent = keys.into_iter().try_for_each(|(key, level)| {
            let ring_id = key.id();
            let msg = RJoinMessage::NewTuple {
                tuple: Arc::clone(&tuple),
                key,
                level,
                publisher: self.client_id,
            };
            self.net.send(self.client_id, ring_id, msg, traffic_class::TUPLE).map(drop)
        });
        self.net.flush()?;
        Ok(sent.map_err(EngineError::from)?)
    }

    /// Sends one control frame and flushes it.
    fn control(&mut self, to: Id, msg: &ServiceMessage) -> Result<(), TransportError> {
        self.net.send_control(to, msg)?;
        self.net.flush()
    }

    /// Blocks until the deployment is quiescent: every counted frame that
    /// was sent has been processed, stable across two probe rounds. The
    /// networked analogue of the simulator's `run_until_quiet`.
    pub fn settle(&mut self) -> Result<(), TransportError> {
        let deadline = Instant::now() + self.cluster_cfg.settle_timeout;
        let mut prev: Option<(u64, u64)> = None;
        let mut pause = Duration::from_micros(100);
        loop {
            let (sent, processed) = self.probe(deadline)?;
            if sent == processed && prev == Some((sent, processed)) {
                return Ok(());
            }
            prev = Some((sent, processed));
            if Instant::now() >= deadline {
                return Err(TransportError::Timeout { what: "settle".to_string() });
            }
            thread::sleep(pause);
            pause = (pause * 2).min(Duration::from_millis(5));
        }
    }

    /// One probe round: pings every live node and totals the conservation
    /// counters.
    fn probe(&mut self, deadline: Instant) -> Result<(u64, u64), TransportError> {
        let token = self.next_token;
        self.next_token += 1;
        let ids: Vec<Id> = self.nodes.keys().copied().collect();
        for id in &ids {
            self.control(*id, &ServiceMessage::Ping { token, reply_to: self.client_id })?;
        }
        let mut sent = self.net.sent + self.departed_sent;
        let mut processed = self.departed_processed;
        let mut seen = 0usize;
        while seen < ids.len() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(TransportError::Timeout { what: "settle probe".to_string() });
            }
            match self.pong_rx.recv_timeout(left) {
                Ok((t, s, p)) if t == token => {
                    sent += s;
                    processed += p;
                    seen += 1;
                }
                Ok(_) => {} // stale pong from an earlier round
                Err(_) => return Err(TransportError::Timeout { what: "settle probe".to_string() }),
            }
        }
        processed += self.inbox.lock().expect("client inbox").received;
        Ok((sent, processed))
    }

    /// Adds a node to the deployment: settles, binds a listener, ships the
    /// new view to every member, and re-homes the buckets the new node now
    /// owns. Returns the new node's identifier.
    pub fn join_node(&mut self) -> Result<NodeId, TransportError> {
        self.settle()?;
        let label = format!("rjoin-node-{}", self.node_seq);
        self.node_seq += 1;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let member = Member::new(&label, listener.local_addr()?.to_string());
        let id = member.id;
        let mut view = self.net.view.clone();
        view.add_member(member);

        let boot = NodeBoot {
            config: self.config.clone(),
            catalog: self.catalog.clone(),
            view: view.clone(),
            tick: self.cluster_cfg.tick,
        };
        let process = NodeProcess::spawn(listener, &label, Some(boot))?;
        let old_ids: Vec<Id> = self.nodes.keys().copied().collect();
        self.nodes.insert(id, process);
        self.net.view = view.clone();
        for old in old_ids {
            self.control(old, &ServiceMessage::View { view: view.clone() })?;
            self.control(old, &ServiceMessage::Rehome)?;
        }
        self.settle()?;
        Ok(NodeId(id))
    }

    /// Gracefully removes a node: settles, ships the shrunk view to every
    /// member (including the leaver), has the leaver drain its entire state
    /// to the new owners, collects its final counters, and shuts it down.
    /// Returns the number of re-homed items. Answers must survive: the
    /// record/replay harness asserts set equality across leaves.
    pub fn leave_node(&mut self, id: impl Into<NodeId>) -> Result<u64, TransportError> {
        let id = id.into().id();
        if !self.nodes.contains_key(&id) {
            return Err(TransportError::UnknownPeer { id });
        }
        if self.nodes.len() == 1 {
            return Err(EngineError::from(rjoin_dht::DhtError::EmptyRing).into());
        }
        self.settle()?;
        let mut view = self.net.view.clone();
        view.remove_member(id);
        // The leaver gets the shrunk view too (so its drain routes around
        // itself), but stays addressable through the client's old view
        // until the handshake finishes.
        let all_ids: Vec<Id> = self.nodes.keys().copied().collect();
        for node in all_ids {
            self.control(node, &ServiceMessage::View { view: view.clone() })?;
        }
        self.control(id, &ServiceMessage::Drain { reply_to: self.client_id })?;
        let deadline = Instant::now() + self.cluster_cfg.settle_timeout;
        let moved = self
            .drain_rx
            .recv_timeout(deadline.saturating_duration_since(Instant::now()))
            .map_err(|_| TransportError::Timeout { what: "drain".to_string() })?;

        // Final counters: the leaver's sent/processed leave the live sums,
        // so they move to the departed baseline.
        let token = self.next_token;
        self.next_token += 1;
        self.control(id, &ServiceMessage::Ping { token, reply_to: self.client_id })?;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(TransportError::Timeout { what: "leave".to_string() });
            }
            match self.pong_rx.recv_timeout(left) {
                Ok((t, s, p)) if t == token => {
                    self.departed_sent += s;
                    self.departed_processed += p;
                    break;
                }
                Ok(_) => {}
                Err(_) => return Err(TransportError::Timeout { what: "leave".to_string() }),
            }
        }
        self.control(id, &ServiceMessage::Shutdown)?;
        self.net.view = view;
        self.net.links.disconnect(id);
        if let Some(process) = self.nodes.remove(&id) {
            process.join();
        }
        // The drained state is in flight as `Absorb` transfers; wait for
        // the new owners to take it.
        self.settle()?;
        Ok(moved)
    }

    /// A snapshot of the answers collected so far.
    pub fn answers(&self) -> AnswerLog {
        self.inbox.lock().expect("client inbox").answers.clone()
    }

    /// The rows delivered for one query.
    pub fn rows_for(&self, query: QueryId) -> Vec<Vec<Value>> {
        self.inbox.lock().expect("client inbox").answers.rows_for(query)
    }

    /// Shuts every node down and waits for their workers to exit (what
    /// dropping the handle does).
    pub fn shutdown(self) {}
}

impl Drop for Cluster {
    fn drop(&mut self) {
        let ids: Vec<Id> = self.nodes.keys().copied().collect();
        for id in ids {
            let _ = self.control(id, &ServiceMessage::Shutdown);
        }
        for (_, process) in self.nodes.drain() {
            process.join();
        }
        self.stopping.store(true, Ordering::Release);
        // Wake the acceptor out of its blocking accept.
        if let Some(addr) = self.net.view.addr_of(self.client_id) {
            let _ = TcpStream::connect(addr);
        }
    }
}

/// The client's accept loop: one reader per inbound connection, feeding
/// the shared inbox and the pong/drain channels.
fn spawn_client_acceptor(
    listener: TcpListener,
    inbox: Arc<Mutex<ClientInbox>>,
    clock: Arc<ServiceClock>,
    pong_tx: Sender<(u64, u64, u64)>,
    drain_tx: Sender<u64>,
    stopping: Arc<AtomicBool>,
) {
    thread::spawn(move || {
        for conn in listener.incoming() {
            if stopping.load(Ordering::Acquire) {
                break;
            }
            let Ok(conn) = conn else { continue };
            let inbox = Arc::clone(&inbox);
            let clock = Arc::clone(&clock);
            let pong_tx = pong_tx.clone();
            let drain_tx = drain_tx.clone();
            thread::spawn(move || read_client_connection(conn, inbox, clock, pong_tx, drain_tx));
        }
    });
}

fn read_client_connection(
    mut conn: TcpStream,
    inbox: Arc<Mutex<ClientInbox>>,
    clock: Arc<ServiceClock>,
    pong_tx: Sender<(u64, u64, u64)>,
    drain_tx: Sender<u64>,
) {
    let _ = conn.set_nodelay(true);
    let mut frames = FrameReader::new();
    while let Ok(Some(msg)) = frames.next_frame::<_, ServiceMessage>(&mut conn) {
        match msg {
            ServiceMessage::Engine { at, msg } => {
                clock.observe(at);
                let mut inbox = inbox.lock().expect("client inbox");
                inbox.received += 1;
                if let RJoinMessage::Answer { query, row, produced_at } = msg {
                    let record = AnswerRecord { query, row, produced_at, received_at: clock.now() };
                    inbox.answers.record(record);
                }
            }
            ServiceMessage::Pong { token, sent, processed } => {
                let _ = pong_tx.send((token, sent, processed));
            }
            ServiceMessage::DrainDone { moved } => {
                let _ = drain_tx.send(moved);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjoin_relation::Schema;

    fn catalog() -> Catalog {
        let mut catalog = Catalog::new();
        catalog.register(Schema::new("r", ["a", "b"]).expect("schema")).expect("register");
        catalog.register(Schema::new("s", ["b", "c"]).expect("schema")).expect("register");
        catalog
    }

    #[test]
    fn a_two_way_join_produces_its_answer_over_loopback_tcp() {
        let config = EngineConfig::default();
        let mut cluster =
            Cluster::launch(config, catalog(), 4, ClusterConfig::default()).expect("launch");
        let query =
            rjoin_query::parse_query("SELECT r.a, s.c FROM r, s WHERE r.b = s.b").expect("parse");
        let qid = cluster.submit_query(query).expect("submit");
        cluster.settle().expect("settle after submit");

        let t1 = Tuple::new("r", vec![Value::from("x"), Value::from("k")], 1);
        let t2 = Tuple::new("s", vec![Value::from("k"), Value::from("y")], 2);
        cluster.publish_tuple(t1).expect("publish r");
        cluster.publish_tuple(t2).expect("publish s");
        cluster.settle().expect("settle after publish");

        let rows = cluster.rows_for(qid);
        assert_eq!(rows, vec![vec![Value::from("x"), Value::from("y")]]);
        cluster.shutdown();
    }
}
