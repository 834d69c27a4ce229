//! Transport failure paths: what the wire does when peers are unreachable,
//! hang up mid-frame, or send garbage — and the one failure that must
//! *not* happen: losing answers across a graceful leave.

use rjoin_core::{traffic_class, EngineConfig, EngineError, RJoinMessage};
use rjoin_dht::{DhtError, Id};
use rjoin_net::Transport;
use rjoin_query::{parse_query, QueryError};
use rjoin_relation::{Catalog, Schema, Tuple, Value};
use rjoin_transport::{
    Cluster, ClusterConfig, ClusterView, Member, NodeProcess, ServiceClock, ServiceNet,
    TransportError,
};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn test_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog.register(Schema::new("r", ["a", "b"]).expect("schema")).expect("register");
    catalog.register(Schema::new("s", ["b", "c"]).expect("schema")).expect("register");
    catalog
}

fn sample_message() -> RJoinMessage {
    let tuple = Arc::new(Tuple::new("r", vec![Value::from("x"), Value::from("y")], 1));
    let key = rjoin_query::IndexKey::attribute("r", "a");
    RJoinMessage::NewTuple {
        tuple,
        key: key.hashed(),
        level: key.level(),
        publisher: Id::hash_key("test-publisher"),
    }
}

/// Polls an atomic counter until it reaches `want` (reader threads race the
/// assertion) or a generous deadline passes.
fn wait_for(counter: &std::sync::atomic::AtomicU64, want: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let got = counter.load(Ordering::Relaxed);
        if got >= want || Instant::now() >= deadline {
            return got;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A routed send to an owner nobody listens for fails with the routing
/// layer's error — and the transport keeps the connection-level detail.
#[test]
fn dispatch_to_an_unreachable_owner_is_a_routing_error() {
    // Bind, note the address, drop the listener: connection refused.
    let vacant = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr").to_string()
    };
    let view =
        ClusterView::new(vec![Member { id: Id(42), label: "dead".into(), addr: vacant }], vec![]);
    let clock = Arc::new(ServiceClock::default());
    let mut net = ServiceNet::new(Id::hash_key("client"), view, clock, 1);

    let err = net
        .send(net.self_id, Id(40), sample_message(), traffic_class::TUPLE)
        .expect_err("nobody is listening");
    assert_eq!(err, DhtError::UnknownNode { id: Id(42) });
    match net.last_error {
        Some(TransportError::Connect { ref addr, .. }) => {
            assert!(addr.contains("127.0.0.1"), "kept the dialled address: {addr}")
        }
        ref other => panic!("expected the Connect detail, got {other:?}"),
    }
    assert_eq!(net.sent, 0, "a failed send must not count toward quiescence");
}

/// A peer that hangs up mid-frame is classified as truncation, counted,
/// and never crashes the node.
#[test]
fn peer_hangup_mid_frame_counts_as_truncated() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let node = NodeProcess::spawn(listener, "truncation-target", None).expect("spawn");

    let mut conn = TcpStream::connect(addr).expect("connect");
    // A frame header promising 100 bytes, followed by only 4 — then hangup.
    conn.write_all(&100u32.to_le_bytes()).expect("prefix");
    conn.write_all(b"some").expect("partial payload");
    drop(conn);

    assert_eq!(wait_for(&node.stats().truncated_frames, 1), 1);
    assert_eq!(node.stats().malformed_frames.load(Ordering::Relaxed), 0);
}

/// A complete frame whose payload is garbage is classified as malformed;
/// the stream is dropped (resynchronizing inside a byte stream is
/// hopeless) but the node lives on and serves new connections.
#[test]
fn garbage_frames_count_as_malformed_and_the_node_survives() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let node = NodeProcess::spawn(listener, "garbage-target", None).expect("spawn");

    let payload = b"!!not json!!";
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(&(payload.len() as u32).to_le_bytes()).expect("prefix");
    conn.write_all(payload).expect("payload");
    assert_eq!(wait_for(&node.stats().malformed_frames, 1), 1);

    // The node still accepts connections after dropping the bad stream.
    let mut again = TcpStream::connect(addr).expect("reconnect");
    again.write_all(&1u32.to_le_bytes()).expect("prefix");
    again.write_all(b"x").expect("payload");
    assert_eq!(wait_for(&node.stats().malformed_frames, 2), 2);
    assert_eq!(node.stats().truncated_frames.load(Ordering::Relaxed), 0);
}

/// Graceful leave must not lose answers: state stored before the leave
/// (a standing query and window tuples) is drained to the surviving
/// owners, and tuples published *after* the leave still join against it.
#[test]
fn graceful_leave_drains_state_without_losing_answers() {
    let config = EngineConfig::default();
    let mut cluster =
        Cluster::launch(config, test_catalog(), 4, ClusterConfig::default()).expect("launch");
    let query = parse_query("SELECT r.a, s.c FROM r, s WHERE r.b = s.b").expect("parse");
    let qid = cluster.submit_query(query).expect("submit");
    cluster.settle().expect("settle after submit");

    // Store r-tuples, then shrink the ring node by node down to one: every
    // leave re-homes the leaver's whole state (standing queries included).
    for (i, b) in ["k0", "k1", "k2", "k3"].iter().enumerate() {
        let t =
            Tuple::new("r", vec![Value::from(format!("row{i}")), Value::from(*b)], 1 + i as u64);
        cluster.publish_tuple(t).expect("publish r");
    }
    cluster.settle().expect("settle after r wave");

    let mut total_moved = 0;
    while cluster.node_ids().len() > 1 {
        let leaver = *cluster.node_ids().last().expect("non-empty ring");
        total_moved += cluster.leave_node(leaver).expect("graceful leave");
    }
    assert!(total_moved > 0, "shrinking to one node must re-home stored state");

    // Matching s-tuples published after the churn: every pre-leave r-tuple
    // must still be found by the survivor.
    for (i, b) in ["k0", "k1", "k2", "k3"].iter().enumerate() {
        let t = Tuple::new("s", vec![Value::from(*b), Value::from(format!("c{i}"))], 10 + i as u64);
        cluster.publish_tuple(t).expect("publish s");
    }
    cluster.settle().expect("settle after s wave");

    let mut rows = cluster.rows_for(qid);
    rows.sort();
    let expected: Vec<Vec<Value>> = (0..4)
        .map(|i| vec![Value::from(format!("row{i}")), Value::from(format!("c{i}"))])
        .collect();
    assert_eq!(rows, expected, "answers lost or duplicated across graceful leaves");
    cluster.shutdown();
}

/// The cluster client plans on the rewrite pipeline only, so a cyclic query
/// is refused with `CyclicShape` before anything is sent — and the refusal
/// leaves the cluster serving the acyclic query submitted after it.
#[test]
fn cyclic_query_is_rejected_and_the_cluster_keeps_answering() {
    let mut catalog = test_catalog();
    catalog.register(Schema::new("t", ["c", "a"]).expect("schema")).expect("register");
    let mut cluster =
        Cluster::launch(EngineConfig::default(), catalog, 2, ClusterConfig::default())
            .expect("launch");
    let triangle =
        parse_query("SELECT r.a FROM r, s, t WHERE r.b = s.b AND s.c = t.c AND t.a = r.a")
            .expect("parse");
    match cluster.submit_query(triangle) {
        Err(TransportError::Engine(EngineError::Query(QueryError::CyclicShape))) => {}
        other => panic!("expected CyclicShape, got {other:?}"),
    }
    assert!(cluster.query_ids().is_empty(), "a refused query gets no id");

    let chain = parse_query("SELECT r.a, s.c FROM r, s WHERE r.b = s.b").expect("parse");
    let qid = cluster.submit_query(chain).expect("submit");
    cluster.settle().expect("settle after submit");
    cluster.publish_tuple(Tuple::new("r", vec![Value::from("x"), Value::from("k")], 1)).expect("r");
    cluster.publish_tuple(Tuple::new("s", vec![Value::from("k"), Value::from("y")], 2)).expect("s");
    cluster.settle().expect("settle after tuples");
    assert_eq!(cluster.rows_for(qid), vec![vec![Value::from("x"), Value::from("y")]]);
    cluster.shutdown();
}

/// Graceful join re-homes buckets to the newcomer and the pipeline keeps
/// producing the right answers afterwards.
#[test]
fn graceful_join_rehomes_and_keeps_answering() {
    let config = EngineConfig::default();
    let mut cluster =
        Cluster::launch(config, test_catalog(), 2, ClusterConfig::default()).expect("launch");
    let query = parse_query("SELECT r.a, s.c FROM r, s WHERE r.b = s.b").expect("parse");
    let qid = cluster.submit_query(query).expect("submit");
    cluster.settle().expect("settle after submit");

    for i in 0..6u64 {
        let t = Tuple::new(
            "r",
            vec![Value::from(format!("row{i}")), Value::from(format!("k{i}"))],
            1 + i,
        );
        cluster.publish_tuple(t).expect("publish r");
    }
    cluster.settle().expect("settle after r wave");

    for _ in 0..3 {
        cluster.join_node().expect("graceful join");
    }
    assert_eq!(cluster.node_ids().len(), 5);

    for i in 0..6u64 {
        let t = Tuple::new(
            "s",
            vec![Value::from(format!("k{i}")), Value::from(format!("c{i}"))],
            20 + i,
        );
        cluster.publish_tuple(t).expect("publish s");
    }
    cluster.settle().expect("settle after s wave");

    let mut rows = cluster.rows_for(qid);
    rows.sort();
    let expected: Vec<Vec<Value>> = (0..6)
        .map(|i| vec![Value::from(format!("row{i}")), Value::from(format!("c{i}"))])
        .collect();
    assert_eq!(rows, expected, "answers lost or duplicated across graceful joins");
    cluster.shutdown();
}
