//! Byte-level coalescing on live sockets: a reader handed several frames in
//! one segment delivers each of them, and a worker never takes buffered
//! frames with it when it leaves.

use rjoin_core::EngineConfig;
use rjoin_dht::Id;
use rjoin_relation::Catalog;
use rjoin_transport::frame::{encode_frame, FrameReader};
use rjoin_transport::{
    ClusterView, Member, NodeBoot, NodeProcess, ServiceClock, ServiceMessage, StateTransfer,
};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Polls an atomic counter until it reaches `want` (reader threads race the
/// assertion) or a generous deadline passes.
fn wait_for(counter: &AtomicU64, want: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let got = counter.load(Ordering::Relaxed);
        if got >= want || Instant::now() >= deadline {
            return got;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A configured single-node ring plus a listener standing in for the client.
fn node_and_client() -> (NodeProcess, TcpListener, Id) {
    let node_listener = TcpListener::bind("127.0.0.1:0").expect("bind node");
    let client_listener = TcpListener::bind("127.0.0.1:0").expect("bind client");
    let node = Member::new("solo", node_listener.local_addr().expect("addr").to_string());
    let client = Member::new("client", client_listener.local_addr().expect("addr").to_string());
    let client_id = client.id;
    let boot = NodeBoot {
        config: EngineConfig::default(),
        catalog: Catalog::new(),
        view: ClusterView::new(vec![node], vec![client]),
        tick: ServiceClock::DEFAULT_TICK,
    };
    let process = NodeProcess::spawn(node_listener, "solo", Some(boot)).expect("spawn");
    (process, client_listener, client_id)
}

fn encode_all(frames: &[ServiceMessage]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for frame in frames {
        encode_frame(&mut bytes, frame).expect("in-memory frame");
    }
    bytes
}

/// Three frames and half of a fourth arrive in one write; the peer then
/// hangs up. The node processes the three and counts one truncation.
#[test]
fn three_and_a_half_frames_in_one_segment_deliver_three_and_one_truncation() {
    let (node, _client, _) = node_and_client();
    let absorb = || ServiceMessage::Absorb { transfer: StateTransfer::default() };
    let mut bytes = encode_all(&[absorb(), absorb(), absorb()]);
    let fourth = encode_all(&[absorb()]);
    bytes.extend_from_slice(&fourth[..fourth.len() / 2]);

    let mut conn = TcpStream::connect(&node.member().addr).expect("connect");
    conn.write_all(&bytes).expect("one segment");
    drop(conn);

    assert_eq!(wait_for(&node.stats().truncated_frames, 1), 1);
    assert_eq!(wait_for(&node.stats().processed, 3), 3);
    assert_eq!(node.stats().malformed_frames.load(Ordering::Relaxed), 0);
}

/// `Drain`, `Ping` and `Shutdown` arrive in one segment, so the worker can
/// find all three queued at once and reach `Shutdown` without ever seeing an
/// empty inbox: the replies it buffered must still be on the wire, in order,
/// before it exits.
#[test]
fn a_worker_flushes_its_buffered_replies_before_it_exits() {
    let (node, client, client_id) = node_and_client();
    let bytes = encode_all(&[
        ServiceMessage::Drain { reply_to: client_id },
        ServiceMessage::Ping { token: 41, reply_to: client_id },
        ServiceMessage::Shutdown,
    ]);
    let mut conn = TcpStream::connect(&node.member().addr).expect("connect");
    conn.write_all(&bytes).expect("one segment");
    node.join();

    let (mut replies, _) = client.accept().expect("the node dialled its client");
    let mut frames = FrameReader::new();
    let mut next = || frames.next_frame::<_, ServiceMessage>(&mut replies);
    assert!(matches!(next(), Ok(Some(ServiceMessage::DrainDone { moved: 0 }))));
    assert!(matches!(next(), Ok(Some(ServiceMessage::Pong { token: 41, sent: 0, processed: 0 }))));
    assert!(matches!(next(), Ok(None)), "the worker hung up on a frame boundary");
}
