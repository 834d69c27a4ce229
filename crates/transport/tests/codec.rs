//! The wire codec, end to end: every `ServiceMessage` variant survives
//! `write_frame` → `read_frame`, the binary and JSON renderings agree on the
//! same values, and no byte string — random, mutated or cut short — makes
//! the decoder panic, accept garbage silently, or allocate beyond what its
//! input could hold.

use proptest::prelude::*;
use rjoin_core::{
    EngineConfig, HypercubeRef, PendingQuery, PlacementStrategy, QueryId, RJoinMessage, RicInfo,
    Subscriber, SubscriberGroup, SubscriberTable,
};
use rjoin_dht::{HashedKey, Id};
use rjoin_query::{
    Conjunct, IndexKey, IndexLevel, JoinQuery, QualifiedAttr, SelectItem, WindowSpec,
};
use rjoin_relation::{Catalog, Name, Schema, Tuple, Value};
use rjoin_transport::frame::{
    encode_frame, read_frame, write_frame, FrameReader, FORMAT_VERSION, MAX_FRAME_LEN,
};
use rjoin_transport::{
    ClusterView, Member, ServiceMessage, StateTransfer, TransportError, WireQuery,
};
use serde::bin::{self, BinError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;
use std::sync::Arc;

// ------------------------------------------------------------- allocations

thread_local! {
    /// Largest single allocation this thread has requested since the last
    /// reset (tests run on their own threads, so they do not see each other).
    static LARGEST_ALLOC: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting the largest request per thread.
struct Watching;

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only a const-initialised thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = LARGEST_ALLOC.try_with(|largest| largest.set(largest.get().max(size)));
}

#[global_allocator]
static ALLOCATOR: Watching = Watching;

/// What decoding `frame_len` bytes may request in one allocation: in-memory
/// values are wider than their encodings and vectors grow by doubling, but
/// nothing may be sized by a number the input merely *claims*.
fn allocation_budget(frame_len: usize) -> usize {
    (64 * frame_len).max(4_096)
}

/// Runs `f` and returns the largest single allocation it requested.
fn largest_allocation_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST_ALLOC.with(|largest| largest.set(0));
    let out = f();
    (out, LARGEST_ALLOC.with(Cell::get))
}

// -------------------------------------------------------------- generators

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::from),
        (-3i64..100).prop_map(Value::from),
        "[a-zA-Z0-9 +é∑]{0,12}".prop_map(Value::from),
    ]
}

fn arb_tuple() -> impl Strategy<Value = Arc<Tuple>> {
    (0usize..6, proptest::collection::vec(arb_value(), 0..5), any::<u64>())
        .prop_map(|(r, values, pub_time)| Arc::new(Tuple::new(format!("R{r}"), values, pub_time)))
}

/// Chain-join queries over `R0..R5` / `A0..A3`, as `crates/query/tests/prop.rs`
/// builds them, with constants of both value kinds in SELECT and WHERE.
fn arb_query() -> impl Strategy<Value = JoinQuery> {
    (
        1usize..=5,
        proptest::collection::vec(0usize..4, 10),
        proptest::bool::ANY,
        prop_oneof![
            Just(WindowSpec::None),
            any::<u64>().prop_map(WindowSpec::sliding_tuples),
            (1u64..200).prop_map(WindowSpec::sliding_time),
        ],
        proptest::option::of(arb_value()),
    )
        .prop_map(|(relations, attrs, distinct, window, constant)| {
            let rels: Vec<Name> = (0..relations).map(|i| Name::from(format!("R{i}"))).collect();
            let attr = |i: usize| format!("A{}", attrs[i % attrs.len()]);
            let mut conjuncts: Vec<Conjunct> = rels
                .windows(2)
                .enumerate()
                .map(|(i, pair)| {
                    Conjunct::JoinEq(
                        QualifiedAttr::new(pair[0].clone(), attr(2 * i)),
                        QualifiedAttr::new(pair[1].clone(), attr(2 * i + 1)),
                    )
                })
                .collect();
            let mut select = vec![SelectItem::Attr(QualifiedAttr::new(rels[0].clone(), attr(7)))];
            if let Some(v) = constant {
                conjuncts
                    .push(Conjunct::ConstEq(QualifiedAttr::new(rels[0].clone(), "A0"), v.clone()));
                select.push(SelectItem::Const(v));
            }
            JoinQuery::new(distinct, select, rels, conjuncts, window).expect("well-formed chain")
        })
}

fn arb_key() -> impl Strategy<Value = HashedKey> {
    (0usize..6, 0usize..4, proptest::option::of(arb_value()), proptest::option::of(0u32..7))
        .prop_map(|(r, a, value, part)| {
            let (relation, attribute) = (format!("R{r}"), format!("A{a}"));
            let key = match value {
                Some(v) => IndexKey::value(relation, attribute, v),
                None => IndexKey::attribute(relation, attribute),
            }
            .hashed();
            match part {
                Some(p) => key.split_part(p, 7),
                None => key,
            }
        })
}

fn arb_level() -> impl Strategy<Value = IndexLevel> {
    prop_oneof![Just(IndexLevel::Attribute), Just(IndexLevel::Value)]
}

fn arb_query_id() -> impl Strategy<Value = QueryId> {
    (any::<u64>(), 0u64..1_000).prop_map(|(owner, seq)| QueryId { owner: Id(owner), seq })
}

/// A subscriber table of up to three groups: subscribers submitted before
/// and after any `window_min` the pending query may carry (insertion times
/// straddle its `0..50` range), each group with up to three bound tuples.
fn arb_subscribers() -> impl Strategy<Value = SubscriberTable> {
    let subscriber =
        (arb_query_id(), 0u64..100, arb_value(), 0usize..4).prop_map(|(id, insert_time, v, a)| {
            Subscriber {
                id,
                owner: id.owner,
                insert_time,
                select: vec![
                    SelectItem::Const(v),
                    SelectItem::Attr(QualifiedAttr::new("R1", format!("A{a}"))),
                ],
            }
        });
    let group =
        (proptest::collection::vec(subscriber, 1..4), proptest::collection::vec(arb_tuple(), 0..4))
            .prop_map(|(subscribers, bound)| SubscriberGroup::new(subscribers, bound));
    proptest::collection::vec(group, 0..4).prop_map(SubscriberTable::from_groups)
}

/// A pending query with up to two of its input query's slots bound (the
/// bound tuples take the slot's relation).
fn arb_pending() -> impl Strategy<Value = PendingQuery> {
    (
        arb_query_id(),
        arb_query(),
        (any::<u64>(), proptest::option::of(any::<u64>()), 0u64..50),
        arb_subscribers(),
        proptest::option::of((arb_key(), 0u32..64)),
        proptest::collection::vec(arb_tuple(), 0..3),
    )
        .prop_map(|(id, query, (insert_time, start, published), subscribers, cube, bound)| {
            let mut pending = PendingQuery::input(id, id.owner, insert_time, query);
            for (slot, tuple) in bound.into_iter().enumerate() {
                if let Some(relation) = pending.query.relations().get(slot) {
                    let pub_time = published + slot as u64;
                    let tuple = Tuple::new(relation.clone(), tuple.values().to_vec(), pub_time);
                    pending = pending.child(&Arc::new(tuple), start);
                }
            }
            pending.subscribers = subscribers;
            pending.with_hypercube(cube.map(|(base, cells)| HypercubeRef { base, cells }))
        })
}

fn arb_engine_message() -> impl Strategy<Value = RJoinMessage> {
    let keyed = || (arb_pending(), arb_key());
    prop_oneof![
        (arb_tuple(), arb_key(), arb_level(), any::<u64>()).prop_map(
            |(tuple, key, level, publisher)| RJoinMessage::NewTuple {
                tuple,
                key,
                level,
                publisher: Id(publisher),
            }
        ),
        (keyed(), arb_level()).prop_map(|((pending, key), level)| RJoinMessage::IndexQuery {
            pending,
            key,
            level,
        }),
        (keyed(), proptest::collection::vec((any::<u64>(), any::<u64>(), 0u64..99), 0..4))
            .prop_map(|((pending, key), ric)| RJoinMessage::Eval {
                pending,
                key,
                level: IndexLevel::Value,
                carried_ric: ric
                    .into_iter()
                    .map(|(ring, rate, observed_at)| RicInfo { ring, rate, observed_at })
                    .collect(),
            }),
        (arb_query_id(), proptest::collection::vec(arb_value(), 0..6), any::<u64>())
            .prop_map(|(query, row, produced_at)| RJoinMessage::Answer { query, row, produced_at }),
    ]
}

fn arb_transfer() -> impl Strategy<Value = StateTransfer> {
    let bucket = || (any::<u64>(), proptest::collection::vec(arb_tuple(), 0..4));
    (
        proptest::collection::vec((arb_pending(), arb_key()), 0..3),
        proptest::collection::vec(bucket(), 0..3),
        proptest::collection::vec((bucket(), any::<u64>()), 0..3),
    )
        .prop_map(|(queries, tuples, altt)| StateTransfer {
            queries: queries
                .into_iter()
                .map(|(pending, key)| WireQuery { pending, key, level: IndexLevel::Value })
                .collect(),
            tuples,
            altt: altt
                .into_iter()
                .map(|((ring, bucket), expiry)| {
                    (ring, bucket.into_iter().map(|t| (t, expiry)).collect())
                })
                .collect(),
        })
}

fn arb_view() -> impl Strategy<Value = ClusterView> {
    (0usize..6, 0usize..3).prop_map(|(members, clients)| {
        let member = |kind: &str, i: usize| {
            Member::new(format!("{kind}-{i}"), format!("127.0.0.1:{}", 9_000 + i))
        };
        ClusterView::new(
            (0..members).map(|i| member("rjoin-node", i)).collect(),
            (0..clients).map(|i| member("rjoin-client", i)).collect(),
        )
    })
}

fn arb_config() -> impl Strategy<Value = EngineConfig> {
    (proptest::option::of(any::<u64>()), any::<u64>(), proptest::bool::ANY, 1usize..9).prop_map(
        |(altt, seed, sharing, shards)| {
            let base = if sharing {
                EngineConfig::with_placement(PlacementStrategy::Random)
            } else {
                EngineConfig::default()
            };
            let mut config = base.with_subjoin_sharing(sharing).with_shards(shards);
            config.altt_delta = altt;
            config.seed = seed;
            config
        },
    )
}

fn catalog(relations: usize) -> Catalog {
    let mut catalog = Catalog::new();
    for r in 0..relations {
        let schema = Schema::new(format!("R{r}"), ["A0", "A1", "A2", "A3"]).expect("schema");
        catalog.register(schema).expect("register");
    }
    catalog
}

/// Every variant of the protocol.
fn arb_service_message() -> impl Strategy<Value = ServiceMessage> {
    let id = || any::<u64>().prop_map(Id);
    prop_oneof![
        (any::<u64>(), arb_engine_message())
            .prop_map(|(at, msg)| ServiceMessage::Engine { at, msg }),
        (arb_config(), 0usize..6, arb_view()).prop_map(|(config, relations, view)| {
            ServiceMessage::Configure { config, catalog: catalog(relations), view }
        }),
        arb_view().prop_map(|view| ServiceMessage::View { view }),
        arb_transfer().prop_map(|transfer| ServiceMessage::Absorb { transfer }),
        Just(ServiceMessage::Rehome),
        id().prop_map(|reply_to| ServiceMessage::Drain { reply_to }),
        any::<u64>().prop_map(|moved| ServiceMessage::DrainDone { moved }),
        (any::<u64>(), id()).prop_map(|(token, reply_to)| ServiceMessage::Ping { token, reply_to }),
        (any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(token, sent, processed)| ServiceMessage::Pong { token, sent, processed }),
        Just(ServiceMessage::Shutdown),
    ]
}

/// `ServiceMessage` has no `PartialEq`; its JSON text is a faithful,
/// deterministic rendering of the value, and comparing through it is the
/// binary ⇄ value ⇄ JSON agreement this file is about.
fn json(msg: &ServiceMessage) -> String {
    serde_json::to_string(msg).expect("service messages render as JSON")
}

fn frame_of(msg: &ServiceMessage) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_frame(&mut frame, msg).expect("in-memory frame");
    frame
}

/// A frame around an arbitrary payload.
fn frame_around(payload: &[u8]) -> Vec<u8> {
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(payload);
    frame
}

fn decode(frame: &[u8]) -> Result<Option<ServiceMessage>, TransportError> {
    read_frame(&mut Cursor::new(frame))
}

// -------------------------------------------------------------- properties

proptest! {
    /// Binary → value → JSON equals value → JSON, through both readers, and
    /// JSON → value → binary → value → JSON closes the loop.
    #[test]
    fn every_service_message_round_trips_and_agrees_with_json(msg in arb_service_message()) {
        let want = json(&msg);
        let mut frame = Vec::new();
        write_frame(&mut frame, &msg).expect("write");

        let back = decode(&frame).expect("read").expect("one frame");
        prop_assert_eq!(&json(&back), &want);

        let mut reader = FrameReader::new();
        let mut source = Cursor::new(&frame);
        let buffered: ServiceMessage = reader.next_frame(&mut source).expect("read").expect("one frame");
        prop_assert_eq!(&json(&buffered), &want);
        prop_assert!(reader.next_frame::<_, ServiceMessage>(&mut source).expect("eof").is_none());

        let from_json: ServiceMessage = serde_json::from_str(&want).expect("parse");
        let via_binary = decode(&frame_of(&from_json)).expect("read").expect("one frame");
        prop_assert_eq!(&json(&via_binary), &want);
    }

    /// Random payloads — bare, and behind a valid version byte so the
    /// message decoder itself runs — never panic and never allocate more
    /// than a small multiple of their own size.
    #[test]
    fn arbitrary_bytes_are_refused_or_decoded_but_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let mut versioned = vec![FORMAT_VERSION];
        versioned.extend_from_slice(&bytes);
        for payload in [&bytes, &versioned] {
            let frame = frame_around(payload);
            let (outcome, largest) = largest_allocation_during(|| decode(&frame));
            match outcome {
                Ok(_) | Err(TransportError::Malformed(_)) => {}
                Err(other) => prop_assert!(false, "complete frame reported as {other:?}"),
            }
            prop_assert!(largest <= allocation_budget(frame.len()), "allocated {largest} bytes");
        }
    }

    /// A valid frame with a few bytes overwritten still decodes to *some*
    /// verdict without panicking or over-allocating — this reaches the
    /// length fields and variant indexes deep inside real messages.
    #[test]
    fn corrupted_frames_never_panic(
        msg in arb_service_message(),
        damage in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
    ) {
        let mut frame = frame_of(&msg);
        let payload_len = frame.len() - 4;
        for (at, byte) in damage {
            frame[4 + at % payload_len] = byte;
        }
        let (outcome, largest) = largest_allocation_during(|| decode(&frame));
        prop_assert!(matches!(outcome, Ok(Some(_)) | Err(TransportError::Malformed(_))));
        prop_assert!(largest <= allocation_budget(frame.len()), "allocated {largest} bytes");
    }

    /// Cutting a frame short anywhere is `Truncated`; cutting its payload
    /// short under an honest prefix is `Malformed`; neither decodes.
    #[test]
    fn every_truncation_of_a_valid_frame_is_an_error(msg in arb_service_message()) {
        let frame = frame_of(&msg);
        prop_assert!(decode(&[]).expect("clean eof").is_none());
        for cut in 1..frame.len() {
            let stream_cut = decode(&frame[..cut]);
            prop_assert!(
                matches!(stream_cut, Err(TransportError::Truncated { .. })),
                "stream cut at {cut}: {stream_cut:?}"
            );
            let buffered_cut =
                FrameReader::new().next_frame::<_, ServiceMessage>(&mut Cursor::new(&frame[..cut]));
            prop_assert!(matches!(buffered_cut, Err(TransportError::Truncated { .. })));
        }
        for cut in 0..frame.len() - 4 {
            let payload_cut = decode(&frame_around(&frame[4..4 + cut]));
            prop_assert!(
                matches!(payload_cut, Err(TransportError::Malformed(_))),
                "payload cut at {cut}: {payload_cut:?}"
            );
        }
    }
}

// ------------------------------------------------------------------ cases

fn malformed(payload: &[u8]) -> BinError {
    match decode(&frame_around(payload)) {
        Err(TransportError::Malformed(e)) => e,
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn wrong_version_unknown_variant_and_trailing_bytes_are_malformed() {
    let ping = ServiceMessage::Ping { token: 7, reply_to: Id(9) };
    let good = frame_of(&ping)[4..].to_vec();
    assert!(decode(&frame_around(&good)).expect("valid").is_some());

    let mut other_build = good.clone();
    other_build[0] = FORMAT_VERSION + 1;
    assert_eq!(malformed(&other_build), BinError::Invalid("frame format version"));
    assert_eq!(malformed(b"!!not json!!"), BinError::Invalid("frame format version"));
    assert_eq!(malformed(&[]), BinError::Eof);

    let variants = 10; // Engine ..= Shutdown
    assert_eq!(
        malformed(&[FORMAT_VERSION, variants]),
        BinError::UnknownVariant { ty: "ServiceMessage", index: u64::from(variants) }
    );
    assert!(decode(&frame_around(&[FORMAT_VERSION, variants - 1])).expect("Shutdown").is_some());

    let mut trailing = good;
    trailing.push(0);
    assert_eq!(malformed(&trailing), BinError::Trailing(1));
}

/// A length field is checked against the bytes that follow it before
/// anything is reserved: a 20-byte frame announcing 2^40 stored queries is
/// refused on the spot.
#[test]
fn an_inflated_length_field_is_refused_without_allocating_for_it() {
    let absorb = 3u8; // Engine, Configure, View, Absorb
    let mut payload = vec![FORMAT_VERSION, absorb];
    bin::write_varint(&mut payload, 1 << 40);
    payload.extend_from_slice(&[1; 8]);
    let frame = frame_around(&payload);
    let (outcome, largest) = largest_allocation_during(|| decode(&frame));
    match outcome {
        Err(TransportError::Malformed(BinError::Length { announced, remaining: 8 })) => {
            assert_eq!(announced, 1 << 40)
        }
        other => panic!("expected a length error, got {other:?}"),
    }
    assert!(largest <= allocation_budget(frame.len()), "allocated {largest} bytes");
}

#[test]
fn the_frame_size_cap_holds_in_both_directions() {
    let mut too_long = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec();
    too_long.push(FORMAT_VERSION);
    assert!(
        matches!(decode(&too_long), Err(TransportError::TooLarge { len }) if len == MAX_FRAME_LEN + 1)
    );

    let huge = "x".repeat(MAX_FRAME_LEN);
    let mut out = b"kept".to_vec();
    assert!(matches!(encode_frame(&mut out, huge.as_str()), Err(TransportError::TooLarge { .. })));
    assert_eq!(out, b"kept", "a refused frame leaves the buffer as it was");
}

/// An `Eval` for a rewritten query with two bound tuples travels as its
/// input query plus the slot mask and the tuples, and comes back as the
/// same rewritten query: same input query, same bindings, nothing else.
#[test]
fn an_eval_with_two_bound_tuples_round_trips() {
    let query = rjoin_query::parse_query(
        "SELECT R0.A1, R2.A0 FROM R0, R1, R2 WHERE R0.A0 = R1.A0 AND R1.A1 = R2.A1",
    )
    .unwrap();
    let id = QueryId { owner: Id(7), seq: 3 };
    let r0 = Arc::new(Tuple::new("R0", vec![Value::from(1), Value::from("x")], 4));
    let r2 = Arc::new(Tuple::new("R2", vec![Value::from(9), Value::from(5)], 6));
    let pending =
        PendingQuery::input(id, id.owner, 2, query).child(&r0, Some(4)).child(&r2, Some(4));
    assert_eq!(pending.bound.mask(), 0b101);
    let msg = ServiceMessage::Engine {
        at: 11,
        msg: RJoinMessage::Eval {
            pending,
            key: IndexKey::attribute("R1", "A0").hashed(),
            level: IndexLevel::Attribute,
            carried_ric: Vec::new(),
        },
    };
    let back = decode(&frame_of(&msg)).expect("read").expect("one frame");
    assert_eq!(json(&back), json(&msg));
    let ServiceMessage::Engine { msg: RJoinMessage::Eval { pending: back, .. }, .. } = back else {
        panic!("an Eval frame decodes as an Eval");
    };
    assert_eq!(back.bound.mask(), 0b101);
    assert_eq!(
        back.bound.tuples().iter().map(|t| (**t).clone()).collect::<Vec<_>>(),
        [(*r0).clone(), (*r2).clone()]
    );
    assert!(back.plan().is_none(), "the plan stays behind");
    let ServiceMessage::Engine { msg: RJoinMessage::Eval { pending, .. }, .. } = msg else {
        unreachable!()
    };
    assert_eq!(back.query, pending.query);
}
