//! Quickstart: the running example of the paper (Figure 1), executed on a
//! simulated Chord network.
//!
//! A node submits the continuous 4-way join
//!
//! ```sql
//! SELECT S.B, M.A FROM R, S, J, M
//! WHERE R.A = S.A AND S.B = J.B AND J.C = M.C
//! ```
//!
//! and four tuples arrive over time. RJoin rewrites and re-indexes the query
//! step by step; when the last piece falls into place the answer
//! `(S.B = 6, M.A = 9)` is delivered to the querying node.
//!
//! Run with: `cargo run --example quickstart`

use rjoin::prelude::*;

fn main() {
    // Schema of the four relations used in the example.
    let mut catalog = Catalog::new();
    for rel in ["R", "S", "J", "M"] {
        catalog
            .register(Schema::new(rel, ["A", "B", "C"]).expect("valid schema"))
            .expect("unique relation names");
    }

    // A 64-node Chord network running RJoin with its default configuration
    // (RIC-aware placement, RIC reuse enabled).
    let mut engine = RJoinEngine::simulated(EngineConfig::default(), catalog, 64);
    let querying_node = engine.node_ids()[0];
    let publisher = engine.node_ids()[1];

    // Event 1: node x submits the continuous query.
    let query =
        parse_query("SELECT S.B, M.A FROM R, S, J, M WHERE R.A = S.A AND S.B = J.B AND J.C = M.C")
            .expect("well-formed SQL");
    let query_id = engine.submit_query(querying_node, query).expect("query accepted");
    engine.run_until_quiescent().expect("indexing succeeds");
    println!("submitted continuous query {query_id}");

    // Events 2-5: tuples arrive one by one (same values as Figure 1).
    let events: [(&str, [i64; 3]); 4] =
        [("R", [2, 5, 8]), ("S", [2, 6, 3]), ("M", [9, 1, 2]), ("J", [7, 6, 2])];
    for (i, (relation, values)) in events.iter().enumerate() {
        let pub_time = engine.now() + 1;
        let tuple =
            Tuple::new(*relation, values.iter().map(|v| Value::from(*v)).collect(), pub_time);
        println!("event {}: publishing {tuple}", i + 2);
        engine.publish_tuple(publisher, tuple).expect("tuple accepted");
        engine.run_until_quiescent().expect("processing succeeds");
        println!("         answers delivered so far: {}", engine.answers().count_for(query_id));
    }

    // The answer of Figure 1: S.B = 6, M.A = 9.
    let answers = engine.answers().rows_for(query_id);
    println!("\nfinal answers for {query_id}:");
    for row in &answers {
        println!("  {row:?}");
    }
    assert_eq!(answers, vec![vec![Value::from(6), Value::from(9)]]);

    let stats = engine.stats();
    println!("\nrun statistics: {}", stats.summary());
}
