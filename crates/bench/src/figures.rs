//! Generators for every figure of the paper's evaluation (Section 8).

use crate::runner::{run_experiment, RunResult};
use crate::Scale;
use rjoin_core::{EngineConfig, PlacementStrategy};
use rjoin_dht::{balance, ChordNetwork, Id};
use rjoin_metrics::{CumulativeSeries, Distribution, Table};
use rjoin_net::{Network, NetworkConfig};
use rjoin_query::WindowSpec;
use rjoin_workload::Scenario;
use std::collections::BTreeMap;

/// Number of ranked-node sample points printed for distribution panels.
const CURVE_POINTS: usize = 12;

fn base_scenario(scale: Scale) -> Scenario {
    Scenario {
        nodes: scale.nodes(),
        queries: scale.queries(),
        tuples: 0, // set per figure
        ..Scenario::paper_default()
    }
}

fn fmt_f(v: f64) -> String {
    format!("{v:.3}")
}

fn per_node(total: u64, nodes: usize) -> f64 {
    if nodes == 0 {
        0.0
    } else {
        total as f64 / nodes as f64
    }
}

fn per_node_per_tuple(total: u64, nodes: usize, tuples: usize) -> f64 {
    if nodes == 0 || tuples == 0 {
        0.0
    } else {
        total as f64 / nodes as f64 / tuples as f64
    }
}

/// Builds a ranked-node distribution table: one row per sampled rank, one
/// column per series.
fn distribution_table(title: &str, series: &[(String, &Distribution)]) -> Table {
    let mut headers = vec!["ranked_node".to_string()];
    headers.extend(series.iter().map(|(label, _)| label.clone()));
    let mut table = Table::new(title, headers);
    let len = series.iter().map(|(_, d)| d.len()).max().unwrap_or(0);
    if len == 0 {
        return table;
    }
    let mut ranks: Vec<usize> = (0..CURVE_POINTS).map(|i| i * len / CURVE_POINTS).collect();
    ranks.push(len - 1);
    ranks.dedup();
    for rank in ranks {
        let mut row = vec![rank.to_string()];
        row.extend(series.iter().map(|(_, d)| d.at_rank(rank).to_string()));
        table.push_row(row);
    }
    table
}

/// Figure 2: effect of taking RIC information into account. Three panels
/// (traffic, query-processing load, storage load per node) comparing the
/// Worst, Random and RJoin (RIC-aware) strategies as tuples arrive.
pub fn fig2(scale: Scale) -> Vec<Table> {
    let mut tuple_points: Vec<usize> =
        [50, 100, 200, 400].iter().map(|t| scale.tuples(*t)).collect();
    tuple_points.dedup();
    let max_tuples = *tuple_points.last().expect("non-empty sweep");

    let mut scenario = base_scenario(scale);
    scenario.tuples = max_tuples;

    let strategies = [
        ("worst", PlacementStrategy::Worst),
        ("random", PlacementStrategy::Random),
        ("rjoin", PlacementStrategy::RicAware),
    ];
    let results: Vec<(&str, RunResult)> = strategies
        .iter()
        .map(|(name, strategy)| {
            let config = EngineConfig::with_placement(*strategy);
            (*name, run_experiment(&scenario, config, &tuple_points))
        })
        .collect();

    let mut traffic = Table::new(
        "Figure 2(a): total messages per node",
        ["tuples", "worst", "random", "rjoin", "rjoin_request_ric"],
    );
    let mut qpl = Table::new(
        "Figure 2(b): query processing load per node",
        ["tuples", "worst", "random", "rjoin"],
    );
    let mut sl =
        Table::new("Figure 2(c): storage load per node", ["tuples", "worst", "random", "rjoin"]);

    for (i, point) in tuple_points.iter().enumerate() {
        let at = |name: &str| -> &rjoin_core::ExperimentStats {
            &results.iter().find(|(n, _)| *n == name).expect("strategy ran").1.checkpoints[i].1
        };
        traffic.push_row([
            point.to_string(),
            fmt_f(per_node(at("worst").traffic_total, scenario.nodes)),
            fmt_f(per_node(at("random").traffic_total, scenario.nodes)),
            fmt_f(per_node(at("rjoin").traffic_total, scenario.nodes)),
            fmt_f(per_node(at("rjoin").traffic_ric, scenario.nodes)),
        ]);
        qpl.push_row([
            point.to_string(),
            fmt_f(per_node(at("worst").qpl_total, scenario.nodes)),
            fmt_f(per_node(at("random").qpl_total, scenario.nodes)),
            fmt_f(per_node(at("rjoin").qpl_total, scenario.nodes)),
        ]);
        sl.push_row([
            point.to_string(),
            fmt_f(per_node(at("worst").sl_total, scenario.nodes)),
            fmt_f(per_node(at("random").sl_total, scenario.nodes)),
            fmt_f(per_node(at("rjoin").sl_total, scenario.nodes)),
        ]);
    }
    vec![traffic, qpl, sl]
}

/// Figure 3: effect of increasing the number of incoming tuples (one
/// RIC-aware run, statistics sampled at increasing tuple counts).
pub fn fig3(scale: Scale) -> Vec<Table> {
    let tuple_points: Vec<usize> =
        [40, 80, 160, 320, 640, 1280, 2560].iter().map(|t| scale.tuples(*t)).collect();
    let mut tuple_points = tuple_points;
    tuple_points.dedup();
    let max_tuples = *tuple_points.last().expect("non-empty sweep");

    let mut scenario = base_scenario(scale);
    scenario.tuples = max_tuples;
    let result = run_experiment(&scenario, EngineConfig::default(), &tuple_points);

    let mut traffic = Table::new(
        "Figure 3(a): messages per node per tuple",
        ["tuples", "total_hops", "request_ric"],
    );
    for (count, stats) in &result.checkpoints {
        traffic.push_row([
            count.to_string(),
            fmt_f(per_node_per_tuple(stats.traffic_total, scenario.nodes, *count)),
            fmt_f(per_node_per_tuple(stats.traffic_ric, scenario.nodes, *count)),
        ]);
    }

    let qpl_series: Vec<(String, &Distribution)> = result
        .checkpoints
        .iter()
        .map(|(count, stats)| (format!("{count}_tuples"), &stats.qpl))
        .collect();
    let sl_series: Vec<(String, &Distribution)> = result
        .checkpoints
        .iter()
        .map(|(count, stats)| (format!("{count}_tuples"), &stats.sl))
        .collect();

    vec![
        traffic,
        distribution_table("Figure 3(b): query processing load distribution", &qpl_series),
        distribution_table("Figure 3(c): storage load distribution", &sl_series),
    ]
}

/// Figure 4: effect of increasing the number of indexed queries.
pub fn fig4(scale: Scale) -> Vec<Table> {
    let query_points: Vec<usize> =
        [2_000, 4_000, 8_000, 16_000, 32_000].iter().map(|q| scale.scaled_queries(*q)).collect();
    let tuples = scale.tuples(1000);

    let results: Vec<(usize, RunResult)> = query_points
        .iter()
        .map(|&q| {
            let mut scenario = base_scenario(scale);
            scenario.queries = q;
            scenario.tuples = tuples;
            (q, run_experiment(&scenario, EngineConfig::default(), &[]))
        })
        .collect();

    let mut traffic = Table::new(
        "Figure 4(a): messages per node per tuple",
        ["queries", "total_hops", "request_ric"],
    );
    for (q, r) in &results {
        traffic.push_row([
            q.to_string(),
            fmt_f(per_node_per_tuple(r.stats.traffic_total, r.nodes, r.tuples)),
            fmt_f(per_node_per_tuple(r.stats.traffic_ric, r.nodes, r.tuples)),
        ]);
    }
    let qpl_series: Vec<(String, &Distribution)> =
        results.iter().map(|(q, r)| (format!("{q}_queries"), &r.stats.qpl)).collect();
    let sl_series: Vec<(String, &Distribution)> =
        results.iter().map(|(q, r)| (format!("{q}_queries"), &r.stats.sl)).collect();

    vec![
        traffic,
        distribution_table("Figure 4(b): query processing load distribution", &qpl_series),
        distribution_table("Figure 4(c): storage load distribution", &sl_series),
    ]
}

/// Figure 5: effect of the skew of the data distribution (Zipf θ).
pub fn fig5(scale: Scale) -> Vec<Table> {
    let thetas = [0.3, 0.5, 0.7, 0.9];
    let tuples = scale.tuples(1000);

    let results: Vec<(f64, RunResult)> = thetas
        .iter()
        .map(|&theta| {
            let mut scenario = base_scenario(scale);
            scenario.theta = theta;
            scenario.tuples = tuples;
            (theta, run_experiment(&scenario, EngineConfig::default(), &[]))
        })
        .collect();

    let mut traffic = Table::new(
        "Figure 5(a): messages per node per tuple",
        ["theta", "total_hops", "request_ric"],
    );
    for (theta, r) in &results {
        traffic.push_row([
            format!("{theta}"),
            fmt_f(per_node_per_tuple(r.stats.traffic_total, r.nodes, r.tuples)),
            fmt_f(per_node_per_tuple(r.stats.traffic_ric, r.nodes, r.tuples)),
        ]);
    }
    let qpl_series: Vec<(String, &Distribution)> =
        results.iter().map(|(t, r)| (format!("theta_{t}"), &r.stats.qpl)).collect();
    let sl_series: Vec<(String, &Distribution)> =
        results.iter().map(|(t, r)| (format!("theta_{t}"), &r.stats.sl)).collect();

    vec![
        traffic,
        distribution_table("Figure 5(b): query processing load distribution", &qpl_series),
        distribution_table("Figure 5(c): storage load distribution", &sl_series),
    ]
}

/// Figure 6: effect of query complexity (4-way, 6-way and 8-way joins).
pub fn fig6(scale: Scale) -> Vec<Table> {
    let join_counts = [3usize, 5, 7]; // 4-way, 6-way, 8-way
    let tuples = scale.tuples(1000);

    let results: Vec<(usize, RunResult)> = join_counts
        .iter()
        .map(|&joins| {
            let mut scenario = base_scenario(scale);
            scenario.joins = joins;
            scenario.tuples = tuples;
            (joins + 1, run_experiment(&scenario, EngineConfig::default(), &[]))
        })
        .collect();

    let mut traffic = Table::new(
        "Figure 6(a): messages per node per tuple",
        ["way", "total_hops", "request_ric"],
    );
    for (way, r) in &results {
        traffic.push_row([
            format!("{way}-way"),
            fmt_f(per_node_per_tuple(r.stats.traffic_total, r.nodes, r.tuples)),
            fmt_f(per_node_per_tuple(r.stats.traffic_ric, r.nodes, r.tuples)),
        ]);
    }
    let qpl_series: Vec<(String, &Distribution)> =
        results.iter().map(|(w, r)| (format!("{w}_way"), &r.stats.qpl)).collect();
    let sl_series: Vec<(String, &Distribution)> =
        results.iter().map(|(w, r)| (format!("{w}_way"), &r.stats.sl)).collect();

    vec![
        traffic,
        distribution_table("Figure 6(b): query processing load distribution", &qpl_series),
        distribution_table("Figure 6(c): storage load distribution", &sl_series),
    ]
}

/// Figures 7 and 8: effect of the sliding-window size. Figure 7 reports
/// per-tuple traffic and ranked load distributions; Figure 8 reports the
/// cumulative query-processing and storage load as tuples arrive.
pub fn fig7_fig8(scale: Scale) -> Vec<Table> {
    let window_sizes: Vec<usize> =
        [50, 100, 200, 400, 1000].iter().map(|w| scale.tuples(*w)).collect();
    let tuples = scale.tuples(1000);

    let results: Vec<(usize, RunResult)> = window_sizes
        .iter()
        .map(|&w| {
            let mut scenario = base_scenario(scale);
            scenario.tuples = tuples;
            scenario.window = WindowSpec::sliding_tuples(w as u64);
            (w, run_experiment(&scenario, EngineConfig::default(), &[]))
        })
        .collect();

    let mut traffic = Table::new(
        "Figure 7(a): messages per node per tuple",
        ["window", "total_hops", "request_ric"],
    );
    for (w, r) in &results {
        traffic.push_row([
            w.to_string(),
            fmt_f(per_node_per_tuple(r.stats.traffic_total, r.nodes, r.tuples)),
            fmt_f(per_node_per_tuple(r.stats.traffic_ric, r.nodes, r.tuples)),
        ]);
    }
    let qpl_series: Vec<(String, &Distribution)> =
        results.iter().map(|(w, r)| (format!("W_{w}"), &r.stats.qpl)).collect();
    let sl_series: Vec<(String, &Distribution)> =
        results.iter().map(|(w, r)| (format!("W_{w}"), &r.stats.sl)).collect();
    let fig7b = distribution_table("Figure 7(b): query processing load distribution", &qpl_series);
    let fig7c = distribution_table("Figure 7(c): storage load distribution", &sl_series);

    // Figure 8: cumulative load as tuples arrive, one column per window size.
    let mut headers = vec!["tuple".to_string()];
    headers.extend(results.iter().map(|(w, _)| format!("W_{w}")));
    let mut fig8a = Table::new("Figure 8(a): cumulative query processing load", headers.clone());
    let mut fig8b = Table::new("Figure 8(b): cumulative storage load", headers);

    let curves_qpl: Vec<CumulativeSeries> = results
        .iter()
        .map(|(_, r)| {
            let mut s = CumulativeSeries::new();
            for &v in &r.per_tuple_qpl {
                s.push(v);
            }
            s
        })
        .collect();
    let curves_sl: Vec<CumulativeSeries> = results
        .iter()
        .map(|(_, r)| {
            let mut s = CumulativeSeries::new();
            for &v in &r.per_tuple_sl {
                s.push(v);
            }
            s
        })
        .collect();
    let sample_points: Vec<usize> = (1..=10).map(|i| i * tuples / 10).collect();
    for point in sample_points {
        let idx = point.saturating_sub(1);
        let mut row_a = vec![point.to_string()];
        let mut row_b = vec![point.to_string()];
        for (qc, sc) in curves_qpl.iter().zip(&curves_sl) {
            row_a.push(qc.at(idx).unwrap_or(qc.total()).to_string());
            row_b.push(sc.at(idx).unwrap_or(sc.total()).to_string());
        }
        fig8a.push_row(row_a);
        fig8b.push_row(row_b);
    }

    vec![traffic, fig7b, fig7c, fig8a, fig8b]
}

/// Aggregates per-key loads onto a ring.
fn aggregate_on_ring(ring: &ChordNetwork, key_loads: &BTreeMap<Id, u64>) -> Distribution {
    let loads = balance::node_loads(ring, key_loads).expect("non-empty ring");
    Distribution::from_values(loads.values().copied())
}

/// The point-mass skew workload of the Figure 9 extension, scaled.
fn skew_scenario(scale: Scale) -> Scenario {
    let mut scenario = Scenario::skew_test(0.9);
    match scale {
        Scale::Full => {
            scenario.nodes = 128;
            scenario.queries = 240;
            scenario.tuples = 400;
        }
        Scale::Reduced => {}
        Scale::Smoke => {
            scenario.queries = 60;
            scenario.tuples = 50;
        }
    }
    scenario
}

/// Figure 9 extension: hot-key splitting vs identifier movement on the
/// point-mass skew workload (θ = 0.9 plus a hotspot). Identifier movement
/// alone cannot divide the hottest key's load; share-based splitting turns
/// it into medium sub-keys that identifier movement then balances, so the
/// two tiers compose. One summary table: per-node QPL max / Gini /
/// participants for (a) no balancing, (b) identifier movement only,
/// (c) splitting + identifier movement — plus the answer counts proving
/// the split run delivers the same answers.
pub fn fig9_split(scale: Scale) -> Vec<Table> {
    let scenario = skew_scenario(scale);
    let base_config = EngineConfig::default().with_altt(8_000);
    let split_config = base_config.clone().with_hot_key_splitting(12, 16);
    let unsplit = run_experiment(&scenario, base_config, &[]);
    let split = run_experiment(&scenario, split_config, &[]);

    let mut reference: Network<()> = Network::new(NetworkConfig::default());
    reference.bootstrap(scenario.nodes, "rjoin-node");
    let raw = aggregate_on_ring(reference.dht(), &unsplit.qpl_by_key);

    let moves = scenario.nodes / 4;
    let mut idmove_ring: Network<()> = Network::new(NetworkConfig::default());
    idmove_ring.bootstrap(scenario.nodes, "rjoin-node");
    balance::rebalance(idmove_ring.dht_mut(), &unsplit.qpl_by_key, moves)
        .expect("rebalance on a healthy ring");
    let idmove_only = aggregate_on_ring(idmove_ring.dht(), &unsplit.qpl_by_key);

    let mut two_tier_ring: Network<()> = Network::new(NetworkConfig::default());
    two_tier_ring.bootstrap(scenario.nodes, "rjoin-node");
    balance::rebalance(two_tier_ring.dht_mut(), &split.qpl_by_key, moves)
        .expect("rebalance on a healthy ring");
    let two_tier = aggregate_on_ring(two_tier_ring.dht(), &split.qpl_by_key);

    let mut summary = Table::new(
        "Figure 9 extension: hot-key splitting under identifier movement (skew θ=0.9 + hotspot)",
        ["metric", "unbalanced", "id_movement_only", "split_plus_id_movement"],
    );
    summary.push_row([
        "max QPL".to_string(),
        raw.max().to_string(),
        idmove_only.max().to_string(),
        two_tier.max().to_string(),
    ]);
    summary.push_row([
        "gini".to_string(),
        fmt_f(raw.gini()),
        fmt_f(idmove_only.gini()),
        fmt_f(two_tier.gini()),
    ]);
    summary.push_row([
        "participants".to_string(),
        raw.participants().to_string(),
        idmove_only.participants().to_string(),
        two_tier.participants().to_string(),
    ]);
    summary.push_row([
        "answers".to_string(),
        unsplit.answers.to_string(),
        unsplit.answers.to_string(),
        split.answers.to_string(),
    ]);
    summary.push_row([
        "keys split".to_string(),
        "0".to_string(),
        "0".to_string(),
        split.stats.splits.keys_split.to_string(),
    ]);
    vec![summary]
}

/// Figure 9: effect of identifier movement (the low-level load-balancing
/// technique of Karger & Ruhl) on the query-processing and storage load
/// distributions.
pub fn fig9(scale: Scale) -> Vec<Table> {
    let mut scenario = base_scenario(scale);
    scenario.tuples = scale.tuples(1000);
    let result = run_experiment(&scenario, EngineConfig::default(), &[]);

    // Rebuild the same ring the engine used (same deterministic bootstrap)
    // and derive the load distribution with and without identifier movement.
    let mut reference: Network<()> = Network::new(NetworkConfig::default());
    reference.bootstrap(scenario.nodes, "rjoin-node");
    let without_qpl = aggregate_on_ring(reference.dht(), &result.qpl_by_key);
    let without_sl = aggregate_on_ring(reference.dht(), &result.sl_by_key);

    // Identifier movement driven by the observed per-key query-processing
    // load; up to one move per four nodes, as in a periodic rebalancing pass.
    let mut balanced = reference;
    let moves = scenario.nodes / 4;
    balance::rebalance(balanced.dht_mut(), &result.qpl_by_key, moves)
        .expect("rebalance on a healthy ring");
    let with_qpl = aggregate_on_ring(balanced.dht(), &result.qpl_by_key);
    let with_sl = aggregate_on_ring(balanced.dht(), &result.sl_by_key);

    let fig9a = distribution_table(
        "Figure 9(a): query processing load distribution (id movement)",
        &[("without".to_string(), &without_qpl), ("with".to_string(), &with_qpl)],
    );
    let fig9b = distribution_table(
        "Figure 9(b): storage load distribution (id movement)",
        &[("without".to_string(), &without_sl), ("with".to_string(), &with_sl)],
    );

    let mut summary =
        Table::new("Figure 9 summary: id movement effect", ["metric", "without", "with"]);
    summary.push_row([
        "max QPL".to_string(),
        without_qpl.max().to_string(),
        with_qpl.max().to_string(),
    ]);
    summary.push_row([
        "QPL participants".to_string(),
        without_qpl.participants().to_string(),
        with_qpl.participants().to_string(),
    ]);
    summary.push_row([
        "max SL".to_string(),
        without_sl.max().to_string(),
        with_sl.max().to_string(),
    ]);
    summary.push_row([
        "SL participants".to_string(),
        without_sl.participants().to_string(),
        with_sl.participants().to_string(),
    ]);

    let mut tables = vec![fig9a, fig9b, summary];
    tables.extend(fig9_split(scale));
    tables
}

/// Ablation of the Section 7 traffic optimisations: RIC piggy-backing and
/// candidate-table caching on vs. off. Not a figure of the paper, but it
/// quantifies the claim that with reuse a rewritten query becomes very cheap
/// to index (k·O(log N) + 1 hops with k typically 1).
pub fn ablation_ric_reuse(scale: Scale) -> Vec<Table> {
    let mut scenario = base_scenario(scale);
    scenario.tuples = scale.tuples(400);

    let with = run_experiment(&scenario, EngineConfig::default(), &[]);
    let without = run_experiment(&scenario, EngineConfig::default().with_ric_reuse(false), &[]);

    let mut table = Table::new(
        "Ablation: RIC piggy-backing and candidate-table caching (Section 7)",
        ["metric", "with_reuse", "without_reuse"],
    );
    table.push_row([
        "messages per node".to_string(),
        fmt_f(per_node(with.stats.traffic_total, with.nodes)),
        fmt_f(per_node(without.stats.traffic_total, without.nodes)),
    ]);
    table.push_row([
        "RIC messages per node".to_string(),
        fmt_f(per_node(with.stats.traffic_ric, with.nodes)),
        fmt_f(per_node(without.stats.traffic_ric, without.nodes)),
    ]);
    table.push_row([
        "QPL per node".to_string(),
        fmt_f(per_node(with.stats.qpl_total, with.nodes)),
        fmt_f(per_node(without.stats.qpl_total, without.nodes)),
    ]);
    table.push_row(["answers".to_string(), with.answers.to_string(), without.answers.to_string()]);
    vec![table]
}

/// The characteristic scenario of each figure (its primary workload shape
/// at the given scale), used to measure one optimization across the whole
/// figure surface.
fn figure_scenarios(scale: Scale) -> Vec<(&'static str, Scenario)> {
    let base = |tuples: usize| {
        let mut s = base_scenario(scale);
        s.tuples = scale.tuples(tuples);
        s
    };
    let mut fig4 = base(1000);
    fig4.queries = scale.scaled_queries(32_000);
    let mut fig5 = base(1000);
    fig5.theta = 0.9;
    let mut fig6 = base(1000);
    fig6.joins = 5;
    let mut fig7 = base(1000);
    fig7.window = WindowSpec::sliding_tuples(scale.tuples(200) as u64);
    vec![
        ("fig2_ric_aware", base(400)),
        ("fig3_tuple_sweep", base(2560)),
        ("fig4_many_queries", fig4),
        ("fig5_skew_0.9", fig5),
        ("fig6_6way_joins", fig6),
        ("fig7_window_200", fig7),
        ("fig9_id_movement", base(1000)),
    ]
}

/// Shared sub-join evaluation measured across every figure scenario: each
/// workload runs twice — `share_subjoins` off (the paper's per-query
/// accounting) and on (the multi-query optimization) — and the table
/// reports the deltas. This is the measurement the "sharing by default"
/// question needs: the default should only flip if **every** scenario wins
/// (identical answers, no metric regresses).
pub fn sharing_modes(scale: Scale) -> Vec<Table> {
    let mut table = Table::new(
        "Shared sub-join evaluation across figure scenarios (off vs on)",
        [
            "scenario",
            "answers_off",
            "answers_on",
            "answers_equal",
            "traffic/node off",
            "traffic/node on",
            "qpl/node off",
            "qpl/node on",
            "stored_off",
            "stored_on",
            "merged",
            "evals_saved",
            "verdict",
        ],
    );
    for (name, scenario) in figure_scenarios(scale) {
        let off = run_experiment(&scenario, EngineConfig::default(), &[]);
        let on = run_experiment(&scenario, EngineConfig::default().with_subjoin_sharing(true), &[]);
        let answers_equal = off.answers == on.answers;
        let wins = answers_equal
            && on.stats.traffic_total <= off.stats.traffic_total
            && on.stats.qpl_total <= off.stats.qpl_total
            && on.stats.stored_queries_current <= off.stats.stored_queries_current;
        table.push_row([
            name.to_string(),
            off.answers.to_string(),
            on.answers.to_string(),
            answers_equal.to_string(),
            fmt_f(per_node(off.stats.traffic_total, off.nodes)),
            fmt_f(per_node(on.stats.traffic_total, on.nodes)),
            fmt_f(per_node(off.stats.qpl_total, off.nodes)),
            fmt_f(per_node(on.stats.qpl_total, on.nodes)),
            off.stats.stored_queries_current.to_string(),
            on.stats.stored_queries_current.to_string(),
            on.stats.sharing.merged_queries.to_string(),
            on.stats.sharing.evals_saved.to_string(),
            if wins { "win" } else { "no-win" }.to_string(),
        ]);
    }
    vec![table]
}

/// Runs the generator selected by `name` (`fig2` … `fig9`, `ablation`,
/// `sharing`, `all`).
pub fn run_figure(name: &str, scale: Scale) -> Option<Vec<Table>> {
    match name {
        "ablation" | "ablation_ric" => Some(ablation_ric_reuse(scale)),
        "sharing" | "sharing_modes" => Some(sharing_modes(scale)),
        "fig2" => Some(fig2(scale)),
        "fig3" => Some(fig3(scale)),
        "fig4" => Some(fig4(scale)),
        "fig5" => Some(fig5(scale)),
        "fig6" => Some(fig6(scale)),
        "fig7" | "fig8" | "fig7_fig8" => Some(fig7_fig8(scale)),
        "fig9" => Some(fig9(scale)),
        "fig9_split" | "skew" => Some(fig9_split(scale)),
        "all" => {
            let mut tables = Vec::new();
            tables.extend(fig2(scale));
            tables.extend(fig3(scale));
            tables.extend(fig4(scale));
            tables.extend(fig5(scale));
            tables.extend(fig6(scale));
            tables.extend(fig7_fig8(scale));
            tables.extend(fig9(scale));
            tables.extend(sharing_modes(scale));
            Some(tables)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_shape_holds_at_smoke_scale() {
        let tables = fig2(Scale::Smoke);
        assert_eq!(tables.len(), 3);
        let traffic = &tables[0];
        assert_eq!(traffic.headers()[1], "worst");
        let last = traffic.rows().last().unwrap();
        let worst_traffic: f64 = last[1].parse().unwrap();
        let rjoin_traffic: f64 = last[3].parse().unwrap();
        assert!(worst_traffic > 0.0 && rjoin_traffic > 0.0);

        // The query-processing-load advantage of RIC-aware placement shows
        // up even at smoke scale (the traffic advantage needs the paper's
        // query counts to amortise the RIC-request cost, see EXPERIMENTS.md).
        let qpl = &tables[1];
        let last = qpl.rows().last().unwrap();
        let worst_qpl: f64 = last[1].parse().unwrap();
        let rjoin_qpl: f64 = last[3].parse().unwrap();
        assert!(
            worst_qpl >= rjoin_qpl,
            "worst placement should not process fewer rewritten queries \
             (worst={worst_qpl}, rjoin={rjoin_qpl})"
        );
    }

    /// Figure 2's ordering at reduced scale: at the last tuple point RJoin
    /// costs less than Random, and Random less than Worst, in traffic,
    /// query-processing load and storage load per node. The figure runs
    /// `EngineConfig::default()`, which has no ALTT and misses answers;
    /// ROADMAP item 2 moves this guard to the complete configuration.
    #[test]
    fn fig2_orders_rjoin_below_random_below_worst_at_reduced_scale() {
        let tables = fig2(Scale::Reduced);
        for table in &tables {
            assert_eq!(&table.headers()[1..4], ["worst", "random", "rjoin"]);
            let last = table.rows().last().expect("a tuple point");
            let [worst, random, rjoin] =
                [1, 2, 3].map(|column| last[column].parse::<f64>().expect("a number"));
            assert!(
                rjoin < random && random < worst,
                "{}: rjoin {rjoin}, random {random}, worst {worst} at {} tuples",
                table.title(),
                last[0]
            );
        }
    }

    #[test]
    fn fig9_reports_both_configurations() {
        let tables = fig9(Scale::Smoke);
        assert_eq!(tables.len(), 4);
        let summary = &tables[2];
        assert_eq!(summary.rows().len(), 4);
        let max_without: u64 = summary.rows()[0][1].parse().unwrap();
        let max_with: u64 = summary.rows()[0][2].parse().unwrap();
        assert!(max_with <= max_without, "id movement must not increase the maximum load");
    }

    #[test]
    fn fig9_split_extension_composes_the_two_tiers() {
        let tables = fig9_split(Scale::Smoke);
        assert_eq!(tables.len(), 1);
        let rows = tables[0].rows();
        assert_eq!(rows.len(), 5);
        let idmove_max: u64 = rows[0][2].parse().unwrap();
        let two_tier_max: u64 = rows[0][3].parse().unwrap();
        assert!(
            two_tier_max <= idmove_max,
            "splitting + id movement must not exceed id movement alone ({two_tier_max} vs {idmove_max})"
        );
        let answers_unsplit: u64 = rows[3][1].parse().unwrap();
        let answers_split: u64 = rows[3][3].parse().unwrap();
        assert_eq!(answers_unsplit, answers_split, "the split run must deliver the same answers");
        let keys_split: u64 = rows[4][3].parse().unwrap();
        assert!(keys_split > 0, "the smoke skew workload must trip the splitter");
    }

    #[test]
    fn unknown_figure_is_rejected() {
        assert!(run_figure("fig42", Scale::Smoke).is_none());
    }

    #[test]
    fn sharing_modes_covers_every_figure_scenario_with_sound_answers() {
        let tables = sharing_modes(Scale::Smoke);
        assert_eq!(tables.len(), 1);
        let table = &tables[0];
        assert_eq!(table.rows().len(), figure_scenarios(Scale::Smoke).len());
        for row in table.rows() {
            // On the pinned smoke workloads every scenario delivers
            // identical answers in both modes (a regression canary, not a
            // universal invariant: without the ALTT, completeness is
            // placement-dependent, and at reduced scale the deep-join
            // scenario's answer sets genuinely shift when twins merge —
            // which is exactly why `share_subjoins` stays off by default;
            // see the ROADMAP "sharing by default" note for the numbers).
            assert_eq!(
                row[3], "true",
                "scenario {} must deliver identical answers with sharing on ({} vs {})",
                row[0], row[1], row[2]
            );
            // Stored queries can only shrink when entries merge.
            let stored_off: u64 = row[8].parse().unwrap();
            let stored_on: u64 = row[9].parse().unwrap();
            assert!(
                stored_on <= stored_off,
                "scenario {}: sharing must not store more queries ({stored_on} > {stored_off})",
                row[0]
            );
        }
    }

    #[test]
    fn ric_reuse_ablation_reports_lower_ric_traffic_with_reuse() {
        let tables = ablation_ric_reuse(Scale::Smoke);
        assert_eq!(tables.len(), 1);
        let rows = tables[0].rows();
        let ric_with: f64 = rows[1][1].parse().unwrap();
        let ric_without: f64 = rows[1][2].parse().unwrap();
        assert!(
            ric_with <= ric_without,
            "reuse must not increase RIC traffic ({ric_with} vs {ric_without})"
        );
        // The answers row is well-formed for both configurations (at smoke
        // scale a 4-way join may legitimately produce zero answers).
        let _answers_with: u64 = rows[3][1].parse().unwrap();
        let _answers_without: u64 = rows[3][2].parse().unwrap();
    }
}
