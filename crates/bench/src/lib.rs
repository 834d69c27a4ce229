//! Benchmark harness for the RJoin reproduction.
//!
//! Every figure of the paper's experimental section (Section 8) has a
//! corresponding generator here that runs the simulation and produces the
//! same rows/series the paper plots:
//!
//! | Figure | Generator | What it shows |
//! |--------|-----------|---------------|
//! | 2(a–c) | [`figures::fig2`] | Worst vs Random vs RJoin: traffic, QPL, SL per node |
//! | 3(a–c) | [`figures::fig3`] | Effect of the number of incoming tuples |
//! | 4(a–c) | [`figures::fig4`] | Effect of the number of indexed queries |
//! | 5(a–c) | [`figures::fig5`] | Effect of the Zipf skew θ |
//! | 6(a–c) | [`figures::fig6`] | Effect of query complexity (4/6/8-way joins) |
//! | 7(a–c) | [`figures::fig7_fig8`] | Effect of the sliding-window size |
//! | 8(a–b) | [`figures::fig7_fig8`] | Cumulative QPL/SL per window size |
//! | 9(a–b) | [`figures::fig9`] | Identifier-movement load balancing |
//! | 9-ext | [`figures::fig9_split`] | Hot-key splitting + identifier movement |
//!
//! The `figures` binary (`cargo run -p rjoin-bench --release --bin figures`)
//! prints the tables; Criterion micro-benchmarks live under `benches/`.
//!
//! Absolute numbers depend on the machine and on the [`Scale`] used (the
//! paper's full workload is large; the default `Reduced` scale divides the
//! node/query/tuple counts by roughly 10 while preserving every trend).

pub mod figures;
pub mod runner;
pub mod scale;

pub use runner::{run_experiment, RunResult};
pub use scale::Scale;
