//! Experiment harness: the experiments (E1–E18) that stand in for
//! the paper's missing measurement tables, the machine-independent
//! counter reports and their differential `--smoke` gates
//! ([`report`]). Wall-time measurements of the engine live in the
//! repository benchmark (`benchmark/`), not here.
//!
//! Run the harness with:
//!
//! ```sh
//! cargo run -p kv-bench --release --bin harness
//! ```

#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod table;

pub use experiments::all_experiments;
pub use table::Table;
