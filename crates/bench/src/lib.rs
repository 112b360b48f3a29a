//! Benchmark and reproduction support for the DLV privacy study.
//!
//! The interesting entry point is the `repro` binary (`cargo run --release
//! -p lookaside-bench --bin repro -- all`), which regenerates every table
//! and figure of the paper. `benches/` holds the two CI gate benches
//! (`alloc_sweep`, `stream_sweep`) and the §6.2.4 `dictionary` cost bench.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod labconfig;

/// Default dataset sizes for the quick reproduction pass.
pub const QUICK_SIZES: [usize; 3] = [100, 1_000, 10_000];

/// Dataset sizes of the paper's Tables 4–5.
pub const PAPER_SIZES: [usize; 4] = [100, 1_000, 10_000, 100_000];

/// Sweep sizes of Figs. 8–9 (the `--full` flag adds the 1M point).
pub const SWEEP_SIZES: [usize; 4] = [100, 1_000, 10_000, 100_000];
