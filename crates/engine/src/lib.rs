//! Deterministic sharded parallel experiment engine.
//!
//! Every experiment in the reproduction is embarrassingly parallel by the
//! paper's own methodology: independent measurement boxes run their slice
//! of the workload, pcaps are merged offline. This crate supplies the
//! machinery to do exactly that on a thread pool **without giving up
//! bit-for-bit determinism**:
//!
//! * [`ShardPlan`] / [`Shard`] — pure-function decomposition of a
//!   workload (sweep points, grid cells, rank ranges, trace windows),
//!   each shard deriving its private RNG seed as
//!   [`splitmix64`]`(root_seed, shard_id)`,
//! * [`BoundedQueue`] — the bounded work queue workers drain,
//! * [`Executor`] — a scoped `std::thread` pool with a `--jobs N` knob
//!   (default [`std::thread::available_parallelism`], overridable via the
//!   `LOOKASIDE_JOBS` environment variable) and per-shard panic
//!   isolation: a panicking shard becomes a [`ShardError`] result instead
//!   of poisoning the run.
//!
//! The engine is workload-agnostic on purpose: it knows nothing about
//! DNS, captures, or simulated internets. Higher layers (the `lookaside`
//! core crate) hand it closures whose *workers own private simulated
//! Internet replicas*, then reduce the per-shard outputs in shard-id
//! order — which is what makes `jobs=1` and `jobs=N` byte-identical.
//!
//! # Example
//!
//! ```
//! use lookaside_engine::{expect_all, Executor, ShardPlan};
//!
//! let shards = ShardPlan::new(42).split_range(1..101, 4);
//! let sums: Vec<usize> = expect_all(
//!     Executor::new(4).run(&shards, |shard| shard.input.clone().sum::<usize>()),
//! );
//! assert_eq!(sums.iter().sum::<usize>(), (1..101).sum::<usize>());
//! // Identical reduction regardless of worker count:
//! let serial: Vec<usize> = expect_all(
//!     Executor::serial().run(&shards, |shard| shard.input.clone().sum::<usize>()),
//! );
//! assert_eq!(sums, serial);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
pub mod diag;
mod executor;
mod fold;
mod plan;
mod queue;
mod seed;
mod supervisor;

pub use checkpoint::{
    crc32, run_fingerprint, Checkpoint, JournalCodec, JournalError, JOURNAL_MAGIC, JOURNAL_VERSION,
};
pub use executor::{expect_all, Executor, ShardError, JOBS_ENV};
pub use plan::{Shard, ShardPlan};
pub use queue::BoundedQueue;
pub use seed::splitmix64;
pub use supervisor::{
    allow_partial_requested, checkpoint_path, Coverage, EngineFault, EngineFaultPlan, RetryPolicy,
    ShardFailure, Supervisor, SweepOutcome, Watchdog, ALLOW_PARTIAL_ENV, CHECKPOINT_ENV,
    FAULTS_ENV, RETRIES_ENV, WATCHDOG_ENV,
};
