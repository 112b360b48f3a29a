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
//! * [`Executor`] — the run options (`--jobs N` workers, default
//!   [`std::thread::available_parallelism`]; the retry budget; the fault
//!   plan; `--allow-partial`) and the one way to run a plan,
//!   [`Executor::sweep`]: a scoped `std::thread` pool folding results in
//!   shard-id order, with per-shard panic isolation — a panicking shard
//!   is retried, then listed in the sweep's [`Coverage`] instead of
//!   poisoning the run.
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
//! use std::ops::Range;
//!
//! use lookaside_engine::{Executor, Shard, ShardPlan};
//!
//! let shards = ShardPlan::new(42).split_range(1..101, 4);
//! let range_sum = |shard: &Shard<Range<usize>>| shard.input.clone().sum::<usize>();
//! let total = |acc: usize, _shard_id, sum| acc + sum;
//! let out = Executor::new(4).sweep(&shards, range_sum, 0, total);
//! assert!(out.coverage.is_complete());
//! assert_eq!(out.value, (1..101).sum::<usize>());
//! // Identical reduction regardless of worker count:
//! assert_eq!(Executor::serial().sweep(&shards, range_sum, 0, total).value, out.value);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
pub mod diag;
mod executor;
mod plan;
mod queue;
mod seed;
mod supervisor;

pub use checkpoint::{
    crc32, run_fingerprint, Checkpoint, JournalCodec, JournalError, JOURNAL_MAGIC, JOURNAL_VERSION,
};
pub use executor::Executor;
pub use plan::{Shard, ShardPlan};
pub use queue::BoundedQueue;
pub use seed::splitmix64;
pub use supervisor::{
    Coverage, EngineFault, EngineFaultPlan, RetryPolicy, ShardFailure, SweepOutcome,
};

/// The fold contract of [`Executor::sweep`]: the fold sees every
/// completed shard in ascending shard id, so it equals the serial reduce
/// at any worker count.
#[cfg(test)]
mod fold {
    mod tests {
        use crate::{Executor, Shard, ShardPlan};

        fn collect<T: Send>(
            exec: &Executor,
            shards: &[Shard<usize>],
            task: impl Fn(&Shard<usize>) -> T + Sync,
        ) -> Vec<T> {
            let out = exec.sweep(shards, task, Vec::new(), |mut acc, _shard_id, v| {
                acc.push(v);
                acc
            });
            assert!(out.coverage.is_complete(), "{}", out.coverage.table());
            out.value
        }

        #[test]
        fn fold_matches_serial_reduce_at_any_job_count() {
            let shards = ShardPlan::new(7).over(0..97usize);
            let reduced: Vec<u64> = shards.iter().map(|s| s.seed ^ s.input as u64).collect();
            for jobs in [1, 2, 3, 8] {
                let folded = collect(&Executor::new(jobs), &shards, |s| s.seed ^ s.input as u64);
                assert_eq!(folded, reduced, "jobs={jobs}");
            }
        }

        #[test]
        fn fold_on_empty_plan_returns_init() {
            let shards: Vec<Shard<u8>> = Vec::new();
            let out =
                Executor::new(4).sweep(&shards, |s| s.input, 41u32, |acc, _, v| acc + v as u32);
            assert_eq!(out.value, 41);
            assert!(out.coverage.is_complete());
        }

        #[test]
        fn fold_sees_results_in_shard_order() {
            let shards = ShardPlan::new(0).over(0..64usize);
            for jobs in [1, 2, 8] {
                let out = Executor::new(jobs).sweep(
                    &shards,
                    |s| s.input,
                    Vec::new(),
                    |mut acc: Vec<(usize, usize)>, shard_id, v| {
                        acc.push((shard_id, v));
                        acc
                    },
                );
                let expected: Vec<(usize, usize)> = (0..64).map(|i| (i, i)).collect();
                assert_eq!(out.value, expected, "jobs={jobs}");
            }
        }
    }
}
