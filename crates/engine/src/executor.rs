//! The executor: the run options every sharded sweep shares — worker
//! count, retry budget, fault plan, and whether a degraded sweep is
//! accepted. [`Executor::sweep`](crate::Executor::sweep) runs a plan
//! under them (see `supervisor.rs`).

use std::num::NonZeroUsize;
use std::thread;

use crate::supervisor::{EngineFaultPlan, RetryPolicy};

/// The options one sharded sweep runs under, parsed once at the binary
/// edge and passed down by reference.
///
/// Determinism contract: [`sweep`](Executor::sweep) folds results in
/// submission order, each produced by a pure function of its shard — so
/// the output is identical for every `jobs` value, including 1. Thread
/// scheduling can only change *when* a shard runs, never what it
/// computes or where its result lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    jobs: usize,
    /// Per-shard retry budget.
    pub retry: RetryPolicy,
    /// Injected faults; [`EngineFaultPlan::NONE`] outside tests.
    pub faults: EngineFaultPlan,
    /// Accept a degraded sweep (shards that exhausted their retry
    /// budget) instead of aborting — `repro --allow-partial`.
    pub allow_partial: bool,
}

impl Executor {
    /// An executor with exactly `jobs` workers (minimum 1), three
    /// attempts per shard, no injected faults, and degraded sweeps
    /// aborting.
    pub fn new(jobs: usize) -> Self {
        Executor {
            jobs: jobs.max(1),
            retry: RetryPolicy::default(),
            faults: EngineFaultPlan::NONE,
            allow_partial: false,
        }
    }

    /// A single-worker executor — the reference for byte-identity checks.
    pub fn serial() -> Self {
        Executor::new(1)
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }
}

impl Default for Executor {
    /// One worker per available core.
    fn default() -> Self {
        Executor::new(thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Shard, ShardPlan};
    use crate::supervisor::SweepOutcome;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Sweeps `shards` through `task`, collecting results in fold order.
    fn collect<I, T, F>(exec: &Executor, shards: &[Shard<I>], task: F) -> SweepOutcome<Vec<T>>
    where
        I: Sync,
        T: Send,
        F: Fn(&Shard<I>) -> T + Sync,
    {
        exec.sweep(shards, task, Vec::new(), |mut acc, _slot, v| {
            acc.push(v);
            acc
        })
    }

    #[test]
    fn results_keep_submission_order_at_any_job_count() {
        let shards = ShardPlan::new(3).over(0..64usize);
        let serial = collect(&Executor::serial(), &shards, |s| s.seed ^ s.input as u64).value;
        let reduced: Vec<u64> = shards.iter().map(|s| s.seed ^ s.input as u64).collect();
        assert_eq!(serial, reduced, "the fold sees shards in ascending id");
        for jobs in [2, 3, 8] {
            let parallel = collect(&Executor::new(jobs), &shards, |s| s.seed ^ s.input as u64);
            assert_eq!(parallel.value, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn every_shard_runs_exactly_once() {
        let shards = ShardPlan::new(0).over(0..100usize);
        let ran = AtomicUsize::new(0);
        let out = collect(&Executor::new(4), &shards, |s| {
            ran.fetch_add(1, Ordering::Relaxed);
            s.input
        });
        assert_eq!(ran.load(Ordering::Relaxed), 100);
        assert_eq!(out.value.len(), 100);
    }

    #[test]
    fn panicking_shard_reports_error_without_poisoning_the_run() {
        let shards = ShardPlan::new(1).over(0..10usize);
        for jobs in [1, 4] {
            let mut exec = Executor::new(jobs);
            exec.retry = RetryPolicy::NONE;
            let out = exec.sweep(
                &shards,
                |s| {
                    assert!(s.input != 3, "cell {} exploded", s.input);
                    s.input * 2
                },
                Vec::new(),
                |mut acc, slot, v| {
                    acc.push((slot, v));
                    acc
                },
            );
            let [failure] = out.coverage.failed.as_slice() else {
                panic!("jobs={jobs}: exactly shard 3 must fail: {}", out.coverage.table());
            };
            assert_eq!(failure.shard_id, 3);
            assert!(failure.message.contains("cell 3 exploded"), "{}", failure.message);
            let healthy: Vec<(usize, usize)> =
                (0..10).filter(|&i| i != 3).map(|i| (i, i * 2)).collect();
            assert_eq!(out.value, healthy, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_plan_is_fine() {
        let shards: Vec<Shard<u8>> = Vec::new();
        let out = Executor::new(8).sweep(&shards, |s| s.input, 41u32, |acc, _, v| acc + v as u32);
        assert_eq!(out.value, 41, "an empty sweep returns its init");
        assert!(out.coverage.is_complete());
    }

    #[test]
    fn worker_floor_is_one() {
        assert_eq!(Executor::new(0).jobs(), 1);
        assert!(Executor::default().jobs() >= 1);
    }
}
