//! The parallel executor: a `std::thread` worker pool draining a bounded
//! shard queue, with per-shard panic isolation and order-preserving
//! result collection.

use std::env;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread;

use crate::plan::Shard;
use crate::queue::BoundedQueue;

/// Environment variable overriding the default worker count.
pub const JOBS_ENV: &str = "LOOKASIDE_JOBS";

/// A shard that panicked instead of producing a result.
///
/// Panic isolation keeps one bad cell from poisoning a whole sweep: the
/// worker catches the unwind, reports it here, and moves on to the next
/// shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardError {
    /// Position of the failing shard in the submitted plan.
    pub shard_id: usize,
    /// The panic payload, stringified.
    pub message: String,
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard {} panicked: {}", self.shard_id, self.message)
    }
}

impl std::error::Error for ShardError {}

/// Runs shard plans across a worker pool.
///
/// Determinism contract: `run` returns results in submission order, each
/// produced by a pure function of its shard — so the output is identical
/// for every `jobs` value, including 1. Thread scheduling can only change
/// *when* a shard runs, never what it computes or where its result lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    jobs: usize,
}

impl Executor {
    /// An executor with exactly `jobs` workers (minimum 1).
    pub fn new(jobs: usize) -> Self {
        Executor { jobs: jobs.max(1) }
    }

    /// A single-worker executor — the reference for byte-identity checks.
    pub fn serial() -> Self {
        Executor::new(1)
    }

    /// Worker count from `LOOKASIDE_JOBS` when set to a positive integer,
    /// else [`std::thread::available_parallelism`].
    pub fn from_env() -> Self {
        // lint:allow(determinism::env-read) -- LOOKASIDE_JOBS selects the worker count only; the reduction is ordered by shard id, so jobs never reaches results
        let from_var = env::var(JOBS_ENV).ok().and_then(|v| v.trim().parse::<usize>().ok());
        match from_var {
            Some(n) if n >= 1 => Executor::new(n),
            _ => Executor::new(thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)),
        }
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs every shard through `task`, returning one result per shard in
    /// submission order.
    ///
    /// With one worker (or one shard) everything runs inline on the
    /// calling thread; otherwise a scoped pool of `min(jobs, shards)`
    /// workers drains a bounded queue. A panicking shard yields
    /// `Err(ShardError)` in its slot; the remaining shards still run.
    pub fn run<I, T, F>(&self, shards: &[Shard<I>], task: F) -> Vec<Result<T, ShardError>>
    where
        I: Sync,
        T: Send,
        F: Fn(&Shard<I>) -> T + Sync,
    {
        let workers = self.jobs.min(shards.len());
        if workers <= 1 {
            return shards.iter().map(|shard| run_one(&task, shard)).collect();
        }
        let queue: BoundedQueue<(usize, &Shard<I>)> = BoundedQueue::new(workers * 2);
        let mut slots: Vec<Option<Result<T, ShardError>>> = shards.iter().map(|_| None).collect();
        thread::scope(|scope| {
            let queue = &queue;
            let task = &task;
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(move || {
                        let mut done = Vec::new();
                        while let Some((slot, shard)) = queue.pop() {
                            done.push((slot, run_one(task, shard)));
                        }
                        done
                    })
                })
                .collect();
            for item in shards.iter().enumerate() {
                if !queue.push(item) {
                    break;
                }
            }
            queue.close();
            for handle in handles {
                // lint:allow(panic::expect) -- worker closures only pop the queue and call run_one, which catches every shard panic; a failed join is an engine bug, not a shard fault
                let worker_results = handle.join().expect("worker died outside a shard");
                for (slot, result) in worker_results {
                    if let Some(cell) = slots.get_mut(slot) {
                        *cell = Some(result);
                    }
                }
            }
        });
        // lint:allow(panic::expect) -- every shard id is pushed exactly once and each worker reports every shard it popped, so a hole here is an engine bug worth failing loudly
        slots.into_iter().map(|slot| slot.expect("every shard reports exactly once")).collect()
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::from_env()
    }
}

/// Unwraps a full set of shard results, panicking with the first
/// [`ShardError`] — for experiments where a missing cell would corrupt
/// the table being built.
///
/// # Panics
///
/// Panics if any shard failed.
#[allow(clippy::panic)]
pub fn expect_all<T>(results: Vec<Result<T, ShardError>>) -> Vec<T> {
    results
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            // lint:allow(panic::panic-macro) -- expect_all's documented contract is to propagate the first shard failure as a panic
            Err(e) => panic!("{e}"),
        })
        .collect()
}

pub(crate) fn run_one<I, T, F>(task: &F, shard: &Shard<I>) -> Result<T, ShardError>
where
    F: Fn(&Shard<I>) -> T,
{
    catch_unwind(AssertUnwindSafe(|| task(shard)))
        .map_err(|payload| ShardError { shard_id: shard.id, message: panic_message(&*payload) })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ShardPlan;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_keep_submission_order_at_any_job_count() {
        let shards = ShardPlan::new(3).over(0..64usize);
        let serial: Vec<u64> =
            expect_all(Executor::serial().run(&shards, |s| s.seed ^ s.input as u64));
        for jobs in [2, 3, 8] {
            let parallel: Vec<u64> =
                expect_all(Executor::new(jobs).run(&shards, |s| s.seed ^ s.input as u64));
            assert_eq!(parallel, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn every_shard_runs_exactly_once() {
        let shards = ShardPlan::new(0).over(0..100usize);
        let ran = AtomicUsize::new(0);
        let results = Executor::new(4).run(&shards, |s| {
            ran.fetch_add(1, Ordering::Relaxed);
            s.input
        });
        assert_eq!(ran.load(Ordering::Relaxed), 100);
        assert_eq!(results.len(), 100);
    }

    #[test]
    fn panicking_shard_reports_error_without_poisoning_the_run() {
        let shards = ShardPlan::new(1).over(0..10usize);
        for jobs in [1, 4] {
            let results = Executor::new(jobs).run(&shards, |s| {
                assert!(s.input != 3, "cell {} exploded", s.input);
                s.input * 2
            });
            for (i, result) in results.iter().enumerate() {
                if i == 3 {
                    let err = result.as_ref().expect_err("shard 3 must fail");
                    assert_eq!(err.shard_id, 3);
                    assert!(err.message.contains("cell 3 exploded"), "{err}");
                } else {
                    assert_eq!(*result.as_ref().expect("healthy shard"), i * 2);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "shard 2 panicked")]
    fn expect_all_surfaces_the_first_failure() {
        let shards = ShardPlan::new(1).over(0..4usize);
        let results = Executor::serial().run(&shards, |s| {
            assert!(s.input != 2, "boom");
            s.input
        });
        let _ = expect_all(results);
    }

    #[test]
    fn empty_plan_is_fine() {
        let shards: Vec<crate::plan::Shard<u8>> = Vec::new();
        let results = Executor::new(8).run(&shards, |s| s.input);
        assert!(results.is_empty());
    }

    #[test]
    fn from_env_floor_is_one_worker() {
        assert!(Executor::from_env().jobs() >= 1);
        assert_eq!(Executor::new(0).jobs(), 1);
    }
}
