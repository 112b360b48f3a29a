//! Streaming shard driver: fold results into one accumulator in shard-id
//! order instead of materialising a `Vec` of per-shard outputs.
//!
//! This is the engine half of the capture-less run path. `Executor::run`
//! keeps every shard's result alive until the caller reduces them —
//! O(shards) results, but each result may itself hold O(queries) state
//! (packet captures). [`Executor::run_fold`] instead hands each finished
//! shard to a fold closure the moment all lower-numbered shards have been
//! folded, so steady-state memory is the accumulator plus a reorder
//! buffer of at most O(shards) small shard outputs.
//!
//! Determinism contract: the fold always observes shard results in
//! ascending shard id, exactly as a serial loop would, for every worker
//! count. Errors are deterministic too — the returned [`ShardError`] is
//! the one with the smallest shard id, regardless of which worker hit a
//! panic first on the wall clock.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::thread;

use crate::executor::{run_one, Executor, ShardError};
use crate::plan::Shard;
use crate::queue::BoundedQueue;

impl Executor {
    /// Runs every shard through `task` and folds the results into `init`
    /// in shard-id order, returning the final accumulator.
    ///
    /// With one worker (or one shard) everything runs inline; otherwise a
    /// scoped pool drains a bounded queue and the calling thread folds
    /// results as they arrive, buffering out-of-order completions in a
    /// `BTreeMap` keyed by shard id. A panicking shard aborts the fold:
    /// the error with the smallest shard id is returned and later shards'
    /// results are dropped (workers still drain the queue so the scope
    /// joins cleanly).
    ///
    /// # Errors
    ///
    /// Returns the smallest-shard-id [`ShardError`] if any shard panicked.
    // lint:entry(hot-path)
    pub fn run_fold<I, T, A, F, G>(
        &self,
        shards: &[Shard<I>],
        task: F,
        init: A,
        mut fold: G,
    ) -> Result<A, ShardError>
    where
        I: Sync,
        T: Send,
        F: Fn(&Shard<I>) -> T + Sync,
        G: FnMut(A, T) -> A,
    {
        let workers = self.jobs().min(shards.len());
        if workers <= 1 {
            let mut acc = init;
            for shard in shards {
                acc = fold(acc, run_one(&task, shard)?);
            }
            return Ok(acc);
        }

        let queue: BoundedQueue<(usize, &Shard<I>)> = BoundedQueue::new(workers * 2);
        let (tx, rx) = mpsc::channel::<(usize, Result<T, ShardError>)>();
        let mut acc = Some(init);
        let mut first_error: Option<ShardError> = None;
        thread::scope(|scope| {
            let queue = &queue;
            let task = &task;
            for _ in 0..workers {
                let tx = tx.clone();
                scope.spawn(move || {
                    while let Some((slot, shard)) = queue.pop() {
                        if tx.send((slot, run_one(task, shard))).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            for item in shards.iter().enumerate() {
                if !queue.push(item) {
                    break;
                }
            }
            queue.close();

            // Fold strictly in shard-id order; out-of-order completions
            // wait in the reorder buffer. Workers send on an unbounded
            // channel so they never block on a slow fold.
            let mut pending: BTreeMap<usize, Result<T, ShardError>> = BTreeMap::new();
            let mut next = 0usize;
            for (slot, result) in rx {
                pending.insert(slot, result);
                while let Some(ready) = pending.remove(&next) {
                    next += 1;
                    if first_error.is_some() {
                        continue;
                    }
                    match ready {
                        Ok(value) => {
                            if let Some(current) = acc.take() {
                                acc = Some(fold(current, value));
                            }
                        }
                        Err(err) => first_error = Some(err),
                    }
                }
            }
        });
        match first_error {
            Some(err) => Err(err),
            // lint:allow(panic::expect) -- the accumulator is only taken while folding and always put back; a hole here is an engine bug worth failing loudly
            None => Ok(acc.expect("accumulator survives the fold")),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::executor::{Executor, ShardError};
    use crate::plan::ShardPlan;

    #[test]
    fn fold_matches_serial_reduce_at_any_job_count() {
        let shards = ShardPlan::new(7).over(0..97usize);
        let serial = Executor::serial()
            .run_fold(
                &shards,
                |s| s.seed ^ s.input as u64,
                Vec::new(),
                |mut acc, v| {
                    acc.push(v);
                    acc
                },
            )
            .expect("serial fold");
        for jobs in [2, 3, 8] {
            let parallel = Executor::new(jobs)
                .run_fold(
                    &shards,
                    |s| s.seed ^ s.input as u64,
                    Vec::new(),
                    |mut acc, v| {
                        acc.push(v);
                        acc
                    },
                )
                .expect("parallel fold");
            assert_eq!(parallel, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn fold_reports_the_smallest_failing_shard() {
        let shards = ShardPlan::new(1).over(0..32usize);
        for jobs in [1, 4] {
            let err: ShardError = Executor::new(jobs)
                .run_fold(
                    &shards,
                    |s| {
                        assert!(s.input != 5 && s.input != 20, "cell {} exploded", s.input);
                        s.input
                    },
                    0usize,
                    |acc, v| acc + v,
                )
                .expect_err("two shards explode");
            assert_eq!(err.shard_id, 5, "jobs={jobs}");
        }
    }

    #[test]
    fn fold_on_empty_plan_returns_init() {
        let shards: Vec<crate::plan::Shard<u8>> = Vec::new();
        let folded =
            Executor::new(4).run_fold(&shards, |s| s.input, 41u32, |acc, v| acc + v as u32);
        assert_eq!(folded.expect("empty fold"), 41);
    }

    #[test]
    fn fold_sees_results_in_shard_order() {
        let shards = ShardPlan::new(0).over(0..64usize);
        for jobs in [1, 2, 8] {
            let order = Executor::new(jobs)
                .run_fold(
                    &shards,
                    |s| s.input,
                    Vec::new(),
                    |mut acc: Vec<usize>, v| {
                        acc.push(v);
                        acc
                    },
                )
                .expect("fold");
            assert_eq!(order, (0..64).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }
}
