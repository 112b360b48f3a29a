//! Sharded parallel execution of experiments.
//!
//! This module is the glue between the generic `lookaside-engine`
//! executor and the study's simulated Internet. The paper's own
//! methodology is embarrassingly parallel: independent measurement boxes
//! each run a slice of the workload against their own resolver, and the
//! pcaps are merged offline. Every experiment reproduces that model with
//! one [`Executor::sweep`]: each shard builds a **private replica** of
//! the simulated Internet (the simulator's `Rc`-based oracle is not
//! thread-shareable — and per-box replicas are the honest model anyway),
//! runs in its own virtual time, and returns a small result the caller
//! folds in ascending shard id. Worker threads only decide *when* a
//! shard runs, never what it produces, so `--jobs 1` and `--jobs N` are
//! byte-identical (the engine determinism suite pins this down).
//!
//! # Two cohort models
//!
//! The workspace shards along two different axes, and the distinction is
//! load-bearing:
//!
//! * **Rank sweeps shard by sweep point or contiguous rank range.** The
//!   paper's boxes each replay a contiguous slice of the ranked list, and
//!   adjacent ranks share registry NSEC spans — slicing contiguously
//!   preserves the span-cache locality the Fig. 8/9 calibration anchors
//!   depend on. Hashing ranks across boxes would scatter neighbours and
//!   silently deflate cache-hit ratios.
//! * **Client planes shard by hashed client cohort** (used by
//!   [`crate::farm`]). Clients are independent; their cohort is a pure
//!   function of `(seed, client)` (see
//!   `lookaside_population::StubPlane::cohort_of`), and the farm's
//!   reduction is a set union plus a min-merge — associative and
//!   commutative — so *any* partition of clients reduces to the same
//!   bytes. Here hashing is correct **and** required: it keeps cohort
//!   sizes balanced no matter how client ids are distributed.
//!
//! Both models end at the same place: output is a pure function of the
//! configuration, never of the worker pool.

use lookaside_engine::{Executor, Shard, SweepOutcome};

/// Unwraps a sweep, enforcing the no-silent-caps contract.
///
/// Complete sweeps pass straight through (with `--allow-partial` the
/// coverage summary is still printed, so a "clean" resumed run shows its
/// resumed-shard count). Degraded sweeps — shards that exhausted their
/// retry budget — print the full per-shard coverage table to **stderr**
/// (stdout stays byte-diffable) and then abort, unless `exec` accepts
/// partial results ([`Executor::allow_partial`], `repro --allow-partial`),
/// in which case the partial accumulator is returned and the caller's
/// tables simply omit the failed shards.
pub fn accept<A>(exec: &Executor, outcome: SweepOutcome<A>) -> A {
    if !outcome.coverage.is_complete() {
        lookaside_engine::diag::note(&outcome.coverage.table());
        assert!(
            exec.allow_partial,
            "sweep degraded: {} (rerun with --allow-partial to accept partial coverage)",
            outcome.coverage.summary()
        );
    } else if exec.allow_partial {
        lookaside_engine::diag::note(&outcome.coverage.summary());
    }
    outcome.value
}

/// Sweeps `shards` through `task` on `exec` and collects the completed
/// results in shard order — every one of them unless `exec` accepts a
/// degraded sweep ([`accept`]).
pub(crate) fn collect<I, T, F>(exec: &Executor, shards: &[Shard<I>], task: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&Shard<I>) -> T + Sync,
{
    let outcome = exec.sweep(shards, task, Vec::with_capacity(shards.len()), |mut acc, _, v| {
        acc.push(v);
        acc
    });
    accept(exec, outcome)
}
