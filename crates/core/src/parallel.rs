//! Sharded parallel execution of experiments.
//!
//! This module is the glue between the generic `lookaside-engine`
//! executor and the study's simulated Internet. The paper's own
//! methodology is embarrassingly parallel: independent measurement boxes
//! each run a slice of the ranked query list against their own resolver,
//! and the pcaps are merged offline. [`run_sharded`] reproduces exactly
//! that fleet model:
//!
//! * the rank list is split into contiguous ranges by
//!   [`ShardPlan::split_range`],
//! * each shard's [`Worker`] builds a **private replica** of the
//!   simulated Internet (the simulator's `Rc`-based oracle is not
//!   thread-shareable — and per-box replicas are the honest model
//!   anyway), runs its ranks in its own virtual time, and returns its
//!   capture plus additive counters. The replica's capture owns a
//!   private `NameTable` (see `lookaside_wire::NameTable`), so repeated
//!   qnames within a shard share one allocation while shards share no
//!   memory at all — interning changes where bytes live, never what they
//!   are, which is why it cannot perturb determinism,
//! * reduction merges captures in ascending shard id
//!   ([`Capture::merge`]'s `(shard_id, seq)` total order), sums the
//!   additive statistics, classifies leakage over the merged capture,
//!   and takes the *maximum* shard virtual time as the fleet's elapsed
//!   time (the boxes run concurrently in simulated time too).
//!
//! Every replica is built from the same [`RunConfig`], and classifying a
//! capture equals [`run`]'s per-packet fold, so with one shard the fleet
//! degenerates to exactly [`run`]'s serial path — byte for byte. With any shard count, the output is a pure function of
//! `(config, shard count)`: worker threads only decide *when* a shard
//! runs, never what it produces, so `--jobs 1` and `--jobs N` are
//! byte-identical (the engine determinism suite pins this down).
//!
//! # Two cohort models
//!
//! The workspace shards along two different axes, and the distinction is
//! load-bearing:
//!
//! * **Rank sweeps shard by contiguous rank range** (this module's
//!   [`run_sharded`]). The paper's boxes each replay a contiguous slice
//!   of the ranked list, and adjacent ranks share registry NSEC spans —
//!   slicing contiguously preserves the span-cache locality the Fig. 8/9
//!   calibration anchors depend on. Hashing ranks across boxes would
//!   scatter neighbours and silently deflate cache-hit ratios.
//! * **Client planes shard by hashed client cohort** ([`fold_cohorts`],
//!   used by [`crate::farm`]). Clients are independent; their cohort is a
//!   pure function of `(seed, client)` (see
//!   `lookaside_population::StubPlane::cohort_of`), and the farm's
//!   reduction is a set union plus a min-merge — associative and
//!   commutative — so *any* partition of clients reduces to the same
//!   bytes. Here hashing is correct **and** required: it keeps cohort
//!   sizes balanced no matter how client ids are distributed.
//!
//! Both models end at the same place: output is a pure function of the
//! configuration, never of the worker pool.

use std::ops::Range;

use lookaside_engine::{expect_all, Executor, ShardPlan, Supervisor, SweepOutcome};
use lookaside_netsim::{Capture, TrafficStats};
use lookaside_resolver::{Counters, RecursiveResolver, SecurityStatus};
use lookaside_wire::{Name, RrType};

use crate::experiments::{run, QuerySet, RunConfig, RunOutcome, StatusTally};
use crate::internet::{Internet, InternetParams};
use crate::leakage::classify;

/// The executor experiments route through: honours `LOOKASIDE_JOBS`,
/// defaulting to the machine's available parallelism.
pub fn executor() -> Executor {
    Executor::from_env()
}

/// The supervisor experiments route through: honours
/// `LOOKASIDE_RETRIES`, `LOOKASIDE_WATCHDOG_MS` and `LOOKASIDE_FAULTS`,
/// defaulting to three attempts per shard with the watchdog disarmed and
/// no injected faults — a configuration under which every clean run is
/// byte-identical to the unsupervised path.
pub fn supervisor() -> Supervisor {
    Supervisor::from_env()
}

/// Unwraps a supervised sweep, enforcing the no-silent-caps contract.
///
/// Complete sweeps pass straight through (with `--allow-partial` the
/// coverage summary is still printed, so a "clean" resumed run shows its
/// resumed-shard count). Degraded sweeps — shards that exhausted their
/// retry budget — print the full per-shard coverage table to **stderr**
/// (stdout stays byte-diffable) and then abort, unless the session opted
/// into partial results via `repro --allow-partial` /
/// `LOOKASIDE_ALLOW_PARTIAL`, in which case the partial accumulator is
/// returned and the caller's tables simply omit the failed shards.
pub fn accept<A>(outcome: SweepOutcome<A>) -> A {
    let allow_partial = lookaside_engine::allow_partial_requested();
    if !outcome.coverage.is_complete() {
        lookaside_engine::diag::note(&outcome.coverage.table());
        assert!(
            allow_partial,
            "sweep degraded: {} (rerun with --allow-partial to accept partial coverage)",
            outcome.coverage.summary()
        );
    } else if allow_partial {
        lookaside_engine::diag::note(&outcome.coverage.summary());
    }
    outcome.value
}

/// Folds `work` over cohorts `0..cohorts` on `exec`'s pool into one
/// accumulator, in ascending cohort order, so only one cohort result is
/// live at a time.
///
/// This is the client-plane half of the fleet machinery (see the module
/// docs): each shard's input is a cohort *index*, the caller resolves
/// membership through a stable hash, and the caller's reduction must be
/// order-independent (client planes use set union + min-merge). The
/// engine seeds each shard from `splitmix64(seed, cohort)` should `work`
/// want per-cohort entropy; results fold in cohort order, never in
/// completion order, so the worker pool cannot leak into the output.
///
/// Runs under the session [`supervisor`]: failed cohorts are retried
/// under the bounded budget, and a degraded sweep aborts with its
/// coverage table via [`accept`] unless `--allow-partial` is set.
pub fn fold_cohorts<T, A, F, G>(
    seed: u64,
    cohorts: usize,
    exec: &Executor,
    work: F,
    init: A,
    mut fold: G,
) -> A
where
    T: Send,
    F: Fn(&lookaside_engine::Shard<usize>) -> T + Sync,
    G: FnMut(A, T) -> A,
{
    assert!(cohorts > 0, "cohort count must be positive");
    let plan = ShardPlan::new(seed).over(0..cohorts);
    let sup = supervisor();
    accept(exec.run_fold_supervised(&plan, work, init, |acc, _cohort, t| fold(acc, t), &sup))
}

/// One measurement box of the fleet: a private simulated-Internet replica
/// plus the resolver under test, re-buildable cheaply from a [`RunConfig`].
pub struct Worker {
    internet: Internet,
    resolver: RecursiveResolver,
}

impl Worker {
    /// Builds a replica for `config` — the Internet [`run`] builds, except
    /// that the network records the run's capture filter instead of
    /// folding packets into a sink, so the box can ship its pcap. Each
    /// worker calls this on its own thread; replicas share nothing.
    pub fn replica(config: &RunConfig) -> Self {
        let limit = config.queries.max_rank().max(1);
        let mut params = InternetParams::for_top(limit, config.population, config.remedy);
        params.dlv_span_ttl = config.dlv_span_ttl;
        params.dlv_denial = config.dlv_denial;
        params.seed = config.seed;
        params.capture = config.capture;
        let internet = Internet::build(params);
        let resolver = internet.resolver(config.resolver, config.seed ^ 0x5a17);
        Worker { internet, resolver }
    }

    /// Resolves the half-open rank range `lo..hi` in order and returns the
    /// box's local measurements. Consumes the worker: a fleet box runs one
    /// slice, then ships its capture for offline merging.
    pub fn run_ranks(mut self, ranks: Range<usize>) -> ShardOutcome {
        let mut statuses = StatusTally::default();
        let names: Vec<Name> = self.internet.population.rank_range(ranks).collect();
        for name in &names {
            let result = self.resolver.resolve(&mut self.internet.net, name, RrType::A);
            tally(&mut statuses, &result);
        }
        ShardOutcome {
            capture: self.internet.net.capture().clone(),
            stats: self.internet.net.stats().clone(),
            counters: self.resolver.counters,
            statuses,
            elapsed_ns: self.internet.net.now_ns(),
            queried: names.len(),
            dlv_apex: self.internet.dlv_apex.clone(),
        }
    }
}

/// What one fleet box ships home: its pcap and additive counters. The
/// capture is kept raw (not pre-classified) so reduction can classify the
/// *merged* capture, exactly like the paper's offline analysis.
pub struct ShardOutcome {
    /// The box's packet capture.
    pub capture: Capture,
    /// The box's upstream traffic totals.
    pub stats: TrafficStats,
    /// Resolver-internal counters.
    pub counters: Counters,
    /// Validation-status tallies.
    pub statuses: StatusTally,
    /// The box's simulated wall-clock, nanoseconds.
    pub elapsed_ns: u64,
    /// Names the box queried.
    pub queried: usize,
    /// Registry apex, for classification.
    pub dlv_apex: Name,
}

/// Records one resolution's validation status into a tally.
pub(crate) fn tally(
    statuses: &mut StatusTally,
    result: &Result<lookaside_resolver::Resolution, lookaside_resolver::ResolveError>,
) {
    match result {
        Ok(res) => match res.status {
            SecurityStatus::Secure => {
                statuses.secure += 1;
                if res.secured_via_dlv {
                    statuses.secure_via_dlv += 1;
                }
            }
            SecurityStatus::Insecure => statuses.insecure += 1,
            SecurityStatus::Bogus => statuses.bogus += 1,
            SecurityStatus::Indeterminate => statuses.indeterminate += 1,
        },
        Err(_) => statuses.errors += 1,
    }
}

/// Runs `config` as a fleet of `shards` independent measurement boxes on
/// `exec`'s worker pool and reduces deterministically.
///
/// With `shards <= 1` — or a query set that is not a rank sweep
/// ([`QuerySet::Top`]) — this is exactly [`run`]. With more shards the
/// rank list is split contiguously; each box starts cold (fresh caches,
/// like the paper's per-box runs), so totals can differ from the
/// single-box serial path — but they are **identical across every
/// `jobs` value and across repeated runs**, which is the invariant the
/// engine guarantees and the tests enforce.
pub fn run_sharded(config: &RunConfig, shards: usize, exec: &Executor) -> RunOutcome {
    let n = match &config.queries {
        QuerySet::Top(n) => *n,
        _ => return run(config),
    };
    let plan = ShardPlan::new(config.seed).split_range(1..n + 1, shards);
    if plan.len() <= 1 {
        return run(config);
    }
    let outcomes =
        expect_all(exec.run(&plan, |shard| Worker::replica(config).run_ranks(shard.input.clone())));
    reduce(outcomes)
}

/// Deterministic reduction: captures merge in ascending shard id, the
/// additive counters sum, elapsed time is the fleet maximum.
// lint:sink(determinism)
fn reduce(shards: Vec<ShardOutcome>) -> RunOutcome {
    let mut capture = Capture::default();
    let mut stats = TrafficStats::new();
    let mut counters = Counters::default();
    let mut statuses = StatusTally::default();
    let mut elapsed_ns = 0u64;
    let mut queried = 0usize;
    let mut dlv_apex = None;
    for shard in &shards {
        capture.merge(&shard.capture);
        stats.merge(&shard.stats);
        counters.merge(&shard.counters);
        statuses.merge(&shard.statuses);
        elapsed_ns = elapsed_ns.max(shard.elapsed_ns);
        queried += shard.queried;
        dlv_apex.get_or_insert_with(|| shard.dlv_apex.clone());
    }
    let dlv_apex = dlv_apex.expect("reduce requires at least one shard");
    RunOutcome {
        leakage: classify(&capture, &dlv_apex),
        stats,
        counters,
        statuses,
        elapsed_ns,
        queried,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_fleet_is_byte_identical_to_serial() {
        let config = RunConfig::quick(25);
        let serial = run(&config);
        let fleet = run_sharded(&config, 1, &Executor::serial());
        assert_eq!(fleet.stats, serial.stats);
        assert_eq!(fleet.leakage, serial.leakage);
        assert_eq!(fleet.counters, serial.counters);
        assert_eq!(fleet.statuses, serial.statuses);
        assert_eq!(fleet.elapsed_ns, serial.elapsed_ns);
        assert_eq!(fleet.queried, serial.queried);
    }

    #[test]
    fn fleet_output_is_jobs_invariant() {
        let config = RunConfig::quick(24);
        let reference = run_sharded(&config, 3, &Executor::serial());
        for jobs in [2, 4] {
            let parallel = run_sharded(&config, 3, &Executor::new(jobs));
            assert_eq!(parallel.stats, reference.stats, "jobs={jobs}");
            assert_eq!(parallel.leakage, reference.leakage, "jobs={jobs}");
            assert_eq!(parallel.counters, reference.counters, "jobs={jobs}");
            assert_eq!(parallel.elapsed_ns, reference.elapsed_ns, "jobs={jobs}");
        }
    }

    #[test]
    fn fleet_queries_every_rank_exactly_once() {
        let config = RunConfig::quick(30);
        let fleet = run_sharded(&config, 4, &Executor::new(2));
        assert_eq!(fleet.queried, 30);
        let total = fleet.statuses.secure
            + fleet.statuses.insecure
            + fleet.statuses.bogus
            + fleet.statuses.indeterminate
            + fleet.statuses.errors;
        assert_eq!(total, 30);
    }

    #[test]
    fn non_rank_query_sets_fall_back_to_serial() {
        let mut config = RunConfig::quick(12);
        config.queries = QuerySet::Ranks(vec![3, 1, 2]);
        let serial = run(&config);
        let fleet = run_sharded(&config, 4, &Executor::new(4));
        assert_eq!(fleet.stats, serial.stats);
        assert_eq!(fleet.leakage, serial.leakage);
    }
}
