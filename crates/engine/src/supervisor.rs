//! Sweep supervision: bounded retries, seeded fault injection, and
//! coverage accounting over every [`Executor`] sweep (DESIGN.md §14).
//!
//! [`Executor::sweep`] runs a shard plan and folds completed results in
//! ascending shard id:
//!
//! * failed shards are requeued under a bounded, seeded [`RetryPolicy`]
//!   with a per-shard attempt budget;
//! * shards that exhaust their budget degrade into explicit [`Coverage`]
//!   accounting instead of aborting the sweep — no silent caps;
//! * a seeded [`EngineFaultPlan`] injects worker panics so every path
//!   above is testable without real crashes.
//!
//! [`Executor::sweep_checkpointed`] is the same supervision with a checkpoint
//! journal attached.
//!
//! Determinism contract: the folded value and the coverage are pure
//! functions of (shards, task, retry budget, fault plan). The worker
//! count steers only *scheduling* — never what any shard computes nor
//! the order the fold observes results.

// lint:allow-file(panic::slice-index) -- every per-shard vector below is constructed with exactly shards.len() elements and indexed only by slot ids yielded by enumerate()/channel echoes of those ids; bounds are structural, and a miss would be an engine bug worth a loud panic

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;

use crate::checkpoint::{Checkpoint, JournalCodec, JournalError};
use crate::executor::Executor;
use crate::plan::Shard;
use crate::queue::BoundedQueue;
use crate::seed::splitmix64;

/// Bounded, seeded retry budget for failed shards.
///
/// The seed only spreads requeued shards across the backlog (front or
/// back, drawn per `(shard, attempt)`) so retry storms do not redispatch
/// in lockstep; it can never reach a shard's computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per shard, including the first (minimum 1).
    pub max_attempts: u32,
    /// Seed for the requeue-position draw.
    pub seed: u64,
}

impl RetryPolicy {
    /// One attempt per shard — failures are terminal immediately.
    pub const NONE: RetryPolicy = RetryPolicy { max_attempts: 1, seed: 0 };

    /// `max_attempts` total attempts per shard (floored at 1).
    pub fn new(max_attempts: u32) -> Self {
        RetryPolicy { max_attempts: max_attempts.max(1), seed: 0x5e7_21e5 }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::new(3)
    }
}

/// A fault injected into one `(shard, attempt)` execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineFault {
    /// Run the task normally.
    None,
    /// Fail the attempt as if the worker panicked inside the task.
    Panic,
}

/// Seeded worker panic injection — the engine's chaos plane, mirroring
/// the resolver's link-fault plane. Only tests set one.
///
/// Faults are a pure function of `(seed, shard_id, attempt)`, so a
/// faulty run is exactly reproducible and the failure set in a coverage
/// table is byte-identical across `--jobs` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineFaultPlan {
    /// Root seed of the fault stream.
    pub seed: u64,
    /// Per-mille probability that an attempt dies as a worker panic.
    pub panic_per_mille: u16,
    /// Attempts at index `>= faulty_attempts` always run clean, so tests
    /// can guarantee a bounded retry budget wins.
    pub faulty_attempts: u32,
}

impl EngineFaultPlan {
    /// No injected faults — the production setting.
    pub const NONE: EngineFaultPlan =
        EngineFaultPlan { seed: 0, panic_per_mille: 0, faulty_attempts: 0 };

    /// Whether the plan can ever inject anything.
    pub fn is_none(&self) -> bool {
        self.panic_per_mille == 0
    }

    /// Draws the fault for one `(shard_id, attempt)` execution.
    pub fn draw(&self, shard_id: usize, attempt: u32) -> EngineFault {
        if self.is_none() || attempt >= self.faulty_attempts {
            return EngineFault::None;
        }
        let roll =
            (splitmix64(splitmix64(self.seed, u64::from(attempt)), shard_id as u64) % 1000) as u16;
        if roll < self.panic_per_mille {
            EngineFault::Panic
        } else {
            EngineFault::None
        }
    }
}

/// One shard that exhausted its retry budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    /// Shard id within the plan.
    pub shard_id: usize,
    /// Attempts consumed (the full retry budget).
    pub attempts: u32,
    /// The last attempt's failure message.
    pub message: String,
}

/// Per-shard accounting of how a sweep ended.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Coverage {
    /// Shards in the plan.
    pub total: usize,
    /// Shards that produced a result, including resumed ones.
    pub completed: usize,
    /// Completed shards satisfied from a resumed checkpoint journal.
    pub resumed: usize,
    /// Shards that completed only after at least one failed attempt.
    pub retried: usize,
    /// Shards that exhausted their budget, ascending by shard id.
    pub failed: Vec<ShardFailure>,
}

impl Coverage {
    /// Whether every shard completed.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty() && self.completed == self.total
    }

    /// One-line deterministic summary, e.g.
    /// `coverage 17/20 shards (2 resumed, 1 retried, 3 failed)`.
    pub fn summary(&self) -> String {
        let mut s = format!("coverage {}/{} shards", self.completed, self.total);
        let mut notes = Vec::new();
        if self.resumed > 0 {
            notes.push(format!("{} resumed", self.resumed));
        }
        if self.retried > 0 {
            notes.push(format!("{} retried", self.retried));
        }
        if !self.failed.is_empty() {
            notes.push(format!("{} failed", self.failed.len()));
        }
        if !notes.is_empty() {
            s.push_str(&format!(" ({})", notes.join(", ")));
        }
        s
    }

    /// Multi-line deterministic coverage table: the summary line plus one
    /// line per failed shard. Everything in it is a pure function of the
    /// sweep configuration and fault plan.
    pub fn table(&self) -> String {
        let mut out = self.summary();
        for f in &self.failed {
            out.push_str(&format!(
                "\n  shard {}: failed after {} attempts: {}",
                f.shard_id, f.attempts, f.message
            ));
        }
        out
    }
}

/// A sweep's folded value plus its coverage accounting.
///
/// Callers must consult `coverage` before treating `value` as complete:
/// a degraded sweep folds only the shards that completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOutcome<A> {
    /// The fold over every completed shard, ascending shard id.
    pub value: A,
    /// What completed, what was resumed, what was retried, what failed.
    pub coverage: Coverage,
}

impl Executor {
    /// Runs every shard through `task` and folds completed results into
    /// `init` in ascending shard-id order, passing the shard id alongside
    /// each value so degraded folds can account for holes.
    ///
    /// With one worker (or one shard) everything runs inline on the
    /// calling thread; otherwise a scoped pool of `min(jobs, shards)`
    /// workers drains a bounded queue while the calling thread folds,
    /// buffering out-of-order completions. A panicking attempt is caught
    /// and retried within [`Executor::retry`]; a shard that exhausts the
    /// budget is skipped by the fold and listed in the coverage. Never
    /// panics on shard failure.
    // lint:entry(hot-path)
    pub fn sweep<I, T, A, F, G>(
        &self,
        shards: &[Shard<I>],
        task: F,
        init: A,
        fold: G,
    ) -> SweepOutcome<A>
    where
        I: Sync,
        T: Send,
        F: Fn(&Shard<I>) -> T + Sync,
        G: FnMut(A, usize, T) -> A,
    {
        let (outcome, _journal_err) =
            supervise(self, shards, task, init, fold, BTreeMap::new(), None);
        outcome
    }

    /// [`sweep`](Executor::sweep) with a checkpoint journal: shard
    /// results already in the journal are folded without re-running, and
    /// shards completed by this run are appended to it as the fold front
    /// advances.
    ///
    /// # Errors
    ///
    /// Returns the first [`JournalError`] hit while appending; the
    /// journal's durable prefix remains valid for a later resume.
    pub fn sweep_checkpointed<I, T, A, F, G>(
        &self,
        shards: &[Shard<I>],
        task: F,
        init: A,
        fold: G,
        ckpt: &mut Checkpoint<T>,
    ) -> Result<SweepOutcome<A>, JournalError>
    where
        I: Sync,
        T: Send + JournalCodec,
        F: Fn(&Shard<I>) -> T + Sync,
        G: FnMut(A, usize, T) -> A,
    {
        let resumed = ckpt.take_resumed();
        let (outcome, journal_err) = {
            let mut sink = |shard_id: usize, value: &T| ckpt.record(shard_id, value);
            supervise(self, shards, task, init, fold, resumed, Some(&mut sink))
        };
        if let Some(err) = journal_err {
            return Err(err);
        }
        ckpt.sync()?;
        Ok(outcome)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Open,
    Done,
    Failed,
}

type SinkRef<'a, T> = Option<&'a mut (dyn FnMut(usize, &T) -> Result<(), JournalError> + 'a)>;

/// Runs one attempt, catching a panic as its message.
fn run_attempt<I, T, F>(
    task: &F,
    shard: &Shard<I>,
    attempt: u32,
    faults: &EngineFaultPlan,
) -> Result<T, String>
where
    F: Fn(&Shard<I>) -> T,
{
    match faults.draw(shard.id, attempt) {
        EngineFault::Panic => Err(format!("injected worker panic (attempt {attempt})")),
        EngineFault::None => {
            catch_unwind(AssertUnwindSafe(|| task(shard))).map_err(|p| panic_message(&*p))
        }
    }
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

/// The fold front: per-slot state, the reorder buffer, the accumulator,
/// and the coverage being accounted.
struct Front<'s, T, A, G> {
    states: Vec<SlotState>,
    resumed: Vec<bool>,
    pending: BTreeMap<usize, T>,
    next: usize,
    acc: Option<A>,
    fold: G,
    cov: Coverage,
    max_attempts: u32,
    sink: SinkRef<'s, T>,
    journal_err: Option<JournalError>,
}

impl<T, A, G> Front<'_, T, A, G>
where
    G: FnMut(A, usize, T) -> A,
{
    /// Records attempt `attempt` of shard `slot`; returns the next attempt
    /// to run when the shard failed with budget left.
    fn settle(
        &mut self,
        slot: usize,
        shard_id: usize,
        attempt: u32,
        result: Result<T, String>,
    ) -> Option<u32> {
        match result {
            Ok(value) => {
                self.states[slot] = SlotState::Done;
                self.cov.completed += 1;
                if attempt > 0 {
                    self.cov.retried += 1;
                }
                self.pending.insert(slot, value);
            }
            Err(_) if attempt + 1 < self.max_attempts => return Some(attempt + 1),
            Err(message) => {
                self.states[slot] = SlotState::Failed;
                self.cov.failed.push(ShardFailure { shard_id, attempts: attempt + 1, message });
            }
        }
        self.advance();
        None
    }

    /// Advances the fold front over resolved slots: `Done` slots are
    /// journaled (unless resumed) and folded, `Failed` slots are skipped.
    fn advance(&mut self) {
        while let Some(state) = self.states.get(self.next) {
            match state {
                SlotState::Open => break,
                SlotState::Failed => self.next += 1,
                SlotState::Done => {
                    let Some(value) = self.pending.remove(&self.next) else { break };
                    if !self.resumed[self.next] && self.journal_err.is_none() {
                        if let Some(sink) = self.sink.as_mut() {
                            if let Err(e) = sink(self.next, &value) {
                                self.journal_err = Some(e);
                            }
                        }
                    }
                    if let Some(current) = self.acc.take() {
                        self.acc = Some((self.fold)(current, self.next, value));
                    }
                    self.next += 1;
                }
            }
        }
    }
}

fn supervise<I, T, A, F, G>(
    exec: &Executor,
    shards: &[Shard<I>],
    task: F,
    init: A,
    fold: G,
    resumed: BTreeMap<usize, T>,
    sink: SinkRef<'_, T>,
) -> (SweepOutcome<A>, Option<JournalError>)
where
    I: Sync,
    T: Send,
    F: Fn(&Shard<I>) -> T + Sync,
    G: FnMut(A, usize, T) -> A,
{
    let n = shards.len();
    let mut front = Front {
        states: vec![SlotState::Open; n],
        resumed: vec![false; n],
        pending: BTreeMap::new(),
        next: 0,
        acc: Some(init),
        fold,
        cov: Coverage { total: n, ..Coverage::default() },
        max_attempts: exec.retry.max_attempts,
        sink,
        journal_err: None,
    };
    for (id, value) in resumed {
        // Out-of-range ids can only come from a journal of a larger run;
        // the run fingerprint should prevent that, but never trust them.
        if id < n {
            front.states[id] = SlotState::Done;
            front.resumed[id] = true;
            front.cov.resumed += 1;
            front.cov.completed += 1;
            front.pending.insert(id, value);
        }
    }
    front.advance();

    let workers = exec.jobs().min(n);
    if workers <= 1 {
        for (slot, shard) in shards.iter().enumerate() {
            if front.states[slot] != SlotState::Open {
                continue;
            }
            let mut attempt = 0;
            while let Some(next) = front.settle(
                slot,
                shard.id,
                attempt,
                run_attempt(&task, shard, attempt, &exec.faults),
            ) {
                attempt = next;
            }
        }
    } else {
        supervise_parallel(exec, workers, shards, &task, &mut front);
    }

    let Front { acc, mut cov, journal_err, .. } = front;
    cov.failed.sort_by_key(|f| f.shard_id);
    let outcome = SweepOutcome {
        // lint:allow(panic::expect) -- the accumulator is only taken while folding and always put back; a hole here is an engine bug worth failing loudly
        value: acc.expect("accumulator survives the fold"),
        coverage: cov,
    };
    (outcome, journal_err)
}

fn supervise_parallel<I, T, A, F, G>(
    exec: &Executor,
    workers: usize,
    shards: &[Shard<I>],
    task: &F,
    front: &mut Front<'_, T, A, G>,
) where
    I: Sync,
    T: Send,
    F: Fn(&Shard<I>) -> T + Sync,
    G: FnMut(A, usize, T) -> A,
{
    let capacity = workers * 2;
    let queue: BoundedQueue<(usize, u32)> = BoundedQueue::new(capacity);
    let (tx, rx) = mpsc::channel::<(usize, u32, Result<T, String>)>();

    thread::scope(|scope| {
        let queue = &queue;
        let faults = &exec.faults;
        for _ in 0..workers {
            let tx = tx.clone();
            scope.spawn(move || {
                while let Some((slot, attempt)) = queue.pop() {
                    let Some(shard) = shards.get(slot) else { continue };
                    let result = run_attempt(task, shard, attempt, faults);
                    if tx.send((slot, attempt, result)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);

        // (slot, attempt) pairs waiting for a queue place; a slot is in
        // the backlog or in flight, never both, so it has one attempt
        // outstanding at a time.
        let mut backlog: VecDeque<(usize, u32)> = (0..shards.len())
            .filter(|&slot| front.states[slot] == SlotState::Open)
            .map(|slot| (slot, 0))
            .collect();
        let mut unresolved = backlog.len();
        let mut outstanding = 0usize;
        while unresolved > 0 {
            // outstanding < capacity guarantees push never blocks.
            while outstanding < capacity {
                let Some(item) = backlog.pop_front() else { break };
                if !queue.push(item) {
                    break;
                }
                outstanding += 1;
            }
            let Ok((slot, attempt, result)) = rx.recv() else { break };
            outstanding -= 1;
            let shard_id = shards.get(slot).map_or(slot, |s| s.id);
            match front.settle(slot, shard_id, attempt, result) {
                // Seeded requeue position: spread retries so they do not
                // redispatch in lockstep.
                Some(next) => {
                    if splitmix64(exec.retry.seed ^ u64::from(attempt), slot as u64) & 1 == 0 {
                        backlog.push_back((slot, next));
                    } else {
                        backlog.push_front((slot, next));
                    }
                }
                None => unresolved -= 1,
            }
        }
        queue.close();
        // Workers drain whatever is still queued and exit; the scope joins.
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ShardPlan;

    fn clean_sum(shards: &[Shard<usize>]) -> u64 {
        shards.iter().fold(0u64, |acc, s| acc.wrapping_add(s.seed ^ s.input as u64))
    }

    /// An executor with `jobs` workers, `max_attempts` per shard, and
    /// `faults` injected.
    fn faulty(jobs: usize, max_attempts: u32, faults: EngineFaultPlan) -> Executor {
        let mut exec = Executor::new(jobs);
        exec.retry = RetryPolicy::new(max_attempts);
        exec.faults = faults;
        exec
    }

    fn sum_supervised(exec: &Executor, shards: &[Shard<usize>]) -> SweepOutcome<u64> {
        exec.sweep(shards, |s| s.seed ^ s.input as u64, 0u64, |acc, _slot, v| acc.wrapping_add(v))
    }

    #[test]
    fn clean_supervised_run_matches_plain_fold_at_any_job_count() {
        let shards = ShardPlan::new(7).over(0..97usize);
        let want = clean_sum(&shards);
        for jobs in [1, 2, 8] {
            let out = sum_supervised(&Executor::new(jobs), &shards);
            assert_eq!(out.value, want, "jobs={jobs}");
            assert!(out.coverage.is_complete());
            assert_eq!(out.coverage.completed, 97);
            assert_eq!(out.coverage.retried, 0);
        }
    }

    #[test]
    fn injected_panics_are_retried_to_byte_identical_results() {
        let shards = ShardPlan::new(3).over(0..64usize);
        let want = clean_sum(&shards);
        // Every first attempt panics; the retry (attempt 1) runs clean.
        let faults = EngineFaultPlan { seed: 5, panic_per_mille: 1000, faulty_attempts: 1 };
        for jobs in [1, 3, 8] {
            let out = sum_supervised(&faulty(jobs, 2, faults), &shards);
            assert_eq!(out.value, want, "jobs={jobs}");
            assert!(out.coverage.is_complete(), "jobs={jobs}: {}", out.coverage.table());
            assert_eq!(out.coverage.retried, 64, "jobs={jobs}");
        }
    }

    #[test]
    fn exhausted_budgets_degrade_with_deterministic_coverage() {
        let shards = ShardPlan::new(1).over(0..40usize);
        // ~30% of (shard, attempt) draws panic forever: some shards burn
        // the whole budget, and exactly which ones is seed-determined.
        let faults = EngineFaultPlan { seed: 42, panic_per_mille: 300, faulty_attempts: u32::MAX };
        let serial = sum_supervised(&faulty(1, 2, faults), &shards);
        assert!(!serial.coverage.is_complete(), "seed 42 must fail some shard");
        for f in &serial.coverage.failed {
            assert_eq!(f.attempts, 2);
            assert!(f.message.contains("injected worker panic"), "{}", f.message);
        }
        for jobs in [2, 4, 8] {
            let par = sum_supervised(&faulty(jobs, 2, faults), &shards);
            assert_eq!(par.value, serial.value, "jobs={jobs}");
            assert_eq!(par.coverage.failed, serial.coverage.failed, "jobs={jobs}");
            assert_eq!(par.coverage.completed, serial.coverage.completed, "jobs={jobs}");
            assert_eq!(par.coverage.retried, serial.coverage.retried, "jobs={jobs}");
        }
        // The degraded fold must equal summing exactly the non-failed shards.
        let failed: std::collections::BTreeSet<usize> =
            serial.coverage.failed.iter().map(|f| f.shard_id).collect();
        let expect: u64 = shards
            .iter()
            .filter(|s| !failed.contains(&s.id))
            .fold(0u64, |acc, s| acc.wrapping_add(s.seed ^ s.input as u64));
        assert_eq!(serial.value, expect);
    }

    #[test]
    fn coverage_table_is_explicit_about_failures() {
        let mut cov = Coverage { total: 4, completed: 3, ..Coverage::default() };
        cov.failed.push(ShardFailure { shard_id: 2, attempts: 3, message: "boom".to_string() });
        let table = cov.table();
        assert!(table.contains("coverage 3/4 shards"), "{table}");
        assert!(table.contains("shard 2: failed after 3 attempts: boom"), "{table}");
        assert!(!cov.is_complete());
    }

    #[test]
    fn fault_plan_draws_are_pure_and_capped() {
        let plan = EngineFaultPlan { seed: 17, panic_per_mille: 500, faulty_attempts: 2 };
        for shard in 0..32usize {
            for attempt in 0..4u32 {
                assert_eq!(plan.draw(shard, attempt), plan.draw(shard, attempt));
            }
            assert_eq!(plan.draw(shard, 2), EngineFault::None, "cap must win");
        }
        assert!(EngineFaultPlan::NONE.is_none());
    }

    #[test]
    fn run_supervised_marks_failed_shards_as_none() {
        let shards = ShardPlan::new(1).over(0..10usize);
        let faults = EngineFaultPlan { seed: 42, panic_per_mille: 300, faulty_attempts: u32::MAX };
        let out = faulty(4, 1, faults).sweep(
            &shards,
            |s| s.input * 2,
            vec![None; shards.len()],
            |mut acc, slot, v| {
                acc[slot] = Some(v);
                acc
            },
        );
        assert_eq!(out.value.len(), 10);
        let failed: std::collections::BTreeSet<usize> =
            out.coverage.failed.iter().map(|f| f.shard_id).collect();
        assert!(!failed.is_empty(), "seed 42 must fail a shard at one attempt");
        for (i, cell) in out.value.iter().enumerate() {
            if failed.contains(&i) {
                assert!(cell.is_none(), "failed shard {i} must be None");
            } else {
                assert_eq!(*cell, Some(i * 2), "shard {i}");
            }
        }
    }

    #[test]
    fn checkpointed_run_resumes_without_rerunning_journaled_shards() {
        use crate::checkpoint::{run_fingerprint, Checkpoint};
        use std::sync::atomic::{AtomicUsize, Ordering};

        let mut path = std::env::temp_dir();
        path.push(format!("lookaside-sup-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let run_id = run_fingerprint(&[0xf16, 12, 20]);
        let shards = ShardPlan::new(12).over(0..20usize);
        let task = |s: &Shard<usize>| s.seed ^ s.input as u64;

        // First run: journal everything, remember the clean fold.
        let mut ck: Checkpoint<u64> = Checkpoint::fresh(&path, run_id, 1).expect("fresh");
        let first = Executor::new(2)
            .sweep_checkpointed(
                &shards,
                task,
                Vec::new(),
                |mut acc: Vec<u64>, _slot, v| {
                    acc.push(v);
                    acc
                },
                &mut ck,
            )
            .expect("checkpointed run");
        assert!(first.coverage.is_complete());
        drop(ck);

        // Second run resumes: every shard must come from the journal and
        // the fold must be byte-identical; re-running any shard panics.
        let reran = AtomicUsize::new(0);
        let mut ck: Checkpoint<u64> = Checkpoint::resume(&path, run_id, 1).expect("resume");
        let second = Executor::new(4)
            .sweep_checkpointed(
                &shards,
                |s: &Shard<usize>| {
                    reran.fetch_add(1, Ordering::Relaxed);
                    s.seed ^ s.input as u64
                },
                Vec::new(),
                |mut acc: Vec<u64>, _slot, v| {
                    acc.push(v);
                    acc
                },
                &mut ck,
            )
            .expect("resumed run");
        assert_eq!(reran.load(Ordering::Relaxed), 0, "journaled shards must not re-run");
        assert_eq!(second.value, first.value);
        assert_eq!(second.coverage.resumed, 20);
        assert!(second.coverage.is_complete());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn partially_journaled_run_resumes_the_remainder_only() {
        use crate::checkpoint::{run_fingerprint, Checkpoint};
        use std::sync::atomic::{AtomicUsize, Ordering};

        let mut path = std::env::temp_dir();
        path.push(format!("lookaside-sup-partial-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let run_id = run_fingerprint(&[0xf17, 5, 16]);
        let shards = ShardPlan::new(5).over(0..16usize);

        // Journal only the first 6 shards, as a killed run would have.
        {
            let mut ck: Checkpoint<u64> = Checkpoint::fresh(&path, run_id, 1).expect("fresh");
            for s in shards.iter().take(6) {
                ck.record(s.id, &(s.seed ^ s.input as u64)).expect("record");
            }
        }
        let reran = AtomicUsize::new(0);
        let mut ck: Checkpoint<u64> = Checkpoint::resume(&path, run_id, 1).expect("resume");
        let out = Executor::new(3)
            .sweep_checkpointed(
                &shards,
                |s: &Shard<usize>| {
                    reran.fetch_add(1, Ordering::Relaxed);
                    s.seed ^ s.input as u64
                },
                0u64,
                |acc, _slot, v| acc.wrapping_add(v),
                &mut ck,
            )
            .expect("resumed run");
        assert_eq!(reran.load(Ordering::Relaxed), 10, "only the tail re-runs");
        assert_eq!(out.value, clean_sum(&shards));
        assert_eq!(out.coverage.resumed, 6);
        assert!(out.coverage.is_complete());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn env_supervisor_has_safe_defaults() {
        for exec in [Executor::new(4), Executor::default()] {
            assert_eq!(exec.retry.max_attempts, 3);
            assert!(exec.faults.is_none());
            assert!(!exec.allow_partial);
        }
    }
}
