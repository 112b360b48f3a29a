//! Integration tests for supervised sweeps: checkpoint/resume through the
//! public `fig12_stream_checkpointed` path, journal corruption fixtures,
//! fault injection through the `Executor`'s test-only fault plan, and
//! property tests that retry/fault supervision never changes results.

use std::fs;
use std::path::PathBuf;

use lookaside::engine::{
    run_fingerprint, Checkpoint, EngineFault, EngineFaultPlan, Executor, RetryPolicy, Shard,
    ShardPlan,
};
use lookaside::experiments::{fig8_9, Fig12Data};
use lookaside::stream::{fig12_stream, fig12_stream_checkpointed};
use proptest::prelude::*;

/// Fig. 12 at 1/500000 sampling: seconds-fast, several window shards.
const SCALE: u64 = 500_000;

fn temp_journal(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("lookaside-supervised-{}-{tag}.ckpt", std::process::id()));
    let _ = fs::remove_file(&p);
    p
}

/// Byte-identity for Fig. 12 data (floats compared by bit pattern).
fn assert_fig12_identical(a: &Fig12Data, b: &Fig12Data) {
    assert_eq!(a.per_minute, b.per_minute);
    assert_eq!(a.cumulative_queries, b.cumulative_queries);
    assert_eq!(a.cumulative_baseline_bytes, b.cumulative_baseline_bytes);
    assert_eq!(a.cumulative_overhead_bytes, b.cumulative_overhead_bytes);
    assert_eq!(a.overhead_mbps.to_bits(), b.overhead_mbps.to_bits());
}

#[test]
fn checkpointed_fig12_matches_plain_and_resumes_byte_identical() {
    let exec = Executor::new(2);
    let plain = fig12_stream(&exec, 7, SCALE);
    let path = temp_journal("full");
    let first = fig12_stream_checkpointed(&exec, 7, SCALE, &path);
    assert_fig12_identical(&first, &plain);
    // Resuming a completed journal satisfies every shard from disk and
    // must still reproduce the figure byte for byte.
    let resumed = fig12_stream_checkpointed(&exec, 7, SCALE, &path);
    assert_fig12_identical(&resumed, &plain);
    let _ = fs::remove_file(&path);
}

#[test]
fn torn_journal_tail_resumes_byte_identical() {
    let exec = Executor::serial();
    let plain = fig12_stream(&exec, 11, SCALE);
    let path = temp_journal("torn");
    let _ = fig12_stream_checkpointed(&exec, 11, SCALE, &path);
    let bytes = fs::read(&path).unwrap();
    assert!(bytes.len() > 32, "journal too small to tear meaningfully");
    // A SIGKILL mid-append leaves a partial trailing record; the resume
    // must drop it silently and re-run only the missing shards.
    fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
    let resumed = fig12_stream_checkpointed(&exec, 11, SCALE, &path);
    assert_fig12_identical(&resumed, &plain);
    let _ = fs::remove_file(&path);
}

#[test]
fn corrupt_mid_journal_record_resumes_byte_identical() {
    let exec = Executor::serial();
    let plain = fig12_stream(&exec, 13, SCALE);
    let path = temp_journal("corrupt");
    let _ = fig12_stream_checkpointed(&exec, 13, SCALE, &path);
    let mut bytes = fs::read(&path).unwrap();
    // Flip one byte halfway through: that record's CRC fails, the journal
    // is truncated to the last valid record before it, and the suffix is
    // recomputed — never folded from corrupt bytes.
    let at = bytes.len() / 2;
    bytes[at] ^= 0xff;
    fs::write(&path, &bytes).unwrap();
    let resumed = fig12_stream_checkpointed(&exec, 13, SCALE, &path);
    assert_fig12_identical(&resumed, &plain);
    let _ = fs::remove_file(&path);
}

/// An executor with `jobs` workers, `max_attempts` per shard, and
/// `faults` injected.
fn faulty(jobs: usize, max_attempts: u32, faults: EngineFaultPlan) -> Executor {
    let mut exec = Executor::new(jobs);
    exec.retry = RetryPolicy::new(max_attempts);
    exec.faults = faults;
    exec
}

/// A fault plan that kills the first attempt of every shard.
const EVERY_FIRST_ATTEMPT: EngineFaultPlan =
    EngineFaultPlan { seed: 5, panic_per_mille: 1000, faulty_attempts: 1 };

/// With one attempt per shard and every prep shard failing, Fig. 12
/// refuses to build from a partial prep sweep even when the executor
/// accepts degraded sweeps: every window cost derives from calibration.
#[test]
#[should_panic(expected = "fig12 calibration shard failed")]
fn fig12_refuses_a_failed_calibration_even_with_allow_partial() {
    let mut exec = faulty(2, 1, EVERY_FIRST_ATTEMPT);
    exec.allow_partial = true;
    let _ = fig12_stream(&exec, 7, SCALE);
}

/// A retry budget that outlasts the faults reproduces the clean figure.
#[test]
fn fig12_with_retried_faults_matches_clean() {
    let clean = fig12_stream(&Executor::new(2), 7, SCALE);
    for jobs in [1, 3] {
        let retried = fig12_stream(&faulty(jobs, 2, EVERY_FIRST_ATTEMPT), 7, SCALE);
        assert_fig12_identical(&retried, &clean);
    }
}

/// Three Fig. 8/9 sizes on a one-attempt executor whose fault plan kills
/// exactly one of them; returns the executor, the sizes and that shard.
fn one_failed_size() -> (Executor, Vec<usize>, usize) {
    let sizes = vec![20, 30, 40];
    let faults = EngineFaultPlan { seed: 9, panic_per_mille: 150, faulty_attempts: u32::MAX };
    let failed: Vec<usize> =
        (0..sizes.len()).filter(|&i| faults.draw(i, 0) == EngineFault::Panic).collect();
    assert_eq!(failed, [1], "the plan must fail exactly the middle size");
    (faulty(2, 1, faults), sizes, 1)
}

#[test]
#[should_panic(expected = "sweep degraded")]
fn fig8_9_aborts_on_a_failed_shard_by_default() {
    let (exec, sizes, _) = one_failed_size();
    let _ = fig8_9(&exec, &sizes, 11);
}

#[test]
fn fig8_9_with_allow_partial_returns_exactly_the_other_points() {
    let (mut exec, sizes, failed) = one_failed_size();
    exec.allow_partial = true;
    let partial = fig8_9(&exec, &sizes, 11);
    let clean = fig8_9(&Executor::serial(), &sizes, 11);
    let expected: Vec<String> = clean
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != failed)
        .map(|(_, p)| format!("{p:?}"))
        .collect();
    let got: Vec<String> = partial.iter().map(|p| format!("{p:?}")).collect();
    assert_eq!(got, expected);
}

fn shard_value(s: &Shard<u64>) -> u64 {
    // A seed- and input-dependent value: any scheduling or resume bug that
    // swaps, drops, or duplicates a shard changes the fold.
    s.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ s.input.wrapping_mul(0x100_0000_01b3)
}

fn fold_pairs(mut acc: Vec<(usize, u64)>, id: usize, v: u64) -> Vec<(usize, u64)> {
    acc.push((id, v));
    acc
}

proptest! {
    /// A fault-injected, retried, parallel sweep folds exactly the bytes
    /// of a clean serial one, and its failure accounting is identical at
    /// every job count.
    #[test]
    fn faulted_retried_sweeps_match_clean_at_any_job_count(
        seed in 0u64..1_000,
        panic_per_mille in 0u16..400,
        jobs in 1usize..5,
    ) {
        let shards = ShardPlan::new(seed).over(0..24u64);
        let clean = Executor::serial().sweep(&shards, shard_value, Vec::new(), fold_pairs);
        // Attempts 0..3 may panic; attempt 3 always runs clean, so a
        // 4-attempt budget is guaranteed to complete every shard.
        let faults = EngineFaultPlan { seed, panic_per_mille, faulty_attempts: 3 };
        let faulted = faulty(jobs, 4, faults).sweep(&shards, shard_value, Vec::new(), fold_pairs);
        prop_assert!(faulted.coverage.is_complete());
        prop_assert_eq!(&faulted.value, &clean.value);
        // The retry accounting is a pure function of the fault plan, so a
        // serial run under the same plan reports the same coverage.
        let serial = faulty(1, 4, faults).sweep(&shards, shard_value, Vec::new(), fold_pairs);
        prop_assert_eq!(serial.coverage.retried, faulted.coverage.retried);
        prop_assert_eq!(serial.coverage.failed, faulted.coverage.failed);
        prop_assert_eq!(&serial.value, &clean.value);
    }

    /// Cutting the journal at an arbitrary byte past the header and
    /// resuming reproduces the complete fold: the valid prefix is folded
    /// from disk, the rest is recomputed.
    #[test]
    fn journal_cut_anywhere_resumes_to_identical_fold(
        seed in 0u64..200,
        cut_percent in 0u64..100,
    ) {
        let shards = ShardPlan::new(seed).over(0..8u64);
        let run_id = run_fingerprint(&[0x7e57, seed, shards.len() as u64]);
        let path = temp_journal(&format!("cut-{seed}-{cut_percent}"));
        let mut ckpt = Checkpoint::fresh(&path, run_id, 1).unwrap();
        let full = Executor::serial()
            .sweep_checkpointed(&shards, shard_value, Vec::new(), fold_pairs, &mut ckpt)
            .unwrap();
        drop(ckpt);
        let bytes = fs::read(&path).unwrap();
        // Keep the 18-byte header plus an arbitrary fraction of records.
        let keep = 18 + (bytes.len() - 18) * cut_percent as usize / 100;
        fs::write(&path, &bytes[..keep]).unwrap();
        let mut ckpt: Checkpoint<u64> = Checkpoint::resume(&path, run_id, 1).unwrap();
        let resumed_shards = ckpt.take_resumed();
        prop_assert!(resumed_shards.len() <= shards.len());
        // take_resumed consumed the journal's prefix; rebuild the handle
        // so the checkpointed run folds it.
        drop(ckpt);
        let mut ckpt = Checkpoint::resume(&path, run_id, 1).unwrap();
        let again = Executor::serial()
            .sweep_checkpointed(&shards, shard_value, Vec::new(), fold_pairs, &mut ckpt)
            .unwrap();
        prop_assert_eq!(&again.value, &full.value);
        prop_assert_eq!(again.coverage.resumed, resumed_shards.len());
        prop_assert!(again.coverage.is_complete());
        drop(ckpt);
        let _ = fs::remove_file(&path);
    }
}
