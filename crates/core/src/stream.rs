//! Per-packet leak classification and the streamed Fig. 12 replay.
//!
//! Experiments never materialize a capture. A [`LeakSink`] — a
//! [`PacketSink`] installed on the network — applies the run's
//! [`CaptureFilter`] and folds each retained packet straight into a
//! [`LeakageReport`] as it happens, so a run holds O(1) leak state instead
//! of O(packets), and sweeps hold O(shards).
//!
//! The network's capture stays: it is the paper's pcap, and the oracle.
//! [`crate::leakage::classify`] examines packets independently and the
//! sink applies retention via [`CaptureFilter::keeps`] — the predicate
//! `Capture::record` uses — so folding a run's packets equals classifying
//! its capture. `tests/stream_equivalence.rs` tees one run into both and
//! asserts exactly that, for any seed, size, remedy and capture filter.
//!
//! [`run_stream`] is [`crate::experiments::run`] under the name callers
//! import from this module.

use std::path::Path;
use std::sync::{Mutex, PoisonError};

use lookaside_engine::{Checkpoint, Executor, ShardPlan};
use lookaside_netsim::{CaptureFilter, Direction, Packet, PacketSink};
use lookaside_wire::ext::RemedyMode;
use lookaside_wire::{Name, Rcode, RrType};
use lookaside_workload::{DitlTrace, Zipf};

pub use crate::experiments::run as run_stream;
use crate::experiments::{Fig12Data, RunConfig, RunOutcome};
use crate::leakage::LeakageReport;

/// The streaming Case-1/Case-2 classifier: `classify()` refactored into a
/// per-packet fold, plus the capture's retention filter.
///
/// Observes every packet the network builds, keeps the ones the run's
/// [`CaptureFilter`] retains, and applies exactly the per-packet logic of
/// [`crate::leakage::classify`]. After the run the accumulated
/// [`LeakageReport`] equals classifying a capture recorded with the same
/// filter.
#[derive(Debug, Clone)]
pub struct LeakSink {
    filter: CaptureFilter,
    dlv_apex: Name,
    /// The report accumulated so far.
    pub report: LeakageReport,
}

impl LeakSink {
    /// A sink for a run using `filter`, classifying against `dlv_apex`.
    pub fn new(filter: CaptureFilter, dlv_apex: Name) -> Self {
        LeakSink { filter, dlv_apex, report: LeakageReport::default() }
    }
}

impl PacketSink for LeakSink {
    fn observe(&mut self, packet: &Packet) {
        // Retention first (the `Capture::record` predicate), then the
        // classifier's own DLV-type filter — `classify` only ever looks
        // at DLV packets, whatever the capture retained.
        if !self.filter.keeps(packet.qtype) || packet.qtype != RrType::Dlv {
            return;
        }
        match packet.direction {
            Direction::Query => self.report.dlv_queries += 1,
            Direction::Response => {
                self.report.dlv_responses += 1;
                match (packet.rcode, packet.answers) {
                    (Rcode::NoError, answers) if answers > 0 => self.report.case1 += 1,
                    (Rcode::NoError, _) | (Rcode::NxDomain, _) => {
                        self.report.case2 += 1;
                        let leaked = packet
                            .qname
                            .strip_suffix(&self.dlv_apex)
                            .filter(|n| !n.is_root())
                            .unwrap_or_else(|| packet.qname.clone());
                        self.report.leaked_names.insert(leaked);
                    }
                    _ => {}
                }
            }
        }
    }

    fn reset(&mut self) {
        self.report = LeakageReport::default();
    }
}

/// Prefix-sum accumulator for the Fig. 12 cumulative series — the fold
/// state [`fig12_stream`] threads through the window shards.
struct Fig12Acc {
    cum_q: u64,
    cum_base: u64,
    cum_overhead: u64,
    queries: Vec<u64>,
    baseline: Vec<u64>,
    overhead: Vec<u64>,
}

/// Builds Fig. 12 from a generated DITL trace on `exec`. `scale` divides
/// the trace volume for cheap test runs; use 1 for the full figure.
///
/// Per-query byte costs are *measured* from two calibration runs of the
/// full simulator (baseline and TXT remedy, one shard each); the trace is
/// then aggregated analytically (92.7M queries are not resolved one by
/// one — the paper's own Fig. 12 likewise replays aggregate volumes).
///
/// Set-up is one prep sweep. The two calibration shards come
/// first, then the weights of the Zipf(2M, 0.92) cache model in 64k-rank
/// chunks, each shard writing its chunk in place into one pre-sized
/// buffer ([`Zipf::fill_terms`]). The running sum, normalisation and
/// guide table then run serially in rank order ([`Zipf::from_terms`]),
/// so the table is [`Zipf::new`]'s, bit for bit. A missing prep shard
/// aborts the figure, `--allow-partial` or not.
///
/// Parallel decomposition: the cache model resets its TTL window every 60
/// minutes, so the 420-minute trace is seven *independent* windows. Each
/// window is one shard with its own splitmix draw stream (seeded from the
/// shard seed) and its own `seen` bitset; all windows borrow the one
/// table. A window draws in blocks of 16 through [`Zipf::sample_hashes`]
/// (the tail of each minute one by one) and probes `seen` in draw order.
/// [`Executor::sweep`] folds each window's minute triples into the
/// cumulative prefix sums in shard order as windows complete — the same
/// bytes at any worker count, holding one window's triples at a time.
/// [`fig12_stream_checkpointed`] journals the window sweep instead.
pub fn fig12_stream(exec: &Executor, seed: u64, scale: u64) -> Fig12Data {
    fig12_stream_inner(exec, seed, scale, None)
}

/// [`fig12_stream`] journalling every completed window shard to
/// `journal`: an atomic, CRC-checked [`Checkpoint`] file keyed by a
/// fingerprint of `(seed, scale, window count)`. A run killed mid-sweep
/// resumes from the journal's valid prefix — already-journalled windows
/// fold back without re-running — and produces byte-identical output; a
/// journal written under different parameters is refused. `repro
/// --checkpoint P` / `--resume P` call it.
pub fn fig12_stream_checkpointed(
    exec: &Executor,
    seed: u64,
    scale: u64,
    journal: &Path,
) -> Fig12Data {
    fig12_stream_inner(exec, seed, scale, Some(journal))
}

/// Cache-model support size and exponent.
const MODEL_RANKS: usize = 2_000_000;
const MODEL_S: f64 = 0.92;

/// Ranks of Zipf weights one prep shard fills.
const TERM_CHUNK: usize = 1 << 16;

/// Draws the window loop hands [`Zipf::sample_hashes`] at a time.
const DRAW_BLOCK: usize = 16;

/// One shard of the Fig. 12 prep sweep.
enum Prep<'a> {
    /// A calibration run of the full simulator under this remedy.
    Calibrate(RemedyMode),
    /// Fill the Zipf weights of ranks `first_rank..` into this slice of
    /// the shared table. A retry after a failed attempt rewrites the
    /// whole chunk.
    Terms { first_rank: usize, terms: Mutex<&'a mut [f64]> },
}

/// What a prep shard produced.
enum Prepared {
    Calibrated(Box<RunOutcome>),
    Filled,
}

/// The prep sweep's calibration runs (baseline, then TXT), once every
/// shard reported back; the shards come in plan order, calibrations first.
///
/// # Panics
///
/// Panics if any shard is missing, `--allow-partial` or not: every window
/// cost derives from calibration, and a missing term shard would leave
/// zero weights in the Zipf table.
fn prep_results(done: Vec<Option<Prepared>>) -> (RunOutcome, RunOutcome) {
    let mut done = done.into_iter();
    let mut calibration = || match done.next().flatten() {
        Some(Prepared::Calibrated(run)) => *run,
        _ => panic!("fig12 calibration shard failed; the figure cannot be produced"),
    };
    let (base, txt) = (calibration(), calibration());
    assert!(
        done.all(|shard| matches!(shard, Some(Prepared::Filled))),
        "fig12 Zipf weight shard failed; the table would hold zero weights"
    );
    (base, txt)
}

fn fig12_stream_inner(exec: &Executor, seed: u64, scale: u64, journal: Option<&Path>) -> Fig12Data {
    assert!(scale >= 1);
    // The table buffer is the call's first allocation. Allocated after the
    // trace and the prep sweep's bookkeeping, small blocks freed above it
    // kept its 16 MiB from being reused by the next call, and repeated
    // calls settled at a peak RSS 16 MiB higher.
    let mut terms = vec![0.0; MODEL_RANKS];
    let trace = DitlTrace::generate(seed);

    // The calibrations and the weight chunks share one sweep, so neither
    // leaves a worker idle while the other runs.
    let calibrations = [RemedyMode::None, RemedyMode::TxtSignal].map(Prep::Calibrate);
    let chunks = (1..)
        .step_by(TERM_CHUNK)
        .zip(terms.chunks_mut(TERM_CHUNK))
        .map(|(first_rank, chunk)| Prep::Terms { first_rank, terms: Mutex::new(chunk) });
    let prep = ShardPlan::new(seed ^ 0xca11b).over(calibrations.into_iter().chain(chunks));
    let prepared = exec.sweep(
        &prep,
        |shard| match &shard.input {
            Prep::Calibrate(remedy) => {
                let mut cfg = RunConfig::quick(60);
                cfg.remedy = *remedy;
                cfg.capture = CaptureFilter::None;
                Prepared::Calibrated(Box::new(run_stream(&cfg)))
            }
            Prep::Terms { first_rank, terms } => {
                // A fill that panicked left part of its chunk written; the
                // retry rewrites every value, so a poisoned lock is safe.
                let mut terms = terms.lock().unwrap_or_else(PoisonError::into_inner);
                Zipf::fill_terms(&mut terms, *first_rank, MODEL_S);
                Prepared::Filled
            }
        },
        (0..prep.len()).map(|_| None).collect(),
        |mut done: Vec<Option<Prepared>>, slot, prepared| {
            done[slot] = Some(prepared);
            done
        },
    );
    drop(prep);
    let (base, txt) = prep_results(crate::parallel::accept(exec, prepared));
    let zipf = Zipf::from_terms(terms);

    let cold_bytes_per_resolution = base.stats.total_bytes() as f64 / base.queried as f64;
    let txt_probes = txt.stats.queries_of(RrType::Txt).max(1);
    let txt_bytes_per_probe = txt.stats.bytes_of(RrType::Txt) as f64 / txt_probes as f64;
    // Stub-side cost of answering one query (query + typical answer).
    let stub_bytes_per_query = 130.0;

    // Cache model over the trace: domains drawn Zipf over 2M; a cache
    // miss pays the cold upstream cost and (with the remedy) one TXT
    // probe. The exponent is calibrated so the full-scale (scale = 1) run
    // lands near the paper's ≈1.2 GB / 0.38 Mbps signaling overhead;
    // sampled runs (scale > 1) overstate the miss rate and are for
    // smoke-testing only.
    let windows: Vec<Vec<u64>> =
        trace.per_minute().chunks(60).map(|chunk| chunk.to_vec()).collect();
    let window_count = windows.len() as u64;
    let shards = ShardPlan::new(seed ^ 0xd17f).over(windows);
    let minutes_total = trace.per_minute().len();
    let task = |shard: &lookaside_engine::Shard<Vec<u64>>| {
        // One bit per rank (1..=n): 2M ranks fit in 250 KiB.
        let mut seen = vec![0u64; zipf.n() / 64 + 1];
        let mut rng_state = shard.seed;
        let mut next = || {
            rng_state = rng_state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = rng_state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut minutes = Vec::with_capacity(shard.input.len());
        for &volume in &shard.input {
            let sampled = volume / scale;
            let mut misses = 0u64;
            let mut probe = |domain: usize| {
                let (word, bit) = (domain / 64, 1u64 << (domain % 64));
                if seen[word] & bit == 0 {
                    seen[word] |= bit;
                    misses += 1;
                }
            };
            // Whole blocks through the staged sampler, the tail one by
            // one: the same draws, ranks and probes in the same order.
            for _ in 0..sampled / DRAW_BLOCK as u64 {
                let hashes: [u64; DRAW_BLOCK] = std::array::from_fn(|_| next());
                zipf.sample_hashes(&hashes).into_iter().for_each(&mut probe);
            }
            for _ in 0..sampled % DRAW_BLOCK as u64 {
                probe(zipf.sample_hash(next()));
            }
            let scaled_misses = misses * scale;
            let base_bytes = (volume as f64 * stub_bytes_per_query) as u64
                + (scaled_misses as f64 * cold_bytes_per_resolution) as u64;
            let overhead_bytes = (scaled_misses as f64 * txt_bytes_per_probe) as u64;
            minutes.push((volume, base_bytes, overhead_bytes));
        }
        minutes
    };
    let init = Fig12Acc {
        cum_q: 0,
        cum_base: 0,
        cum_overhead: 0,
        queries: Vec::with_capacity(minutes_total),
        baseline: Vec::with_capacity(minutes_total),
        overhead: Vec::with_capacity(minutes_total),
    };
    let fold = |mut acc: Fig12Acc, _window: usize, minutes: Vec<(u64, u64, u64)>| {
        for (volume, base_bytes, overhead_bytes) in minutes {
            acc.cum_q += volume;
            acc.cum_base += base_bytes;
            acc.cum_overhead += overhead_bytes;
            acc.queries.push(acc.cum_q);
            acc.baseline.push(acc.cum_base);
            acc.overhead.push(acc.cum_overhead);
        }
        acc
    };
    let outcome = match journal {
        Some(path) => {
            // The fingerprint binds the journal to everything that shapes
            // a window's bytes; resuming under different parameters is a
            // refusal, not a silent mix of two runs.
            let run_id =
                lookaside_engine::run_fingerprint(&[0xf161_2a11, seed, scale, window_count]);
            let mut ckpt = Checkpoint::resume(path, run_id, 1)
                .unwrap_or_else(|e| panic!("fig12 journal {}: {e}", path.display()));
            exec.sweep_checkpointed(&shards, task, init, fold, &mut ckpt)
                .unwrap_or_else(|e| panic!("fig12 journal {}: {e}", path.display()))
        }
        None => exec.sweep(&shards, task, init, fold),
    };
    let acc = crate::parallel::accept(exec, outcome);
    let overhead_mbps = acc.cum_overhead as f64 * 8.0 / (420.0 * 60.0) / 1e6;
    Fig12Data {
        per_minute: trace.per_minute().to_vec(),
        cumulative_queries: acc.queries,
        cumulative_baseline_bytes: acc.baseline,
        cumulative_overhead_bytes: acc.overhead,
        overhead_mbps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::StatusTally;
    use crate::leakage::classify;
    use crate::Internet;
    use crate::InternetParams;

    /// The batch method: record the run's capture, then classify it.
    fn capture_then_classify(config: &RunConfig) -> RunOutcome {
        let limit = config.queries.max_rank().max(1);
        let mut params = InternetParams::for_top(limit, config.population, config.remedy);
        params.dlv_span_ttl = config.dlv_span_ttl;
        params.dlv_denial = config.dlv_denial;
        params.seed = config.seed;
        params.capture = config.capture;
        let mut internet = Internet::build(params);
        let mut resolver = internet.resolver(config.resolver, config.seed ^ 0x5a17);
        let names = config.queries.names(&internet);
        let mut statuses = StatusTally::default();
        for name in &names {
            let result = resolver.resolve(&mut internet.net, name, RrType::A);
            crate::experiments::tally(&mut statuses, &result);
        }
        RunOutcome {
            stats: internet.net.stats().clone(),
            leakage: classify(internet.net.capture(), &internet.dlv_apex),
            counters: resolver.counters,
            statuses,
            elapsed_ns: internet.net.now_ns(),
            queried: names.len(),
        }
    }

    #[test]
    fn stream_run_is_byte_identical_to_batch() {
        let config = RunConfig::quick(25);
        let stream = run_stream(&config);
        let batch = capture_then_classify(&config);
        assert_eq!(stream.leakage, batch.leakage);
        assert_eq!(stream.stats, batch.stats);
        assert_eq!(stream.counters, batch.counters);
        assert_eq!(stream.statuses, batch.statuses);
        assert_eq!(stream.elapsed_ns, batch.elapsed_ns);
        assert_eq!(stream.queried, batch.queried);
    }

    #[test]
    fn stream_honours_the_runs_capture_filter() {
        let mut config = RunConfig::quick(20);
        config.capture = CaptureFilter::None;
        let outcome = run_stream(&config);
        // A capture-less run classifies nothing, however much DLV traffic
        // crossed the wire.
        assert_eq!(outcome.leakage, LeakageReport::default());
        assert!(outcome.stats.queries_of(RrType::Dlv) > 0);
    }

    fn calibrated(names: usize) -> Option<Prepared> {
        Some(Prepared::Calibrated(Box::new(run_stream(&RunConfig::quick(names)))))
    }

    #[test]
    fn prep_results_are_the_calibrations_in_plan_order() {
        let filled = || Some(Prepared::Filled);
        let (base, txt) = prep_results(vec![calibrated(3), calibrated(4), filled(), filled()]);
        assert_eq!((base.queried, txt.queried), (3, 4));
    }

    /// `--allow-partial` hands the prep sweep's partial results on; the
    /// assembly must still refuse them rather than build a figure.
    #[test]
    #[should_panic(expected = "fig12 calibration shard failed")]
    fn prep_without_a_calibration_panics() {
        prep_results(vec![calibrated(3), None, Some(Prepared::Filled)]);
    }

    #[test]
    #[should_panic(expected = "fig12 Zipf weight shard failed")]
    fn prep_without_a_weight_shard_panics() {
        let filled = || Some(Prepared::Filled);
        prep_results(vec![calibrated(3), calibrated(3), filled(), None, filled()]);
    }

    /// The window fold equals the batch arithmetic — concatenate every
    /// minute, then prefix-sum — and its bytes do not depend on the
    /// worker count.
    #[test]
    fn stream_fig12_matches_batch_at_any_job_count() {
        for seed in [7, 11, 13, 42] {
            let serial = fig12_stream(&Executor::serial(), seed, 500_000);
            let batch_queries: Vec<u64> = serial
                .per_minute
                .iter()
                .scan(0u64, |cum, &volume| {
                    *cum += volume;
                    Some(*cum)
                })
                .collect();
            assert_eq!(serial.cumulative_queries, batch_queries, "seed {seed}");
            for jobs in [3, 4] {
                let parallel = fig12_stream(&Executor::new(jobs), seed, 500_000);
                assert_eq!(
                    format!("{serial:?}"),
                    format!("{parallel:?}"),
                    "seed {seed} jobs {jobs}"
                );
            }
        }
    }
}
