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

use lookaside_engine::{Checkpoint, Executor, ShardPlan};
use lookaside_netsim::{CaptureFilter, Direction, Packet, PacketSink};
use lookaside_wire::ext::RemedyMode;
use lookaside_wire::{Name, Rcode, RrType};
use lookaside_workload::{DitlTrace, Zipf};

pub use crate::experiments::run as run_stream;
use crate::experiments::{Fig12Data, RunConfig};
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

/// [`crate::experiments::fig12`] on an explicit executor.
///
/// Per-query byte costs are *measured* from two calibration runs of the
/// full simulator (baseline and TXT remedy, one shard each); the trace is
/// then aggregated analytically (92.7M queries are not resolved one by
/// one — the paper's own Fig. 12 likewise replays aggregate volumes).
///
/// Parallel decomposition: the cache model resets its TTL window every 60
/// minutes, so the 420-minute trace is seven *independent* windows. Each
/// window is one shard with its own splitmix draw stream (seeded from the
/// shard seed) and its own `seen` bitset; all windows borrow the one
/// Zipf(2M, 0.92) table built per call. [`Executor::run_fold_supervised`]
/// folds each window's minute triples into the cumulative prefix sums in
/// shard order as windows complete — the same bytes at any worker count,
/// holding one window's triples at a time.
///
/// With `LOOKASIDE_CHECKPOINT` set (the `repro --checkpoint` /
/// `--resume` flags) the window sweep journals through
/// [`fig12_stream_checkpointed`] instead.
pub fn fig12_stream(exec: &Executor, seed: u64, scale: u64) -> Fig12Data {
    match lookaside_engine::checkpoint_path() {
        Some(path) => fig12_stream_checkpointed(exec, seed, scale, Path::new(&path)),
        None => fig12_stream_inner(exec, seed, scale, None),
    }
}

/// [`fig12_stream`] journalling every completed window shard to
/// `journal`: an atomic, CRC-checked [`Checkpoint`] file keyed by a
/// fingerprint of `(seed, scale, window count)`. A run killed mid-sweep
/// resumes from the journal's valid prefix — already-journalled windows
/// fold back without re-running — and produces byte-identical output; a
/// journal written under different parameters is refused.
pub fn fig12_stream_checkpointed(
    exec: &Executor,
    seed: u64,
    scale: u64,
    journal: &Path,
) -> Fig12Data {
    fig12_stream_inner(exec, seed, scale, Some(journal))
}

fn fig12_stream_inner(exec: &Executor, seed: u64, scale: u64, journal: Option<&Path>) -> Fig12Data {
    assert!(scale >= 1);
    let trace = DitlTrace::generate(seed);
    let sup = crate::parallel::supervisor();

    let calib = ShardPlan::new(seed ^ 0xca11b).over([RemedyMode::None, RemedyMode::TxtSignal]);
    let calibrated = crate::parallel::accept(exec.run_supervised(
        &calib,
        |shard| {
            let mut cfg = RunConfig::quick(60);
            cfg.remedy = shard.input;
            cfg.capture = CaptureFilter::None;
            run_stream(&cfg)
        },
        &sup,
    ));
    let (base, txt) = match (&calibrated[0], &calibrated[1]) {
        (Some(base), Some(txt)) => (base, txt),
        // Every window cost derives from calibration; there is no
        // partial figure without it, --allow-partial or not.
        _ => panic!("fig12 calibration shard failed; the figure cannot be produced"),
    };
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
    let zipf = Zipf::new(2_000_000, 0.92);
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
            for _ in 0..sampled {
                let domain = zipf.sample_hash(next());
                let (word, bit) = (domain / 64, 1u64 << (domain % 64));
                if seen[word] & bit == 0 {
                    seen[word] |= bit;
                    misses += 1;
                }
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
            exec.run_fold_checkpointed(&shards, task, init, fold, &sup, &mut ckpt)
                .unwrap_or_else(|e| panic!("fig12 journal {}: {e}", path.display()))
        }
        None => exec.run_fold_supervised(&shards, task, init, fold, &sup),
    };
    let acc = crate::parallel::accept(outcome);
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
    use crate::experiments::{RunOutcome, StatusTally};
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
            crate::parallel::tally(&mut statuses, &result);
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
