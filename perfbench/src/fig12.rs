//! The `fig12-model` workload: the streamed Fig. 12 DITL replay
//! (`stream::fig12_stream`) on an `engine::Executor`. Its unit of work is
//! one cache-model sample — a Zipf draw and a bitmap probe — not a
//! resolution.

use std::time::Instant;

use lookaside::engine::Executor;
use lookaside::experiments::{Fig12Data, RunConfig};
use lookaside::netsim::CaptureFilter;
use lookaside::stream::{fig12_stream, run_stream};
use lookaside::wire::ext::RemedyMode;
use lookaside::workload::{DitlTrace, DomainPopulation, Zipf};

use crate::scenario::{run_pass, Inputs, Print, Scenario};
use crate::util::{mix, Fnv};

/// One sampled query per `SCALE` trace queries: 927,050 samples a pass,
/// the configuration `BENCH_pr8.json` reported.
pub const SCALE: u64 = 100;

/// The sampler the model draws from (`stream.rs`: 2M ranks, s = 0.92).
const MODEL_RANKS: usize = 2_000_000;
const MODEL_S: f64 = 0.92;

/// Set-up a caller pays before the replay: the executor, the DITL trace,
/// and the model's Zipf table. Returns seconds.
pub fn setup(seed: u64, jobs: usize) -> f64 {
    let t = Instant::now();
    let exec = Executor::new(jobs);
    let trace = DitlTrace::generate(seed);
    let zipf = Zipf::new(MODEL_RANKS, MODEL_S);
    std::hint::black_box((exec.jobs(), trace.total(), zipf.n()));
    t.elapsed().as_secs_f64()
}

/// One timed replay; `None` if it panicked (a failed shard aborts it).
pub fn pass(exec: &Executor, seed: u64) -> (Option<Fig12Data>, u64) {
    let t = Instant::now();
    let data = std::panic::catch_unwind(|| fig12_stream(exec, seed, SCALE)).ok();
    (data, t.elapsed().as_nanos() as u64)
}

/// Cache-model samples one pass draws.
pub fn samples(data: &Fig12Data) -> u64 {
    data.per_minute.iter().map(|v| v / SCALE).sum()
}

fn digest(series: &[u64]) -> u64 {
    let mut h = Fnv::new();
    for &v in series {
        h.u64(v);
    }
    h.finish()
}

/// The cumulative series, digested, plus their final values.
pub fn fingerprint(data: &Fig12Data) -> Print {
    let last = |s: &[u64]| s.last().copied().unwrap_or(0);
    let pairs: [(&str, u64); 10] = [
        ("samples", samples(data)),
        ("minutes", data.per_minute.len() as u64),
        ("per_minute_digest", digest(&data.per_minute)),
        ("cum_queries", last(&data.cumulative_queries)),
        ("cum_queries_digest", digest(&data.cumulative_queries)),
        ("cum_baseline_bytes", last(&data.cumulative_baseline_bytes)),
        ("cum_baseline_digest", digest(&data.cumulative_baseline_bytes)),
        ("cum_overhead_bytes", last(&data.cumulative_overhead_bytes)),
        ("cum_overhead_digest", digest(&data.cumulative_overhead_bytes)),
        ("overhead_mbps_bits", data.overhead_mbps.to_bits()),
    ];
    pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
}

/// Invariants of any seed: the series are prefix sums of the trace.
pub fn check(data: &Fig12Data, seed: u64) -> Vec<String> {
    let mut bad = Vec::new();
    if data.per_minute != DitlTrace::generate(seed).per_minute() {
        bad.push("per-minute volumes differ from the generated trace".to_string());
    }
    let n = data.per_minute.len();
    if [&data.cumulative_queries, &data.cumulative_baseline_bytes, &data.cumulative_overhead_bytes]
        .iter()
        .any(|s| s.len() != n || s.windows(2).any(|w| w[1] < w[0]))
    {
        bad.push("a cumulative series is short or decreasing".to_string());
    }
    let mut sum = 0;
    for (i, &v) in data.per_minute.iter().enumerate() {
        sum += v;
        if data.cumulative_queries.get(i) != Some(&sum) {
            bad.push(format!("cumulative queries wrong at minute {i}"));
            break;
        }
    }
    if !(data.overhead_mbps.is_finite() && data.overhead_mbps > 0.0) {
        bad.push("overhead bandwidth is not positive".to_string());
    }
    bad
}

/// The two calibration runs `fig12_stream` performs before sampling
/// (`RunConfig::quick(60)`, no remedy and TXT), rebuilt as scenarios so
/// the traced run can replay them layer by layer.
pub fn calibration() -> Vec<(Scenario, Inputs)> {
    [RemedyMode::None, RemedyMode::TxtSignal]
        .into_iter()
        .map(|remedy| {
            let cfg = RunConfig::quick(60);
            let scn = Scenario {
                remedy,
                population: cfg.population,
                query_limit: 60,
                net_seed: cfg.seed,
                salt: cfg.seed ^ 0x5a17,
                sink_filter: CaptureFilter::None,
            };
            let names = DomainPopulation::new(cfg.population).top(60);
            (scn, Inputs { warm: Vec::new(), measured: names, step_ns: 0 })
        })
        .collect()
}

/// Checks that the rebuilt calibration scenarios do exactly what
/// `run_stream` does for the model.
pub fn check_calibration() -> Vec<String> {
    let mut bad = Vec::new();
    for (scn, inputs) in calibration() {
        let mut cfg = RunConfig::quick(60);
        cfg.remedy = scn.remedy;
        cfg.capture = CaptureFilter::None;
        let reference = run_stream(&cfg);
        let pass = run_pass(&scn, &inputs, None);
        if pass.env.resolver.counters != reference.counters
            || *pass.env.internet.net.stats() != reference.stats
            || pass.env.internet.net.now_ns() != reference.elapsed_ns
        {
            bad.push(format!("calibration scenario {:?} differs from run_stream", scn.remedy));
        }
    }
    bad
}

/// Engine and sampler probes: the replay at one worker and at `jobs`
/// workers, and the bare Zipf sampler.
pub struct Probe {
    pub efficiency: f64,
    pub serial_ns_per_sample: f64,
    pub zipf_ns_per_sample: f64,
    /// Fingerprint of the `jobs`-worker replay.
    pub print: Print,
    pub violations: Vec<String>,
}

pub fn probe(seed: u64, jobs: usize) -> Probe {
    let (serial, t1) = pass(&Executor::new(1), seed);
    let (parallel, tn) = pass(&Executor::new(jobs), seed);
    let mut violations = Vec::new();
    let (n, print) = match (&serial, &parallel) {
        (Some(a), Some(b)) => {
            if fingerprint(a) != fingerprint(b) {
                violations.push(format!("fig12 at 1 and {jobs} workers differ"));
            }
            (samples(a), fingerprint(b))
        }
        _ => {
            violations.push("fig12 replay panicked".to_string());
            (1, Vec::new())
        }
    };
    let zipf = Zipf::new(MODEL_RANKS, MODEL_S);
    let hashes: Vec<u64> = (0..1u64 << 18).map(|i| mix(seed, i)).collect();
    let t = Instant::now();
    let mut acc = 0usize;
    for &h in &hashes {
        acc = acc.wrapping_add(zipf.sample_hash(h));
    }
    let zipf_ns = t.elapsed().as_nanos() as f64 / hashes.len() as f64;
    std::hint::black_box(acc);
    Probe {
        efficiency: t1 as f64 / (jobs as f64 * tn as f64),
        serial_ns_per_sample: t1 as f64 / n as f64,
        zipf_ns_per_sample: zipf_ns,
        print,
        violations,
    }
}
