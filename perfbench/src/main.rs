//! Resolver-path benchmark for the DLV look-aside simulator.
//!
//! ```text
//! perfbench --workload <cold-top|cold-txt|warm-zipf|fig12-model>
//!           --seed <n> --seconds <s> --trace <0|1> [--canary]
//! perfbench --workload <name> --trace <0|1> --pin-seeds <a>-<b>
//! ```
//!
//! Drives the simulator from outside, through its public entry points
//! only (`Internet::build`, `Internet::resolver`,
//! `RecursiveResolver::resolve_into`, `Network::set_observer`,
//! `stream::fig12_stream`). `--trace 0` measures the end-to-end metrics;
//! `--trace 1` replays the recorded message corpus layer by layer (see
//! `trace.rs`). Every run checks its outputs against fingerprints pinned
//! per seed (`pins.txt`) and against invariants that hold for any seed;
//! `--canary` perturbs one pinned value, and the run must then fail.
//!
//! The last stdout line is the result object; the line before it is the
//! run record that `run.py` appends to the history. A failed check exits
//! with status 1.

mod fig12;
mod pins;
mod scenario;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::time::Instant;

use lookaside::engine::Executor;
use lookaside::netsim::CaptureFilter;
use lookaside::wire::ext::RemedyMode;
use lookaside::workload::{DomainPopulation, PopulationParams, Zipf};

use scenario::{run_pass, Inputs, Print, Scenario};
use util::{json_str, median, metrics_json, mix, pairs_json, quantile, Metric};

/// Names a cold pass resolves, and the warm workload's population.
const COLD_NAMES: usize = 2_000;
const WARM_NAMES: usize = 2_000;
/// Measured queries of one warm pass, their Zipf exponent, and the
/// simulated time between them (TTL expiry then forces ~0.05 upstream
/// exchanges per resolution).
const WARM_QUERIES: usize = 200_000;
const WARM_ZIPF_S: f64 = 1.0;
const WARM_STEP_NS: u64 = 100_000_000;
/// Passes (or traced rounds) a run makes at the least.
const MIN_PASSES: usize = 3;
/// Set-ups measured when a pass does not set up on its own (fig12-model).
const SETUPS: usize = 15;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    ColdTop,
    ColdTxt,
    WarmZipf,
    Fig12Model,
}

impl Workload {
    const ALL: [Workload; 4] =
        [Workload::ColdTop, Workload::ColdTxt, Workload::WarmZipf, Workload::Fig12Model];

    fn name(self) -> &'static str {
        match self {
            Workload::ColdTop => "cold-top",
            Workload::ColdTxt => "cold-txt",
            Workload::WarmZipf => "warm-zipf",
            Workload::Fig12Model => "fig12-model",
        }
    }

    fn names(self) -> usize {
        match self {
            Workload::WarmZipf => WARM_NAMES,
            _ => COLD_NAMES,
        }
    }

    /// The scenario `seed` selects: population, latency seed, resolver salt.
    fn scenario(self, seed: u64) -> Scenario {
        let n = self.names();
        Scenario {
            remedy: if self == Workload::ColdTxt {
                RemedyMode::TxtSignal
            } else {
                RemedyMode::None
            },
            population: PopulationParams {
                size: n.max(1000),
                seed: mix(seed, 1),
                ..PopulationParams::default()
            },
            query_limit: n,
            net_seed: mix(seed, 2),
            salt: mix(seed, 3),
            sink_filter: CaptureFilter::DlvOnly,
        }
    }

    /// The name sequence, generated before anything is timed.
    fn inputs(self, seed: u64, scn: &Scenario) -> Inputs {
        let top = DomainPopulation::new(scn.population).top(self.names());
        if self != Workload::WarmZipf {
            return Inputs { warm: Vec::new(), measured: top, step_ns: 0 };
        }
        let zipf = Zipf::new(top.len(), WARM_ZIPF_S);
        let measured = (0..WARM_QUERIES as u64)
            .map(|i| top[zipf.sample_hash(mix(seed ^ 0x21bf, i)) - 1].clone())
            .collect();
        Inputs { warm: top, measured, step_ns: WARM_STEP_NS }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    canary: bool,
    pin_seeds: Option<(u64, u64)>,
}

const USAGE: &str = "usage: perfbench --workload <cold-top|cold-txt|warm-zipf|fig12-model> \
--seed <n> --seconds <s> --trace <0|1> [--canary] [--pin-seeds <a>-<b>]";

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut canary = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--canary" => canary = true,
            "--workload" | "--seed" | "--seconds" | "--trace" | "--pin-seeds" => {
                let value = it.next().ok_or(format!("{arg} needs a value"))?;
                flags.insert(arg, value);
            }
            _ => return Err(format!("unknown argument {arg:?}")),
        }
    }
    let get = |k: &str| flags.get(k).map(String::as_str);
    let workload = get("--workload").ok_or("--workload is required")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == workload)
        .ok_or(format!("unknown workload {workload:?}"))?;
    let number = |k: &str, default: &str| {
        get(k).unwrap_or(default).parse::<u64>().map_err(|_| format!("{k} must be a whole number"))
    };
    let trace = match number("--trace", "0")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    let pin_seeds = match get("--pin-seeds") {
        Some(range) => {
            let (a, b) = range.split_once('-').ok_or("--pin-seeds takes a range a-b")?;
            let parse = |s: &str| s.parse::<u64>().map_err(|_| "--pin-seeds takes a range a-b");
            Some((parse(a)?, parse(b)?))
        }
        None => None,
    };
    Ok(Args {
        workload,
        seed: number("--seed", "1")?,
        seconds: number("--seconds", "10")? as f64,
        trace,
        canary,
        pin_seeds,
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What a run produced, before the pins are consulted.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    print: Print,
    /// Exact traced work counts (traced runs).
    counts: Option<Print>,
    violations: Vec<String>,
    /// Human-readable lines for stderr.
    notes: Vec<String>,
}

/// Records `print` as the run's fingerprint, or a violation if a later
/// pass disagrees with the first.
fn same_print(first: &mut Option<Print>, print: Print, what: &str, violations: &mut Vec<String>) {
    match first {
        None => *first = Some(print),
        Some(p) if *p != print => violations.push(format!("{what} differs between passes")),
        Some(_) => {}
    }
}

/// One measured pass of a resolver workload.
struct PassStats {
    rate: f64,
    setup_s: f64,
    p50_us: f64,
    p99_us: f64,
    calls: u64,
    errors: u64,
    violations: Vec<String>,
    print: Print,
}

/// Runs passes until `seconds` have passed since `start` (at least
/// [`MIN_PASSES`]). Each call latency is timed; a pass holds at least
/// 2,000 calls, so 20 lie beyond its 99th percentile.
fn resolver_worker(
    scn: &Scenario,
    inputs: &Inputs,
    start: Instant,
    seconds: f64,
) -> Vec<PassStats> {
    let mut out = Vec::new();
    while out.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let pass = run_pass(scn, inputs, None);
        let mut latencies: Vec<f64> = pass.latencies_ns.iter().map(|&ns| ns as f64).collect();
        latencies.sort_by(f64::total_cmp);
        out.push(PassStats {
            rate: latencies.len() as f64 / (pass.resolve_ns as f64 / 1e9),
            setup_s: pass.setup_s,
            p50_us: quantile(&latencies, 0.5) / 1e3,
            p99_us: quantile(&latencies, 0.99) / 1e3,
            calls: latencies.len() as u64,
            errors: pass.errors,
            violations: pass.violations,
            print: pass.print,
        });
    }
    out
}

/// A resolver workload on `jobs` workers, each an independent replica
/// (its own Internet and resolver) doing the same passes. Throughput is
/// the sum of the workers' median pass rates; latencies and set-up are
/// medians over all passes.
fn resolver_run(w: Workload, seed: u64, seconds: f64, jobs: usize) -> Outcome {
    let scn = w.scenario(seed);
    let inputs = w.inputs(seed, &scn);
    let start = Instant::now();
    let mut violations = Vec::new();
    let workers: Vec<Vec<PassStats>> = std::thread::scope(|s| {
        let handles: Vec<_> =
            (0..jobs).map(|_| s.spawn(|| resolver_worker(&scn, &inputs, start, seconds))).collect();
        handles
            .into_iter()
            .filter_map(|h| match h.join() {
                Ok(passes) => Some(passes),
                Err(_) => {
                    violations.push("a worker panicked".to_string());
                    None
                }
            })
            .collect()
    });
    let passes: Vec<&PassStats> = workers.iter().flatten().collect();
    let mut print = None;
    for p in &passes {
        violations.extend(p.violations.iter().cloned());
        same_print(&mut print, p.print.clone(), "the fingerprint", &mut violations);
    }
    let worker_rates: Vec<f64> =
        workers.iter().map(|ps| median(&ps.iter().map(|p| p.rate).collect::<Vec<_>>())).collect();
    let all = |f: fn(&PassStats) -> f64| median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>());
    let calls: u64 = passes.iter().map(|p| p.calls).sum();
    let errors: u64 = passes.iter().map(|p| p.errors).sum();
    let metrics = vec![
        Metric::new("ops_per_s", worker_rates.iter().sum(), "1/s"),
        Metric::new("op_p50_us", all(|p| p.p50_us), "us"),
        Metric::new("op_tail_us", all(|p| p.p99_us), "us"),
        Metric::new("setup_s", all(|p| p.setup_s), "s"),
        Metric::new("peak_rss_mb", util::peak_rss_mb(), "MiB"),
    ];
    let n = passes.len();
    let per_pass = inputs.measured.len();
    let notes = vec![
        format!(
            "resolutions_per_s   {:.1}  ({jobs} workers; per-worker medians {:.1?} over {n} passes)",
            metrics[0].value, worker_rates
        ),
        format!("resolve_p50_us      {:.3}  (median over passes; {per_pass} calls a pass)", metrics[1].value),
        format!("resolve_p99_us      {:.3}  (median over passes; {} beyond p99 in a pass)", metrics[2].value, per_pass / 100),
        format!("setup_s             {:.4}  (median of {n} set-ups)", metrics[3].value),
        format!("failed_frac         {}  ({errors} of {calls} resolutions)", errors as f64 / calls.max(1) as f64),
    ];
    Outcome {
        attempted: calls.max(1),
        failed: errors,
        metrics,
        print: print.unwrap_or_default(),
        counts: None,
        violations,
        notes,
    }
}

fn fig12_run(seed: u64, seconds: f64, jobs: usize) -> Outcome {
    let setups: Vec<f64> = (0..SETUPS).map(|_| fig12::setup(seed, jobs)).collect();
    let exec = Executor::new(jobs);
    let start = Instant::now();
    let (mut rates, mut times) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut violations, mut print) = (0, 0, Vec::new(), None);
    while attempted < MIN_PASSES as u64 || start.elapsed().as_secs_f64() < seconds {
        attempted += 1;
        let (data, ns) = fig12::pass(&exec, seed);
        let Some(data) = data else {
            failed += 1;
            continue;
        };
        rates.push(fig12::samples(&data) as f64 / (ns as f64 / 1e9));
        times.push(ns as f64);
        if print.is_none() {
            violations.extend(fig12::check(&data, seed));
        }
        same_print(&mut print, fig12::fingerprint(&data), "the fig12 series", &mut violations);
    }
    times.sort_by(f64::total_cmp);
    let n = times.len();
    let metrics = vec![
        Metric::new("ops_per_s", median(&rates), "1/s"),
        Metric::new("op_p50_us", quantile(&times, 0.5) / 1e3, "us"),
        Metric::new("op_tail_us", quantile(&times, 0.9) / 1e3, "us"),
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("peak_rss_mb", util::peak_rss_mb(), "MiB"),
    ];
    let notes = vec![
        format!(
            "model_samples_per_s {:.0}  (cache-model samples, not resolutions; median of {n} passes, jobs={jobs})",
            metrics[0].value
        ),
        format!("pass_p50_us         {:.0}  (n={n} passes)", metrics[1].value),
        format!("pass_p90_us         {:.0}  (n={n}, {} beyond)", metrics[2].value, n / 10),
        format!("setup_s             {:.4}  (median of {SETUPS} set-ups)", metrics[3].value),
        format!("failed_frac         {}  ({failed} of {attempted} passes)", failed as f64 / attempted as f64),
    ];
    Outcome {
        attempted,
        failed,
        metrics,
        print: print.unwrap_or_default(),
        counts: None,
        violations,
        notes,
    }
}

/// Per-layer metric names and units, in report order.
fn layer_units() -> Vec<(String, &'static str)> {
    let mut units: Vec<(String, &'static str)> = [
        ("resolver.self_us_per_res", "us"),
        ("resolver.isolated_us_per_res", "us"),
        ("resolver.exchanges_per_res", "count"),
        ("resolver.cache_hit_frac", "frac"),
        ("resolver.dlv_sent_per_res", "count"),
        ("resolver.dlv_suppressed_per_res", "count"),
        ("resolver.dlv_skipped_per_res", "count"),
        ("crypto.rrsigs_per_res", "count"),
        ("crypto.verify_us", "us"),
        ("crypto.sign_us", "us"),
        ("crypto.ds_digest_us", "us"),
    ]
    .iter()
    .map(|&(k, u)| (k.to_string(), u))
    .collect();
    for b in trace::BUCKETS {
        units.push((format!("server.us_per_exchange.{b}"), "us"));
    }
    for b in trace::BUCKETS {
        units.push((format!("server.exchanges_per_res.{b}"), "count"));
    }
    for (k, u) in [
        ("server.sld_first_touch_us", "us"),
        ("server.sld_repeat_us", "us"),
        ("netsim.us_per_exchange", "us"),
        ("netsim.bytes_per_res", "bytes"),
        ("wire.render_us_per_msg", "us"),
        ("wire.renders_per_exchange", "count"),
        ("core.build_s", "s"),
        ("core.sink_ns_per_packet", "ns"),
        ("core.dlv_packets_per_res", "count"),
        ("engine.efficiency", "frac"),
        ("engine.serial_ns_per_sample", "ns"),
        ("workload.zipf_ns_per_sample", "ns"),
        ("trace.overhead_frac", "frac"),
        ("trace.unaccounted_frac", "frac"),
    ] {
        units.push((k.to_string(), u));
    }
    units
}

/// A traced run: rounds of resolver replays (for fig12-model, of its two
/// calibration runs) plus the engine and sampler probe, until `seconds`.
fn traced_run(w: Workload, seed: u64, seconds: f64, jobs: usize) -> Outcome {
    let cases: Vec<(String, Scenario, Inputs)> = if w == Workload::Fig12Model {
        fig12::calibration()
            .into_iter()
            .map(|(scn, inputs)| (format!("{:?}.", scn.remedy).to_lowercase(), scn, inputs))
            .collect()
    } else {
        let scn = w.scenario(seed);
        let inputs = w.inputs(seed, &scn);
        vec![(String::new(), scn, inputs)]
    };
    let mut violations =
        if w == Workload::Fig12Model { fig12::check_calibration() } else { Vec::new() };
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let (mut print, mut counts) = (None, None);
    let (mut attempted, mut failed, mut rounds) = (0, 0, 0);
    let start = Instant::now();
    while rounds < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        rounds += 1;
        let (mut round_print, mut round_counts) = (Vec::new(), Vec::new());
        let mut sums: BTreeMap<String, f64> = BTreeMap::new();
        for (prefix, scn, inputs) in &cases {
            let round = trace::resolver_round(scn, inputs);
            attempted += round.resolutions;
            failed += round.errors;
            violations.extend(round.violations);
            for (k, v) in round.values {
                *sums.entry(k).or_default() += v / cases.len() as f64;
            }
            round_print.extend(round.print.into_iter().map(|(k, v)| (format!("{prefix}{k}"), v)));
            round_counts.extend(round.counts.into_iter().map(|(k, v)| (format!("{prefix}{k}"), v)));
        }
        let probe = fig12::probe(seed, jobs);
        violations.extend(probe.violations);
        sums.insert("engine.efficiency".to_string(), probe.efficiency);
        sums.insert("engine.serial_ns_per_sample".to_string(), probe.serial_ns_per_sample);
        sums.insert("workload.zipf_ns_per_sample".to_string(), probe.zipf_ns_per_sample);
        if w == Workload::Fig12Model {
            round_print = probe.print;
        }
        for (k, v) in sums {
            samples.entry(k).or_default().push(v);
        }
        same_print(&mut print, round_print, "the fingerprint", &mut violations);
        same_print(&mut counts, round_counts, "the traced work counts", &mut violations);
    }
    let mut metrics = Vec::new();
    for (name, unit) in layer_units() {
        match samples.get(&name) {
            Some(v) => metrics.push(Metric::new(name, median(v), unit)),
            None => violations.push(format!("no value for {name}")),
        }
    }
    let mut notes: Vec<String> =
        metrics.iter().map(|m| format!("{:<34} {:>14.4} {}", m.name, m.value, m.unit)).collect();
    notes.push(format!("(medians of {rounds} traced rounds, jobs={jobs})"));
    Outcome {
        attempted: attempted.max(1),
        failed,
        metrics,
        print: print.unwrap_or_default(),
        counts,
        violations,
        notes,
    }
}

/// Prints pin lines for a range of seeds (a minimal run of each).
fn pin(w: Workload, trace: bool, (a, b): (u64, u64), jobs: usize) {
    for seed in a..=b {
        let out =
            if trace { traced_run(w, seed, 0.0, jobs) } else { run(w, seed, 0.0, false, jobs) };
        if !out.violations.is_empty() {
            eprintln!("seed {seed}: {:?}", out.violations);
            std::process::exit(1);
        }
        match (trace, &out.counts) {
            (true, Some(counts)) => println!("{}", pins::line(w.name(), seed, "trace", counts)),
            _ => println!("{}", pins::line(w.name(), seed, "run", &out.print)),
        }
    }
}

fn run(w: Workload, seed: u64, seconds: f64, trace: bool, jobs: usize) -> Outcome {
    match (w, trace) {
        (_, true) => traced_run(w, seed, seconds, jobs),
        (Workload::Fig12Model, false) => fig12_run(seed, seconds, jobs),
        _ => resolver_run(w, seed, seconds, jobs),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let jobs = nproc();
    if let Some(range) = args.pin_seeds {
        pin(args.workload, args.trace, range, jobs);
        return;
    }
    let w = args.workload;
    let mut out = run(w, args.seed, args.seconds, args.trace, jobs);

    // The output check: pinned fingerprints where this seed has them.
    let mut pinned = Vec::new();
    let mut checks = vec![("run", Some(out.print.clone()))];
    checks.push(("trace", out.counts.clone()));
    for (kind, actual) in checks {
        let (Some(actual), Some(mut expected)) = (actual, pins::lookup(w.name(), args.seed, kind))
        else {
            continue;
        };
        if args.canary {
            if let Some(first) = expected.first_mut() {
                first.1 = first.1.wrapping_add(1);
            }
        }
        pinned.push(kind);
        out.violations
            .extend(pins::diff(&expected, &actual).into_iter().map(|d| format!("{kind} pin: {d}")));
    }
    if args.canary && pinned.is_empty() {
        out.violations.push(format!("--canary needs a pinned seed; {} has none", args.seed));
    }
    let correct = out.violations.is_empty();
    let failed = if correct { out.failed } else { out.attempted };

    eprintln!("== {} seed={} trace={} nproc={jobs}", w.name(), args.seed, u8::from(args.trace));
    for note in &out.notes {
        eprintln!("  {note}");
    }
    match pinned.is_empty() {
        true => eprintln!(
            "  output check: seed not pinned; checked invariants and pass-to-pass equality"
        ),
        false => eprintln!("  output check: pinned {} fingerprint(s) compared", pinned.join("+")),
    }
    for v in &out.violations {
        eprintln!("  CHECK FAILED: {v}");
    }

    let violations: Vec<String> = out.violations.iter().map(|v| json_str(v)).collect();
    println!(
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"jobs\": {jobs}, \"pinned\": [{}], \
         \"fingerprint\": {}, \"counts\": {}, \"violations\": [{}]}}}}",
        json_str(w.name()),
        args.seed,
        u8::from(args.trace),
        pinned.iter().map(|k| json_str(k)).collect::<Vec<_>>().join(", "),
        pairs_json(&out.print),
        out.counts.as_ref().map_or("null".to_string(), |c| pairs_json(c)),
        violations.join(", "),
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        out.attempted,
        metrics_json(&out.metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
