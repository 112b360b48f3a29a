//! The packet capture is the oracle for the per-packet leak fold.
//!
//! Every experiment folds DLV packets into a [`LeakSink`] as they happen;
//! the paper instead captures packets and classifies the capture
//! afterwards. The same-run proptest tees one run into both: the network
//! records the case's capture filter while a `LeakSink` and a
//! [`DlvQueryCounter`] observe the same packets. Classifying the capture
//! must give exactly the sink's report, for any seed, size, remedy and
//! capture filter (including `None`, where both must report nothing).
//!
//! Two checks pin the experiment entry points to that batch method:
//! [`run_stream`] must equal a capture-then-classify run of the same
//! config, and the Fig. 12 replay must print the bytes in
//! `tests/golden/fig12.txt` (written by the batch window loop) at one
//! worker and at four.

use std::cell::RefCell;
use std::rc::Rc;

use lookaside::engine::Executor;
use lookaside::experiments::RunConfig;
use lookaside::netsim::{CaptureFilter, DlvQueryCounter, Packet, PacketSink, TrafficStats};
use lookaside::report::{megabytes, render_table};
use lookaside::wire::ext::RemedyMode;
use lookaside::wire::RrType;
use lookaside::{
    classify, fig12_stream, run_stream, Internet, InternetParams, LeakSink, LeakageReport,
};
use proptest::prelude::*;

/// Shows every packet to both sinks, in order.
struct Tee(Rc<RefCell<LeakSink>>, Rc<RefCell<DlvQueryCounter>>);

impl PacketSink for Tee {
    fn observe(&mut self, packet: &Packet) {
        self.0.borrow_mut().observe(packet);
        self.1.borrow_mut().observe(packet);
    }

    fn reset(&mut self) {
        self.0.borrow_mut().reset();
        self.1.borrow_mut().reset();
    }
}

fn remedy(idx: usize) -> RemedyMode {
    match idx {
        0 => RemedyMode::None,
        1 => RemedyMode::TxtSignal,
        2 => RemedyMode::ZBit,
        _ => RemedyMode::HashedDlv,
    }
}

fn capture_filter(idx: usize) -> CaptureFilter {
    match idx {
        0 => CaptureFilter::All,
        1 => CaptureFilter::DlvOnly,
        _ => CaptureFilter::None,
    }
}

/// The batch method for one run of `RunConfig::quick(n)` (which queries
/// the top `n`): record the config's capture, resolve, then classify. Returns the report with
/// the traffic stats and simulated clock, which recording must not move.
fn capture_then_classify(
    config: &RunConfig,
    n: usize,
) -> (LeakageReport, TrafficStats, u64, usize) {
    let mut params = InternetParams::for_top(n, config.population, config.remedy);
    params.dlv_span_ttl = config.dlv_span_ttl;
    params.dlv_denial = config.dlv_denial;
    params.seed = config.seed;
    params.capture = config.capture;
    let mut internet = Internet::build(params);
    let mut resolver = internet.resolver(config.resolver, config.seed ^ 0x5a17);
    let names = internet.population.top(n);
    for name in &names {
        let _ = resolver.resolve(&mut internet.net, name, RrType::A);
    }
    let report = classify(internet.net.capture(), &internet.dlv_apex);
    (report, internet.net.stats().clone(), internet.net.now_ns(), names.len())
}

/// `repro fig12` rendering of a Fig. 12 replay.
fn render_fig12(scale: u64, data: &lookaside::experiments::Fig12Data) -> String {
    let minutes = data.per_minute.len();
    let sample = [0usize, minutes / 4, minutes / 2, 3 * minutes / 4, minutes - 1];
    let rows: Vec<Vec<String>> = sample
        .iter()
        .map(|&m| {
            vec![
                m.to_string(),
                data.per_minute[m].to_string(),
                data.cumulative_queries[m].to_string(),
                megabytes(data.cumulative_baseline_bytes[m]),
                megabytes(data.cumulative_overhead_bytes[m]),
            ]
        })
        .collect();
    format!(
        "\n== Fig. 12: DITL trace-driven overhead (sampling 1/{scale}) ==\n{}\
         total overhead: {} MB over 7h = {:.3} Mbps (paper: \u{2248}1.2 GB, 0.38 Mbps)\n",
        render_table(&["minute", "queries/min", "cum queries", "cum base MB", "cum ovh MB"], &rows),
        megabytes(*data.cumulative_overhead_bytes.last().unwrap()),
        data.overhead_mbps
    )
}

/// The Fig. 12 trace replay: the ordered fold over window shards prints
/// the bytes the batch concatenate-then-prefix-sum pipeline wrote to the
/// golden file, at one worker and at four.
#[test]
fn fig12_stream_matches_batch_at_one_and_four_workers() {
    let batch = include_str!("golden/fig12.txt");
    for exec in [Executor::serial(), Executor::new(4)] {
        let streamed = render_fig12(500, &fig12_stream(&exec, 23, 500));
        assert_eq!(streamed, batch, "{} workers", exec.jobs());
    }
}

proptest! {
    /// A single experiment run: `run_stream` (the per-packet fold) gives
    /// the report, traffic and clock of capturing with the run's filter
    /// and classifying afterwards, for any seed, size, remedy and filter.
    #[test]
    fn run_stream_matches_batch_for_any_config(
        seed in 0u64..1_000,
        n in 10usize..40,
        remedy_idx in 0usize..4,
        capture_idx in 0usize..3,
    ) {
        let mut config = RunConfig::quick(n);
        config.seed = seed;
        config.remedy = remedy(remedy_idx);
        config.capture = capture_filter(capture_idx);
        let streamed = run_stream(&config);
        let (report, stats, elapsed_ns, queried) = capture_then_classify(&config, n);
        prop_assert_eq!(&streamed.leakage, &report);
        prop_assert_eq!(&streamed.stats, &stats);
        prop_assert_eq!(streamed.elapsed_ns, elapsed_ns);
        prop_assert_eq!(streamed.queried, queried);
    }

    #[test]
    fn classifying_the_capture_equals_the_sink_of_the_same_run(
        seed in 0u64..1_000,
        n in 10usize..40,
        remedy_idx in 0usize..4,
        capture_idx in 0usize..3,
    ) {
        let filter = capture_filter(capture_idx);
        let config = RunConfig::quick(n);
        let mut params = InternetParams::for_top(n, config.population, remedy(remedy_idx));
        params.seed = seed;
        params.capture = filter;
        let mut internet = Internet::build(params);
        let leak = Rc::new(RefCell::new(LeakSink::new(filter, internet.dlv_apex.clone())));
        let counter = Rc::new(RefCell::new(DlvQueryCounter::new()));
        internet.net.set_observer(Box::new(Tee(Rc::clone(&leak), Rc::clone(&counter))));
        let mut resolver = internet.resolver(config.resolver, seed ^ 0x5a17);
        for name in internet.population.top(n) {
            let _ = resolver.resolve(&mut internet.net, &name, RrType::A);
        }

        let capture = internet.net.capture();
        prop_assert_eq!(&leak.borrow().report, &classify(capture, &internet.dlv_apex));
        if filter.keeps(RrType::Dlv) {
            prop_assert_eq!(counter.borrow().queries as usize, capture.dlv_queries().count());
        }
    }
}
