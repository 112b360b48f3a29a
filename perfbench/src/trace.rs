//! The traced run: record the packet stream of one pass, then replay the
//! recorded corpus through each layer's public functions on its own.
//!
//! Nothing here instruments the program. The recorder is a `PacketSink`;
//! the layers are timed by replaying what it saw:
//!
//! * upstream (server + netsim): every recorded query re-sent with
//!   `Network::exchange` into a fresh `Internet`, timed per exchange and
//!   bucketed by destination;
//! * netsim: the same queries on a bare `Network::new` whose only node is
//!   a canned handler returning the recorded responses;
//! * resolver in isolation: the whole pass re-run against a fresh Internet
//!   whose nodes are all canned handlers;
//! * crypto, wire, core: their kernels over the corpus messages and packets.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::Instant;

use lookaside::internet::{Internet, DLV_ADDR, ISC_ADDR, ROOT_ADDR};
use lookaside::netsim::{CaptureFilter, Direction, DnsHandler, Network, Packet};
use lookaside::resolver::verify_rrset;
use lookaside::wire::{Message, Name, RData, Rcode, Record, RenderArena, RrSet, RrType};
use lookaside::zone::rrsig_signing_input;
use lookaside::LeakSink;
use lookaside_crypto::{ds_digest, KeyPair, PublicKey};

use crate::scenario::{run_pass, Inputs, Pass, Print, Recorder, Scenario};

/// Destination classes, in report order. `sld` is the default route.
pub const BUCKETS: [&str; 5] = ["root", "tld", "sld", "isc", "dlv"];

fn bucket(net: &Network, dst: Ipv4Addr) -> usize {
    match dst {
        d if d == ROOT_ADDR => 0,
        d if d == ISC_ADDR => 3,
        d if d == DLV_ADDR => 4,
        d if net.label_of(d).is_some() => 1,
        _ => 2,
    }
}

/// One recorded exchange.
struct Exchange {
    dst: Ipv4Addr,
    bucket: usize,
    qname: Name,
    qtype: RrType,
    query_size: usize,
    response_size: usize,
    /// Part of the measured phase (after the warm-up).
    measured: bool,
}

/// Pairs the recorded query and response packets. Without faults every
/// query is answered before the next one leaves.
fn exchanges(
    net: &Network,
    packets: &[Packet],
    measured_from: usize,
) -> Result<Vec<Exchange>, String> {
    let mut out = Vec::with_capacity(packets.len() / 2);
    let mut i = 0;
    while i < packets.len() {
        let (q, r) = match (packets.get(i), packets.get(i + 1)) {
            (Some(q), Some(r))
                if q.direction == Direction::Query
                    && r.direction == Direction::Response
                    && q.dst == r.dst
                    && q.qname == r.qname =>
            {
                (q, r)
            }
            _ => return Err(format!("packet {i} is not a query followed by its response")),
        };
        out.push(Exchange {
            dst: q.dst,
            bucket: bucket(net, q.dst),
            qname: q.qname.clone(),
            qtype: q.qtype,
            query_size: q.size,
            response_size: r.size,
            measured: i >= measured_from,
        });
        i += 2;
    }
    Ok(out)
}

/// The query the resolver builds: DNSSEC-OK for everything a validating
/// resolver asks, a plain query for its fire-and-forget PTR probes.
fn query_for(id: u16, ex: &Exchange) -> Message {
    if ex.qtype == RrType::Ptr {
        Message::query(id, ex.qname.clone(), ex.qtype)
    } else {
        Message::dnssec_query(id, ex.qname.clone(), ex.qtype)
    }
}

/// Answers every query with the next recorded response.
struct Canned {
    queue: VecDeque<Message>,
    divergences: u64,
}

struct CannedNode(Rc<RefCell<Canned>>);

impl DnsHandler for CannedNode {
    fn handle(&mut self, query: &Message, _now_ns: u64) -> Message {
        let mut canned = self.0.borrow_mut();
        match canned.queue.pop_front() {
            Some(mut response) if response.questions == query.questions => {
                response.header.id = query.header.id;
                response
            }
            _ => {
                canned.divergences += 1;
                let mut response = query.response();
                response.header.flags.rcode = Rcode::ServFail;
                response
            }
        }
    }
}

/// Per-bucket wall time and exchange counts of one replay.
#[derive(Default)]
struct Buckets {
    ns: [u64; 5],
    n: [u64; 5],
    measured_ns: u64,
}

impl Buckets {
    fn new(exs: &[Exchange], times: &[u64]) -> Self {
        let mut b = Buckets::default();
        for (ex, &ns) in exs.iter().zip(times) {
            b.ns[ex.bucket] += ns;
            b.n[ex.bucket] += 1;
            if ex.measured {
                b.measured_ns += ns;
            }
        }
        b
    }

    fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    fn total_n(&self) -> u64 {
        self.n.iter().sum()
    }

    fn mean_ns(&self, b: usize) -> f64 {
        self.ns[b] as f64 / self.n[b].max(1) as f64
    }
}

/// How many times each replay runs; every exchange keeps the median of
/// its times, so one stall on a shared machine does not land in a bucket.
const REPLAYS: usize = 3;

fn median_times(runs: &[Vec<u64>]) -> Vec<u64> {
    let len = runs.iter().map(Vec::len).min().unwrap_or(0);
    (0..len)
        .map(|i| {
            let mut v: Vec<u64> = runs.iter().map(|r| r[i]).collect();
            v.sort_unstable();
            v[v.len() / 2]
        })
        .collect()
}

/// Upstream replay: the recorded queries into a fresh Internet.
struct Upstream {
    times: Vec<u64>,
    responses: Vec<Message>,
    /// Exchanges whose replayed sizes differ from the recording.
    mismatches: u64,
}

fn replay_upstream(scn: &Scenario, exs: &[Exchange], queries: &[Message]) -> Upstream {
    let mut internet = Internet::build(scn.params());
    internet.net.set_observer(Box::new(LeakSink::new(scn.sink_filter, internet.dlv_apex.clone())));
    let mut up = Upstream {
        times: Vec::with_capacity(exs.len()),
        responses: Vec::with_capacity(exs.len()),
        mismatches: 0,
    };
    for (ex, query) in exs.iter().zip(queries) {
        let t = Instant::now();
        let result = internet.net.exchange(ex.dst, query);
        up.times.push(t.elapsed().as_nanos() as u64);
        match result {
            Ok(x) => {
                if x.query_bytes != ex.query_size || x.response_bytes != ex.response_size {
                    up.mismatches += 1;
                }
                up.responses.push(x.response);
            }
            Err(_) => {
                up.mismatches += 1;
                up.responses.push(query.response());
            }
        }
    }
    up
}

/// Server time of the first exchange with each SLD apex (zone build and
/// signing) and of the later ones, `(total ns, exchanges)` each.
fn sld_touches(exs: &[Exchange], times: &[u64]) -> [(u64, u64); 2] {
    let mut touched = BTreeSet::new();
    let mut out = [(0, 0); 2];
    for (ex, &ns) in exs.iter().zip(times).filter(|(ex, _)| ex.bucket == 2) {
        let apex = ex.qname.suffix(2.min(ex.qname.label_count()));
        let slot = &mut out[usize::from(!touched.insert(apex))];
        slot.0 += ns;
        slot.1 += 1;
    }
    out
}

/// Netsim replay: the recorded queries on a bare network whose default
/// route is a canned handler, with the same leak classifier observing.
fn replay_netsim(
    scn: &Scenario,
    apex: &Name,
    exs: &[Exchange],
    queries: &[Message],
    responses: &[Message],
) -> (Vec<u64>, u64) {
    let canned = Rc::new(RefCell::new(Canned { queue: responses.to_vec().into(), divergences: 0 }));
    let mut net = Network::new(scn.net_seed);
    // Like the workload's network: no capture, only the observer.
    net.set_capture_filter(CaptureFilter::None);
    net.set_default_route(Box::new(CannedNode(canned.clone())));
    net.set_observer(Box::new(LeakSink::new(scn.sink_filter, apex.clone())));
    let mut times = Vec::with_capacity(exs.len());
    for (ex, query) in exs.iter().zip(queries) {
        let t = Instant::now();
        let result = net.exchange(ex.dst, query);
        times.push(t.elapsed().as_nanos() as u64);
        black_box(result.is_ok());
    }
    let divergences = canned.borrow().divergences;
    (times, divergences)
}

/// The resolver in isolation: the whole pass again, with every server
/// replaced by the canned handler. Returns the measured resolve time, the
/// run's fingerprint, and how often a query was not the recorded one.
fn replay_resolver(
    scn: &Scenario,
    inputs: &Inputs,
    exs: &[Exchange],
    responses: &[Message],
) -> (u64, Print, u64) {
    let canned = Rc::new(RefCell::new(Canned { queue: responses.to_vec().into(), divergences: 0 }));
    let prepare = |env: &mut crate::scenario::Env| {
        let net = &mut env.internet.net;
        let registered: BTreeMap<Ipv4Addr, String> = exs
            .iter()
            .filter_map(|ex| net.label_of(ex.dst).map(|l| (ex.dst, l.to_string())))
            .collect();
        for (addr, label) in registered {
            net.replace_node(addr, &label, Box::new(CannedNode(canned.clone())));
        }
        net.set_default_route(Box::new(CannedNode(canned.clone())));
    };
    let pass = crate::scenario::run_pass_prepared(scn, inputs, None, prepare);
    let divergences = canned.borrow().divergences;
    (pass.resolve_ns, pass.print, divergences)
}

/// An RRset and the RRSIG over it, as delivered in one response section.
struct Signed {
    rrset: RrSet,
    sig: Record,
}

fn signed_sets(responses: &[Message]) -> Vec<Signed> {
    let mut out = Vec::new();
    for msg in responses {
        for section in [&msg.answers, &msg.authorities] {
            for rec in section.iter() {
                let RData::Rrsig { type_covered, .. } = &rec.rdata else { continue };
                let members: Vec<&Record> = section
                    .iter()
                    .filter(|r| r.name == rec.name && r.rrtype == *type_covered)
                    .collect();
                let Some(first) = members.first() else { continue };
                let mut rrset = RrSet::empty(rec.name.clone(), *type_covered, first.ttl);
                rrset.rdatas = members.iter().map(|r| r.rdata.clone()).collect();
                out.push(Signed { rrset, sig: rec.clone() });
            }
        }
    }
    out
}

/// RRSIG records delivered in the measured phase's responses.
fn measured_rrsigs(exs: &[Exchange], responses: &[Message]) -> u64 {
    let rrsigs = |msg: &Message| {
        [&msg.answers, &msg.authorities, &msg.additionals]
            .iter()
            .map(|s| s.iter().filter(|r| r.rrtype == RrType::Rrsig).count() as u64)
            .sum::<u64>()
    };
    exs.iter().zip(responses).filter(|(ex, _)| ex.measured).map(|(_, m)| rrsigs(m)).sum()
}

fn dnskeys(responses: &[Message]) -> BTreeMap<Name, Vec<PublicKey>> {
    let mut keys: BTreeMap<Name, Vec<PublicKey>> = BTreeMap::new();
    for msg in responses {
        for rec in &msg.answers {
            if let RData::Dnskey { flags, public_key, .. } = &rec.rdata {
                if let Some(key) = PublicKey::from_dnskey(*flags, public_key) {
                    let set = keys.entry(rec.name.clone()).or_default();
                    if !set.contains(&key) {
                        set.push(key);
                    }
                }
            }
        }
    }
    keys
}

/// Repeats `f` over `items` until at least `min_ops` calls ran; returns
/// nanoseconds per call.
fn per_call_ns<T>(items: &[T], min_ops: usize, mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let rounds = min_ops.div_ceil(items.len()).max(1);
    let t = Instant::now();
    for _ in 0..rounds {
        for item in items {
            f(item);
        }
    }
    t.elapsed().as_nanos() as f64 / (rounds * items.len()) as f64
}

/// One traced round of a resolver workload.
pub struct Round {
    pub values: Vec<(String, f64)>,
    /// Exact counts of the traced pass (compared across rounds and pinned).
    pub counts: Print,
    /// Fingerprint of the untraced pass.
    pub print: Print,
    pub resolutions: u64,
    pub errors: u64,
    pub violations: Vec<String>,
}

/// Untraced pass, traced pass, the three replays and the kernels.
pub fn resolver_round(scn: &Scenario, inputs: &Inputs) -> Round {
    let plain = run_pass(scn, inputs, None);
    let rec = Rc::new(RefCell::new(Recorder::default()));
    let traced = run_pass(scn, inputs, Some(rec.clone()));
    let mut violations = plain.violations.clone();
    violations.extend(traced.violations.iter().cloned());
    if traced.print != plain.print {
        violations.push("traced run counts differ from the untraced run".to_string());
    }
    let packets = std::mem::take(&mut rec.borrow_mut().packets);
    let exs = match exchanges(&traced.env.internet.net, &packets, traced.start.packets) {
        Ok(exs) => exs,
        Err(e) => {
            violations.push(e);
            Vec::new()
        }
    };
    let queries: Vec<Message> =
        exs.iter().enumerate().map(|(i, ex)| query_for((i % 65_535) as u16 + 1, ex)).collect();

    let mut ups: Vec<Upstream> =
        (0..REPLAYS).map(|_| replay_upstream(scn, &exs, &queries)).collect();
    let mismatches: u64 = ups.iter().map(|u| u.mismatches).sum();
    if mismatches > 0 {
        violations
            .push(format!("{mismatches} replayed exchanges differ in size from the recording"));
    }
    let up_times = median_times(&ups.iter().map(|u| u.times.clone()).collect::<Vec<_>>());
    let responses = std::mem::take(&mut ups[0].responses);
    let apex = traced.env.internet.dlv_apex.clone();
    let nets: Vec<(Vec<u64>, u64)> =
        (0..REPLAYS).map(|_| replay_netsim(scn, &apex, &exs, &queries, &responses)).collect();
    let net_div: u64 = nets.iter().map(|n| n.1).sum();
    let net_times = median_times(&nets.into_iter().map(|n| n.0).collect::<Vec<_>>());
    let (iso_ns, iso_print, iso_div) = replay_resolver(scn, inputs, &exs, &responses);
    if net_div + iso_div > 0 {
        violations.push(format!(
            "canned replays diverged from the recording {} times",
            net_div + iso_div
        ));
    }
    if iso_print != plain.print {
        violations.push("resolver replay against canned responses changed the counts".to_string());
    }

    let replays = Replays {
        upstream: Buckets::new(&exs, &up_times),
        netsim: Buckets::new(&exs, &net_times),
        touches: sld_touches(&exs, &up_times),
        responses,
        iso_ns,
    };
    let counts = trace_counts(&traced, &exs, &replays.responses);
    let values = layer_values(&plain, &traced, &exs, &packets, &replays, &queries, &mut violations);
    Round {
        values,
        counts,
        print: plain.print.clone(),
        resolutions: plain.latencies_ns.len() as u64,
        errors: plain.errors,
        violations,
    }
}

/// Exact traced counts: measured-phase exchanges per destination class,
/// RRSIGs delivered, packets and renders.
fn trace_counts(traced: &Pass, exs: &[Exchange], responses: &[Message]) -> Print {
    let mut counts: Print = Vec::new();
    for (b, name) in BUCKETS.iter().enumerate() {
        let n = exs.iter().filter(|ex| ex.measured && ex.bucket == b).count() as u64;
        counts.push((format!("exchanges.{name}"), n));
    }
    counts.push(("rrsigs".to_string(), measured_rrsigs(exs, responses)));
    counts.push(("packets".to_string(), (exs.iter().filter(|ex| ex.measured).count() * 2) as u64));
    counts.push(("renders".to_string(), traced.end.renders - traced.start.renders));
    counts.push(("no_exchange".to_string(), traced.no_exchange));
    counts
}

/// What the replays measured.
struct Replays {
    upstream: Buckets,
    netsim: Buckets,
    /// SLD first-touch and repeat upstream times.
    touches: [(u64, u64); 2],
    responses: Vec<Message>,
    /// Measured resolve time against canned servers.
    iso_ns: u64,
}

fn layer_values(
    plain: &Pass,
    traced: &Pass,
    exs: &[Exchange],
    packets: &[Packet],
    r: &Replays,
    queries: &[Message],
    violations: &mut Vec<String>,
) -> Vec<(String, f64)> {
    let (up, net) = (&r.upstream, &r.netsim);
    let res = plain.latencies_ns.len().max(1) as f64;
    let t_plain = plain.resolve_ns as f64;
    let t_traced = traced.resolve_ns as f64;
    let (s, e) = (traced.start, traced.end);
    let measured_exs = exs.iter().filter(|ex| ex.measured).count() as f64;
    let mut v: Vec<(String, f64)> = Vec::new();
    let mut put = |k: &str, x: f64| v.push((k.to_string(), x));

    // resolver
    let upstream_ns = up.measured_ns as f64;
    let iso_self = r.iso_ns as f64 - net.measured_ns as f64;
    put("resolver.self_us_per_res", (t_plain - upstream_ns) / res / 1e3);
    put("resolver.isolated_us_per_res", iso_self / res / 1e3);
    put("resolver.exchanges_per_res", measured_exs / res);
    put("resolver.cache_hit_frac", traced.no_exchange as f64 / res);
    put(
        "resolver.dlv_sent_per_res",
        (e.counters.dlv_queries_sent - s.counters.dlv_queries_sent) as f64 / res,
    );
    put(
        "resolver.dlv_suppressed_per_res",
        (e.counters.dlv_suppressed_by_nsec - s.counters.dlv_suppressed_by_nsec) as f64 / res,
    );
    put(
        "resolver.dlv_skipped_per_res",
        (e.counters.dlv_skipped_by_signal - s.counters.dlv_skipped_by_signal) as f64 / res,
    );

    // crypto
    let sets = signed_sets(&r.responses);
    let keys = dnskeys(&r.responses);
    let checkable: Vec<(&Signed, &Vec<PublicKey>)> = sets
        .iter()
        .filter_map(|s| match &s.sig.rdata {
            RData::Rrsig { signer_name, .. } => keys.get(signer_name).map(|k| (s, k)),
            _ => None,
        })
        .collect();
    let invalid = checkable.iter().filter(|(s, k)| !verify_rrset(&s.rrset, &s.sig, k, 1)).count();
    if invalid > 0 {
        violations
            .push(format!("{invalid} of {} corpus RRSIGs fail verification", checkable.len()));
    }
    let rrsigs = measured_rrsigs(exs, &r.responses);
    put("crypto.rrsigs_per_res", rrsigs as f64 / res);
    put(
        "crypto.verify_us",
        per_call_ns(&checkable, 4_000, |(s, k)| {
            black_box(verify_rrset(&s.rrset, &s.sig, k, 1));
        }) / 1e3,
    );
    let inputs: Vec<Vec<u8>> = sets
        .iter()
        .filter_map(|s| match &s.sig.rdata {
            RData::Rrsig {
                type_covered,
                algorithm,
                labels,
                original_ttl,
                expiration,
                inception,
                key_tag,
                signer_name,
                ..
            } => Some(rrsig_signing_input(
                *type_covered,
                *algorithm,
                *labels,
                *original_ttl,
                *expiration,
                *inception,
                *key_tag,
                signer_name,
                &s.rrset,
            )),
            _ => None,
        })
        .take(4_000)
        .collect();
    let signer = KeyPair::generate_zsk(0x5167);
    put(
        "crypto.sign_us",
        per_call_ns(&inputs, 4_000, |m| {
            black_box(signer.sign(m));
        }) / 1e3,
    );
    let owned_keys: Vec<(&Name, &PublicKey)> =
        keys.iter().flat_map(|(n, ks)| ks.iter().map(move |k| (n, k))).collect();
    put(
        "crypto.ds_digest_us",
        per_call_ns(&owned_keys, 20_000, |(n, k)| {
            black_box(ds_digest(n, k));
        }) / 1e3,
    );

    // server = upstream replay minus netsim replay, per destination class
    for (b, name) in BUCKETS.iter().enumerate() {
        let server_ns = up.mean_ns(b) - net.mean_ns(b);
        put(
            &format!("server.us_per_exchange.{name}"),
            if up.n[b] > 0 { server_ns / 1e3 } else { 0.0 },
        );
        let n = exs.iter().filter(|ex| ex.measured && ex.bucket == b).count() as f64;
        put(&format!("server.exchanges_per_res.{name}"), n / res);
    }
    let sld_net = net.mean_ns(2);
    let mean =
        |(ns, n): (u64, u64)| if n == 0 { 0.0 } else { (ns as f64 / n as f64 - sld_net) / 1e3 };
    put("server.sld_first_touch_us", mean(r.touches[0]));
    put("server.sld_repeat_us", mean(r.touches[1]));

    // netsim
    put("netsim.us_per_exchange", net.total_ns() as f64 / net.total_n().max(1) as f64 / 1e3);
    put("netsim.bytes_per_res", (e.bytes - s.bytes) as f64 / res);

    // wire
    let mut arena = RenderArena::new();
    let messages: Vec<&Message> = queries.iter().chain(&r.responses).collect();
    put(
        "wire.render_us_per_msg",
        per_call_ns(&messages, 20_000, |m| {
            black_box(arena.measure(m));
        }) / 1e3,
    );
    put("wire.renders_per_exchange", (e.renders - s.renders) as f64 / measured_exs.max(1.0));

    // core
    put("core.build_s", (plain.build_s + traced.build_s) / 2.0);
    let apex = traced.env.internet.dlv_apex.clone();
    let mut sink = LeakSink::new(CaptureFilter::DlvOnly, apex);
    put(
        "core.sink_ns_per_packet",
        per_call_ns(packets, 200_000, |p| {
            lookaside::netsim::PacketSink::observe(&mut sink, p);
        }),
    );
    let dlv_packets =
        packets[s.packets.min(packets.len())..].iter().filter(|p| p.qtype == RrType::Dlv).count();
    put("core.dlv_packets_per_res", dlv_packets as f64 / res);

    // trace
    put("trace.overhead_frac", (t_traced - t_plain) / t_plain);
    let layer_sum = iso_self + upstream_ns;
    put("trace.unaccounted_frac", (t_plain - layer_sum) / t_plain);
    v
}
