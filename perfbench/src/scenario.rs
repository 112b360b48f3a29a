//! The resolver workloads: one simulated Internet, one correctly configured
//! BIND resolver, and a precomputed name sequence resolved through
//! `RecursiveResolver::resolve_into`.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use lookaside::experiments::StatusTally;
use lookaside::internet::{Internet, InternetParams};
use lookaside::netsim::{CaptureFilter, Packet, PacketSink};
use lookaside::resolver::{
    BindConfig, Counters, RecursiveResolver, Resolution, ResolverConfig, SecurityStatus,
};
use lookaside::wire::ext::RemedyMode;
use lookaside::wire::{Name, RrType};
use lookaside::workload::PopulationParams;
use lookaside::LeakSink;

use crate::util::Fnv;

/// An ordered list of exact counts: the output check compares these.
pub type Print = Vec<(String, u64)>;

/// Everything that shapes a resolver run.
#[derive(Clone)]
pub struct Scenario {
    pub remedy: RemedyMode,
    pub population: PopulationParams,
    pub query_limit: usize,
    pub net_seed: u64,
    pub salt: u64,
    /// Retention filter the leak classifier applies (the run's capture
    /// filter; the network itself captures nothing).
    pub sink_filter: CaptureFilter,
}

impl Scenario {
    pub fn params(&self) -> InternetParams {
        let mut params = InternetParams::for_top(self.query_limit, self.population, self.remedy);
        params.seed = self.net_seed;
        params.capture = CaptureFilter::None;
        params
    }

    /// Builds the Internet and the resolver; `recorder` (traced runs only)
    /// sees every packet next to the leak classifier.
    pub fn build(&self, recorder: Option<Rc<RefCell<Recorder>>>) -> Env {
        let mut internet = Internet::build(self.params());
        let leak =
            Rc::new(RefCell::new(LeakSink::new(self.sink_filter, internet.dlv_apex.clone())));
        match recorder {
            Some(rec) => internet.net.set_observer(Box::new(Tee { leak: leak.clone(), rec })),
            None => internet.net.set_observer(Box::new(leak.clone())),
        }
        let resolver = internet.resolver(ResolverConfig::Bind(BindConfig::correct()), self.salt);
        Env { internet, resolver, leak }
    }
}

/// A built scenario.
pub struct Env {
    pub internet: Internet,
    pub resolver: RecursiveResolver,
    pub leak: Rc<RefCell<LeakSink>>,
}

/// Records every packet the network shows its observer.
#[derive(Default)]
pub struct Recorder {
    pub packets: Vec<Packet>,
    pub queries: u64,
}

impl PacketSink for Recorder {
    fn observe(&mut self, packet: &Packet) {
        if packet.direction == lookaside::netsim::Direction::Query {
            self.queries += 1;
        }
        self.packets.push(packet.clone());
    }
}

/// Shows each packet to the leak classifier and to the recorder.
struct Tee {
    leak: Rc<RefCell<LeakSink>>,
    rec: Rc<RefCell<Recorder>>,
}

impl PacketSink for Tee {
    fn observe(&mut self, packet: &Packet) {
        self.leak.borrow_mut().observe(packet);
        self.rec.borrow_mut().observe(packet);
    }

    fn reset(&mut self) {
        self.leak.borrow_mut().reset();
    }
}

/// The names one pass resolves, generated from the seed before timing.
pub struct Inputs {
    /// Resolved once before measuring (the warm-up, part of set-up).
    pub warm: Vec<Name>,
    /// The measured sequence.
    pub measured: Vec<Name>,
    /// Simulated time advanced before each measured query, nanoseconds.
    pub step_ns: u64,
}

/// Counter values at the start of the measured phase.
#[derive(Clone, Copy, Default)]
pub struct Mark {
    pub counters: Counters,
    pub bytes: u64,
    pub renders: u64,
    pub packets: usize,
}

impl Mark {
    fn take(env: &Env, rec: Option<&Rc<RefCell<Recorder>>>) -> Self {
        let stats = env.internet.net.stats();
        Mark {
            counters: env.resolver.counters,
            bytes: stats.total_bytes(),
            renders: env.internet.net.arena_stats().0,
            packets: rec.map_or(0, |r| r.borrow().packets.len()),
        }
    }
}

/// One pass: fresh Internet and resolver, warm-up, measured sequence.
pub struct Pass {
    pub build_s: f64,
    /// Build + resolver construction + warm-up.
    pub setup_s: f64,
    /// Wall time of each measured `resolve_into` call.
    pub latencies_ns: Vec<u64>,
    pub resolve_ns: u64,
    /// Calls that returned `Err`.
    pub errors: u64,
    /// Broken invariants (see [`Pass::check`]).
    pub violations: Vec<String>,
    /// Measured resolutions that sent nothing upstream (traced runs).
    pub no_exchange: u64,
    pub start: Mark,
    pub end: Mark,
    pub print: Print,
    pub env: Env,
}

fn tally(statuses: &mut StatusTally, ok: bool, out: &Resolution) {
    if !ok {
        statuses.errors += 1;
        return;
    }
    match out.status {
        SecurityStatus::Secure => {
            statuses.secure += 1;
            if out.secured_via_dlv {
                statuses.secure_via_dlv += 1;
            }
        }
        SecurityStatus::Insecure => statuses.insecure += 1,
        SecurityStatus::Bogus => statuses.bogus += 1,
        SecurityStatus::Indeterminate => statuses.indeterminate += 1,
    }
}

/// Runs one pass of `scn` over `inputs`. Only the measured
/// `resolve_into` calls are timed; name generation happened earlier.
pub fn run_pass(scn: &Scenario, inputs: &Inputs, rec: Option<Rc<RefCell<Recorder>>>) -> Pass {
    run_pass_prepared(scn, inputs, rec, |_| {})
}

/// [`run_pass`] with `prepare` applied to the built environment before
/// any query (the canned replay swaps the servers there).
pub fn run_pass_prepared(
    scn: &Scenario,
    inputs: &Inputs,
    rec: Option<Rc<RefCell<Recorder>>>,
    prepare: impl FnOnce(&mut Env),
) -> Pass {
    let t0 = Instant::now();
    let mut env = scn.build(rec.clone());
    prepare(&mut env);
    let build_s = t0.elapsed().as_secs_f64();
    let mut out = Resolution::placeholder();
    let mut statuses = StatusTally::default();
    let mut violations = Vec::new();
    let check_dlv = |env: &Env, out: &Resolution, violations: &mut Vec<String>| {
        // Ground truth: a chain completed through DLV needs a deposit.
        if out.secured_via_dlv && !env.internet.is_deposited(&out.qname) {
            violations.push(format!("{} secured via DLV without a deposit", out.qname));
        }
    };
    for name in &inputs.warm {
        let ok =
            env.resolver.resolve_into(&mut env.internet.net, name, RrType::A, &mut out).is_ok();
        tally(&mut statuses, ok, &out);
        check_dlv(&env, &out, &mut violations);
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let start = Mark::take(&env, rec.as_ref());
    let mut latencies_ns = Vec::with_capacity(inputs.measured.len());
    let mut no_exchange = 0;
    for name in &inputs.measured {
        env.internet.net.advance(inputs.step_ns);
        let before = rec.as_ref().map(|r| r.borrow().queries);
        let t = Instant::now();
        let result = env.resolver.resolve_into(&mut env.internet.net, name, RrType::A, &mut out);
        latencies_ns.push(t.elapsed().as_nanos() as u64);
        tally(&mut statuses, result.is_ok(), &out);
        check_dlv(&env, &out, &mut violations);
        if let (Some(r), Some(before)) = (rec.as_ref(), before) {
            if r.borrow().queries == before {
                no_exchange += 1;
            }
        }
    }
    let end = Mark::take(&env, rec.as_ref());
    let resolve_ns = latencies_ns.iter().sum();
    let expected = (inputs.warm.len() + inputs.measured.len()) as u64;
    let print = fingerprint(&env, &statuses);
    let mut pass = Pass {
        build_s,
        setup_s,
        latencies_ns,
        resolve_ns,
        errors: statuses.errors as u64,
        violations,
        no_exchange,
        start,
        end,
        print,
        env,
    };
    pass.check(scn, expected);
    pass
}

impl Pass {
    /// Invariants that hold for every seed, pinned or not.
    fn check(&mut self, scn: &Scenario, expected: u64) {
        let counters = self.env.resolver.counters;
        let leak = &self.env.leak.borrow().report;
        if counters.resolutions != expected {
            self.violations
                .push(format!("{} resolutions counted, {expected} issued", counters.resolutions));
        }
        if self.errors > 0 {
            self.violations.push(format!("{} resolutions returned Err", self.errors));
        }
        if scn.sink_filter == CaptureFilter::DlvOnly {
            // Without faults every DLV query the resolver sends is on the
            // wire exactly once, and is answered.
            if leak.dlv_queries as u64 != counters.dlv_queries_sent {
                self.violations.push(format!(
                    "{} DLV queries on the wire, {} counted by the resolver",
                    leak.dlv_queries, counters.dlv_queries_sent
                ));
            }
            if leak.dlv_responses != leak.dlv_queries {
                self.violations.push("a DLV query went unanswered".to_string());
            }
            // Case 2 means the registry holds nothing for the name.
            let leaked_deposits =
                leak.leaked_names.iter().filter(|n| self.env.internet.is_deposited(n)).count();
            if leaked_deposits > 0 {
                self.violations
                    .push(format!("{leaked_deposits} deposited names classified as leaks"));
            }
        }
    }
}

/// The exact-count fingerprint: statuses, resolver counters, the leakage
/// report (with a digest of the leaked-name set), traffic totals, renders
/// and the simulated clock.
pub fn fingerprint(env: &Env, statuses: &StatusTally) -> Print {
    let c = env.resolver.counters;
    let leak = &env.leak.borrow().report;
    let stats = env.internet.net.stats();
    let mut names = Fnv::new();
    for name in &leak.leaked_names {
        names.bytes(name.to_string().as_bytes());
        names.bytes(b"\n");
    }
    let other = c.spoofs_discarded
        + c.spoofs_accepted
        + c.malformed_retries
        + c.bad_cache_hits
        + c.stale_answers
        + c.expired_rrsig_bogus
        + c.missing_anchor_indeterminate
        + c.stale_rejected_expired_sig;
    let pairs: [(&str, u64); 24] = [
        ("status.secure", statuses.secure as u64),
        ("status.secure_via_dlv", statuses.secure_via_dlv as u64),
        ("status.insecure", statuses.insecure as u64),
        ("status.bogus", statuses.bogus as u64),
        ("status.indeterminate", statuses.indeterminate as u64),
        ("status.errors", statuses.errors as u64),
        ("counters.resolutions", c.resolutions),
        ("counters.dlv_sent", c.dlv_queries_sent),
        ("counters.dlv_suppressed", c.dlv_suppressed_by_nsec),
        ("counters.dlv_skipped", c.dlv_skipped_by_signal),
        ("counters.bogus", c.bogus),
        ("counters.other", other),
        ("leak.dlv_queries", leak.dlv_queries as u64),
        ("leak.dlv_responses", leak.dlv_responses as u64),
        ("leak.case1", leak.case1 as u64),
        ("leak.case2", leak.case2 as u64),
        ("leak.names", leak.leaked_names.len() as u64),
        ("leak.names_digest", names.finish()),
        ("traffic.queries", stats.total_queries()),
        ("traffic.query_bytes", stats.query_bytes),
        ("traffic.response_bytes", stats.response_bytes),
        ("traffic.sim_ns", stats.total_time_ns()),
        ("wire.renders", env.internet.net.arena_stats().0),
        ("clock.ns", env.internet.net.now_ns()),
    ];
    pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
}
