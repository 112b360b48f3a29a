//! The fault plane: seeded, deterministic packet-level failure injection.
//!
//! The paper's §7.3.2 reliability story — a degrading `dlv.isc.org` making
//! resolvers retry and re-leak — needs more than clean rcode failures. This
//! module lets a [`crate::Network`] lose, blackhole, duplicate, or delay
//! packets per destination link, so `exchange` can time out the way a real
//! UDP query does.
//!
//! Every decision is a pure function of `(seed, link, sequence number)`
//! via splitmix64 — no ambient randomness, no RNG state. Two runs with the
//! same seed and the same exchange order take exactly the same faults,
//! which keeps captures byte-identical and failures replayable. A plane
//! whose links are all quiet (the default) makes no decisions at all, so
//! fault-free runs are bit-for-bit unchanged.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Fault configuration for one link (resolver ↔ one destination address).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkFaults {
    /// Probability, in thousandths, that the query leg is lost.
    /// The response leg is drawn independently at the same rate.
    pub loss_milli: u16,
    /// Drop everything: the destination is unreachable.
    pub blackhole: bool,
    /// Probability, in thousandths, that the query is duplicated in
    /// flight (the server handles it twice; the spare response is
    /// discarded by the resolver's transaction matching).
    pub duplicate_milli: u16,
    /// Fixed extra one-way delay added to the link, nanoseconds.
    pub extra_delay_ns: u64,
    /// Upper bound of additional uniformly-drawn delay, nanoseconds.
    pub jitter_ns: u64,
    /// Probability, in thousandths, that the response payload is
    /// bit-flipped in flight (Byzantine corruption). A corrupted response
    /// either decodes to a semantically wrong message or fails to decode
    /// at all; either way the resolver must cope.
    pub corrupt_milli: u16,
    /// Probability, in thousandths, that the response is forcibly
    /// truncated: answer/authority/additional sections clipped and the TC
    /// bit raised, forcing a TCP retry from well-behaved resolvers.
    pub truncate_milli: u16,
    /// Probability, in thousandths, that an off-path attacker races the
    /// genuine response with a spoofed one (wrong query id and/or wrong
    /// source address) that arrives first.
    pub spoof_milli: u16,
}

impl LinkFaults {
    /// A link with no faults configured.
    pub fn quiet() -> Self {
        LinkFaults::default()
    }

    /// Whether this link never perturbs traffic.
    pub fn is_quiet(&self) -> bool {
        *self == LinkFaults::default()
    }

    /// Sets the per-leg loss probability in thousandths (1000 = every leg).
    #[must_use]
    pub fn with_loss_milli(mut self, milli: u16) -> Self {
        self.loss_milli = milli.min(1000);
        self
    }

    /// Makes the link drop everything.
    #[must_use]
    pub fn with_blackhole(mut self) -> Self {
        self.blackhole = true;
        self
    }

    /// Sets the duplicate-delivery probability in thousandths.
    #[must_use]
    pub fn with_duplicate_milli(mut self, milli: u16) -> Self {
        self.duplicate_milli = milli.min(1000);
        self
    }

    /// Adds a fixed delay in milliseconds.
    #[must_use]
    pub fn with_extra_delay_ms(mut self, ms: u64) -> Self {
        self.extra_delay_ns = ms * 1_000_000;
        self
    }

    /// Adds up to `ms` milliseconds of seeded jitter.
    #[must_use]
    pub fn with_jitter_ms(mut self, ms: u64) -> Self {
        self.jitter_ns = ms * 1_000_000;
        self
    }

    /// Sets the response bit-flip corruption probability in thousandths.
    #[must_use]
    pub fn with_corrupt_milli(mut self, milli: u16) -> Self {
        self.corrupt_milli = milli.min(1000);
        self
    }

    /// Sets the forced-truncation probability in thousandths.
    #[must_use]
    pub fn with_truncate_milli(mut self, milli: u16) -> Self {
        self.truncate_milli = milli.min(1000);
        self
    }

    /// Sets the off-path spoof-injection probability in thousandths.
    #[must_use]
    pub fn with_spoof_milli(mut self, milli: u16) -> Self {
        self.spoof_milli = milli.min(1000);
        self
    }
}

/// The fault decision for one exchange, fully determined by
/// `(seed, destination, sequence number)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The query leg never reaches the server.
    pub query_lost: bool,
    /// The response leg never reaches the resolver.
    pub response_lost: bool,
    /// The server receives the query twice.
    pub duplicate: bool,
    /// Extra one-way delay charged to the exchange, nanoseconds.
    pub extra_delay_ns: u64,
    /// `Some(salt)` when the response payload is bit-flipped in flight;
    /// the salt seeds which bits flip, so corruption is replayable.
    pub corrupt_salt: Option<u64>,
    /// The response is forcibly truncated (sections clipped, TC raised).
    pub truncate: bool,
    /// `Some(salt)` when an off-path spoofed response races the genuine
    /// one; the salt decides the forged qid/source and payload.
    pub spoof_salt: Option<u64>,
}

/// Per-link fault injection for a [`crate::Network`].
///
/// Links not explicitly configured use the default faults (quiet unless
/// changed), so a single call can degrade a whole topology or just one
/// registry address.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlane {
    seed: u64,
    default_faults: LinkFaults,
    links: BTreeMap<Ipv4Addr, LinkFaults>,
    /// TCP-specific overrides: when a link has an entry here, TCP
    /// exchanges to it use these faults instead of the UDP ones. Links
    /// without an entry share the UDP faults (a blackholed host is
    /// unreachable on both transports).
    tcp_links: BTreeMap<Ipv4Addr, LinkFaults>,
}

impl FaultPlane {
    /// A quiet plane keyed by `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlane { seed, ..FaultPlane::default() }
    }

    /// Sets the faults applied to links without an explicit entry.
    pub fn set_default_faults(&mut self, faults: LinkFaults) {
        self.default_faults = faults;
    }

    /// Configures one link's faults, replacing any previous entry.
    pub fn set_link(&mut self, addr: Ipv4Addr, faults: LinkFaults) {
        self.links.insert(addr, faults);
    }

    /// Removes a link's explicit entry (it reverts to the default faults).
    pub fn clear_link(&mut self, addr: Ipv4Addr) {
        self.links.remove(&addr);
        self.tcp_links.remove(&addr);
    }

    /// Configures TCP-specific faults for one link. TCP exchanges to the
    /// address use these instead of the UDP faults, so a sweep can model
    /// an operator who rate-limits UDP but leaves TCP clean (or the
    /// reverse: a middlebox that breaks TCP fallback).
    pub fn set_tcp_link(&mut self, addr: Ipv4Addr, faults: LinkFaults) {
        self.tcp_links.insert(addr, faults);
    }

    /// Heals every link: default and per-link faults all become quiet.
    pub fn heal_all(&mut self) {
        self.default_faults = LinkFaults::quiet();
        self.links.clear();
        self.tcp_links.clear();
    }

    /// The faults in effect for a destination.
    pub fn faults_for(&self, addr: Ipv4Addr) -> LinkFaults {
        self.links.get(&addr).copied().unwrap_or(self.default_faults)
    }

    /// The faults in effect for a destination over TCP: the explicit TCP
    /// override if one is set, otherwise the same faults as UDP.
    pub fn tcp_faults_for(&self, addr: Ipv4Addr) -> LinkFaults {
        self.tcp_links.get(&addr).copied().unwrap_or_else(|| self.faults_for(addr))
    }

    /// Whether no link can ever perturb traffic.
    pub fn is_quiet(&self) -> bool {
        self.default_faults.is_quiet()
            && self.links.values().all(LinkFaults::is_quiet)
            && self.tcp_links.values().all(LinkFaults::is_quiet)
    }

    /// The deterministic fault decision for exchange number `seq` to `dst`.
    pub fn plan(&self, dst: Ipv4Addr, seq: u64) -> FaultPlan {
        self.plan_with(self.faults_for(dst), dst, seq)
    }

    /// The deterministic fault decision for a TCP exchange (uses the TCP
    /// override faults when one is configured for the link).
    pub fn tcp_plan(&self, dst: Ipv4Addr, seq: u64) -> FaultPlan {
        self.plan_with(self.tcp_faults_for(dst), dst, seq)
    }

    fn plan_with(&self, faults: LinkFaults, dst: Ipv4Addr, seq: u64) -> FaultPlan {
        if faults.is_quiet() {
            return FaultPlan::default();
        }
        if faults.blackhole {
            return FaultPlan { query_lost: true, ..FaultPlan::default() };
        }
        let key = self.seed ^ (u64::from(u32::from(dst)) << 20) ^ seq;
        let roll = |channel: u64| splitmix64(key.wrapping_add(channel.wrapping_mul(GOLDEN)));
        let loss = u64::from(faults.loss_milli);
        let jitter = if faults.jitter_ns > 0 { roll(4) % faults.jitter_ns } else { 0 };
        // Channels 1–4 predate the payload faults; the Byzantine channels
        // start at 5 so legacy loss/duplicate/jitter schedules stay
        // byte-identical for any given seed.
        let corrupt = faults.corrupt_milli > 0 && roll(5) % 1000 < u64::from(faults.corrupt_milli);
        let truncate =
            faults.truncate_milli > 0 && roll(7) % 1000 < u64::from(faults.truncate_milli);
        let spoof = faults.spoof_milli > 0 && roll(8) % 1000 < u64::from(faults.spoof_milli);
        FaultPlan {
            query_lost: loss > 0 && roll(1) % 1000 < loss,
            response_lost: loss > 0 && roll(2) % 1000 < loss,
            duplicate: faults.duplicate_milli > 0
                && roll(3) % 1000 < u64::from(faults.duplicate_milli),
            extra_delay_ns: faults.extra_delay_ns + jitter,
            corrupt_salt: corrupt.then(|| roll(6)),
            truncate,
            spoof_salt: spoof.then(|| roll(9)),
        }
    }
}

pub(crate) const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(203, 0, 113, last)
    }

    #[test]
    fn quiet_plane_never_faults() {
        let plane = FaultPlane::new(99);
        assert!(plane.is_quiet());
        for seq in 0..1000 {
            assert_eq!(plane.plan(addr(1), seq), FaultPlan::default());
        }
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let mut a = FaultPlane::new(7);
        a.set_link(addr(1), LinkFaults::quiet().with_loss_milli(300).with_jitter_ms(5));
        let b = a.clone();
        for seq in 0..500 {
            assert_eq!(a.plan(addr(1), seq), b.plan(addr(1), seq));
        }
        let mut c = FaultPlane::new(8);
        c.set_link(addr(1), LinkFaults::quiet().with_loss_milli(300).with_jitter_ms(5));
        let differs = (0..500).any(|seq| a.plan(addr(1), seq) != c.plan(addr(1), seq));
        assert!(differs, "different seeds must give different schedules");
    }

    #[test]
    fn loss_rate_is_roughly_respected() {
        let mut plane = FaultPlane::new(13);
        plane.set_link(addr(2), LinkFaults::quiet().with_loss_milli(250));
        let lost = (0..4000).filter(|&seq| plane.plan(addr(2), seq).query_lost).count();
        assert!((700..1300).contains(&lost), "expected ~1000 lost of 4000, got {lost}");
    }

    #[test]
    fn blackhole_loses_every_query() {
        let mut plane = FaultPlane::new(13);
        plane.set_link(addr(3), LinkFaults::quiet().with_blackhole());
        assert!((0..100).all(|seq| plane.plan(addr(3), seq).query_lost));
        // Other links stay quiet.
        assert_eq!(plane.plan(addr(4), 0), FaultPlan::default());
    }

    #[test]
    fn default_faults_apply_to_unlisted_links() {
        let mut plane = FaultPlane::new(13);
        plane.set_default_faults(LinkFaults::quiet().with_extra_delay_ms(10));
        assert_eq!(plane.plan(addr(9), 0).extra_delay_ns, 10_000_000);
        plane.set_link(addr(9), LinkFaults::quiet());
        assert_eq!(plane.plan(addr(9), 0), FaultPlan::default());
    }

    #[test]
    fn heal_all_quiets_everything() {
        let mut plane = FaultPlane::new(13);
        plane.set_default_faults(LinkFaults::quiet().with_loss_milli(1000));
        plane.set_link(addr(1), LinkFaults::quiet().with_blackhole());
        plane.heal_all();
        assert!(plane.is_quiet());
    }

    #[test]
    fn payload_faults_do_not_perturb_legacy_channels() {
        // Adding Byzantine knobs to a link must not change which packets
        // the pre-existing loss/duplicate/jitter channels hit.
        let mut legacy = FaultPlane::new(42);
        legacy.set_link(addr(6), LinkFaults::quiet().with_loss_milli(200).with_duplicate_milli(50));
        let mut byzantine = FaultPlane::new(42);
        byzantine.set_link(
            addr(6),
            LinkFaults::quiet()
                .with_loss_milli(200)
                .with_duplicate_milli(50)
                .with_corrupt_milli(300)
                .with_truncate_milli(300)
                .with_spoof_milli(300),
        );
        for seq in 0..500 {
            let a = legacy.plan(addr(6), seq);
            let b = byzantine.plan(addr(6), seq);
            assert_eq!(a.query_lost, b.query_lost);
            assert_eq!(a.response_lost, b.response_lost);
            assert_eq!(a.duplicate, b.duplicate);
            assert_eq!(a.extra_delay_ns, b.extra_delay_ns);
        }
    }

    #[test]
    fn corruption_rate_is_roughly_respected_and_salted() {
        let mut plane = FaultPlane::new(17);
        plane.set_link(addr(7), LinkFaults::quiet().with_corrupt_milli(250));
        let salts: Vec<u64> =
            (0..4000).filter_map(|seq| plane.plan(addr(7), seq).corrupt_salt).collect();
        assert!((700..1300).contains(&salts.len()), "expected ~1000 of 4000, got {}", salts.len());
        // Salts are drawn independently of the decision channel.
        assert!(salts.windows(2).any(|w| w[0] != w[1]), "salts must vary");
    }

    #[test]
    fn spoof_and_truncate_decisions_are_independent() {
        let mut plane = FaultPlane::new(23);
        plane.set_link(addr(8), LinkFaults::quiet().with_truncate_milli(500).with_spoof_milli(500));
        let both = (0..2000)
            .map(|seq| plane.plan(addr(8), seq))
            .filter(|p| p.truncate && p.spoof_salt.is_some())
            .count();
        // Independent coins at 1/2 each: ~500 of 2000 hit both.
        assert!((300..700).contains(&both), "expected ~500 joint hits, got {both}");
    }

    #[test]
    fn tcp_overrides_replace_udp_faults() {
        let mut plane = FaultPlane::new(29);
        plane.set_link(addr(9), LinkFaults::quiet().with_loss_milli(1000));
        // No override: TCP shares the UDP faults.
        assert!(plane.tcp_plan(addr(9), 0).query_lost);
        // A quiet TCP override lets stream traffic through a lossy link.
        plane.set_tcp_link(addr(9), LinkFaults::quiet());
        assert!(!plane.is_quiet());
        assert_eq!(plane.tcp_plan(addr(9), 0), FaultPlan::default());
        assert!(plane.plan(addr(9), 0).query_lost, "UDP keeps its own faults");
        plane.clear_link(addr(9));
        assert!(plane.is_quiet());
    }

    #[test]
    fn jitter_stays_bounded() {
        let mut plane = FaultPlane::new(21);
        plane.set_link(addr(5), LinkFaults::quiet().with_extra_delay_ms(2).with_jitter_ms(3));
        for seq in 0..200 {
            let d = plane.plan(addr(5), seq).extra_delay_ns;
            assert!((2_000_000..5_000_000).contains(&d), "delay {d} out of range");
        }
    }
}
