use std::collections::BTreeSet;

use lookaside_crypto::{dlv_rdata, hashed_dlv_label, PublicKey};
use lookaside_netsim::{DnsHandler, ServerAction};
use lookaside_wire::{Message, MessageBuilder, Name, RData, Rcode};
use lookaside_zone::{DenialMode, PublishedZone, SigningKeys, Zone, DEFAULT_TTL};

use crate::authority::AuthoritativeServer;

/// One zone's deposit in a DLV registry: the zone's name and its KSK, from
/// which the registry derives the DLV record (RFC 4431: DS-shaped digest of
/// the key).
#[derive(Debug, Clone)]
pub struct DlvDeposit {
    /// The depositing zone (e.g. `example.com.`).
    pub domain: Name,
    /// The zone's key-signing key (public half).
    pub ksk: PublicKey,
}

/// Default lifetime of the registry's NSEC spans. Kept long so that
/// multi-simulated-hour workloads (the 1M-domain sweep) measure the
/// *caching* mechanism rather than TTL churn; see EXPERIMENTS.md.
pub const DLV_SPAN_TTL: u32 = 7 * 24 * 3600;

/// One stage of the registry's end-of-life, modelled on how `dlv.isc.org`
/// was actually wound down (announced 2015, records deleted 2017, zone
/// finally gone): each stage is a different *kind* of wrong answer, and
/// RFC 5074 §4 requires resolvers to degrade differently for each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum DecommissionStage {
    /// Normal operation: deposits answered, absences denied with signed
    /// NSEC/NSEC3.
    #[default]
    Populated,
    /// All deposits deleted but the zone still signed and served — every
    /// lookup gets a *provable* (signed) NXDOMAIN. The graceful way out.
    Emptied,
    /// The zone replaced by a blunt unsigned NXDOMAIN for everything — no
    /// denial proof, so a validator cannot cache the absence aggressively.
    NxDomainAll,
    /// The server answers SERVFAIL to everything (a broken registry, not a
    /// removed one).
    ServFailAll,
    /// The zone is served with corrupted RRSIGs: every signature fails
    /// validation, the adversarial worst case for an unhardened validator.
    BogusSignatures,
    /// The server is gone: queries are dropped and resolvers time out.
    Offline,
}

/// A DLV registry server — the simulated `dlv.isc.org`.
///
/// The registry is published as an ordinary *signed* zone whose owner names
/// are `<domain>.<apex>` (or `<hash>.<apex>` under the §6.2.2
/// privacy-preserving remedy). Queries for un-deposited names get NXDOMAIN
/// with an NSEC whose span the resolver may cache aggressively — the exact
/// mechanism the paper credits for the decaying leak proportion of Fig. 9.
pub struct DlvRegistry {
    apex: Name,
    server: AuthoritativeServer,
    deposited: BTreeSet<Name>,
    trust_anchor: PublicKey,
    hashed: bool,
    stage: DecommissionStage,
    /// Signed-but-empty replacement zone, built on first transition to
    /// [`DecommissionStage::Emptied`] from the parameters below.
    empty_server: Option<AuthoritativeServer>,
    keys: SigningKeys,
    inception: u32,
    expiration: u32,
    span_ttl: u32,
    denial: DenialMode,
    /// Pending timed transitions `(at_ns, stage)`, sorted ascending; each
    /// is applied the first time a query arrives at or after its instant.
    schedule: Vec<(u64, DecommissionStage)>,
}

impl DlvRegistry {
    /// Builds and signs the registry zone.
    ///
    /// With `hashed` set, owner names are the truncated-SHA-256 labels of
    /// §6.2.2 instead of the plaintext domain names.
    ///
    /// # Panics
    ///
    /// Panics if a deposit's owner name cannot be formed under the apex
    /// (name-length overflow) — deposits are generated, not attacker
    /// controlled.
    pub fn new(
        apex: Name,
        deposits: &[DlvDeposit],
        keys: &SigningKeys,
        inception: u32,
        expiration: u32,
        hashed: bool,
    ) -> Self {
        Self::with_denial(
            apex,
            deposits,
            keys,
            inception,
            expiration,
            hashed,
            DLV_SPAN_TTL,
            DenialMode::Nsec,
        )
    }

    /// Full-control constructor: additionally sets the negative-caching TTL
    /// of the registry's NSEC spans and selects the denial mechanism.
    /// An NSEC3 registry resists zone enumeration but, per RFC 5074 §5,
    /// resolvers cannot aggressively cache its denials — the §7.3
    /// trade-off the `nsec3` experiment measures.
    #[allow(clippy::too_many_arguments)]
    pub fn with_denial(
        apex: Name,
        deposits: &[DlvDeposit],
        keys: &SigningKeys,
        inception: u32,
        expiration: u32,
        hashed: bool,
        span_ttl: u32,
        denial: DenialMode,
    ) -> Self {
        let primary_ns = apex.prepend("ns").expect("registry ns name");
        let mut zone = Zone::new(apex.clone(), primary_ns);
        zone.set_negative_ttl(span_ttl);
        let mut deposited = BTreeSet::new();
        for deposit in deposits {
            let owner = if hashed {
                apex.prepend(&hashed_dlv_label(&deposit.domain)).expect("hashed label fits")
            } else {
                deposit.domain.concat(&apex).expect("deposit name fits under apex")
            };
            zone.add(owner, DEFAULT_TTL, dlv_rdata(&deposit.domain, &deposit.ksk));
            deposited.insert(deposit.domain.clone());
        }
        let published =
            PublishedZone::signed_with_denial(zone, keys, inception, expiration, denial);
        DlvRegistry {
            apex,
            server: AuthoritativeServer::single(published),
            deposited,
            trust_anchor: keys.ksk.public(),
            hashed,
            stage: DecommissionStage::Populated,
            empty_server: None,
            keys: *keys,
            inception,
            expiration,
            span_ttl,
            denial,
            schedule: Vec::new(),
        }
    }

    /// Moves the registry to a decommission stage. The `Emptied` stage
    /// builds (once) a signed empty zone under the *same* keys, so a
    /// resolver holding the registry trust anchor still validates the
    /// NXDOMAINs it now receives.
    pub fn set_stage(&mut self, stage: DecommissionStage) {
        if stage == DecommissionStage::Emptied && self.empty_server.is_none() {
            let primary_ns = self.apex.prepend("ns").expect("registry ns name");
            let mut zone = Zone::new(self.apex.clone(), primary_ns);
            zone.set_negative_ttl(self.span_ttl);
            let published = PublishedZone::signed_with_denial(
                zone,
                &self.keys,
                self.inception,
                self.expiration,
                self.denial,
            );
            self.empty_server = Some(AuthoritativeServer::single(published));
        }
        self.stage = stage;
    }

    /// Schedules a decommission transition at simulated time `at_ns`: the
    /// stage is applied when the first query arrives at or after that
    /// instant. This is how lifecycle timelines script the historical
    /// `dlv.isc.org` wind-down ladder against simulated time instead of
    /// flipping stages between measurement phases by hand.
    pub fn schedule_stage(&mut self, at_ns: u64, stage: DecommissionStage) {
        self.schedule.push((at_ns, stage));
        self.schedule.sort_by_key(|(at, _)| *at);
    }

    /// Applies every scheduled transition whose instant is ≤ `now_ns`.
    fn apply_due(&mut self, now_ns: u64) {
        while let Some(&(at, stage)) = self.schedule.first() {
            if at > now_ns {
                break;
            }
            self.schedule.remove(0);
            self.set_stage(stage);
        }
    }

    /// The current decommission stage.
    pub fn stage(&self) -> DecommissionStage {
        self.stage
    }

    /// The registry apex (e.g. `dlv.isc.org.`).
    pub fn apex(&self) -> &Name {
        &self.apex
    }

    /// Whether owner names are hashed (privacy-preserving mode).
    pub fn is_hashed(&self) -> bool {
        self.hashed
    }

    /// The registry's KSK — what resolvers configure as the DLV trust
    /// anchor.
    pub fn trust_anchor(&self) -> PublicKey {
        self.trust_anchor
    }

    /// Whether `domain` (or an enclosing parent, per the RFC 5074 enclosing
    /// search) has a record deposited. This is the ground truth the Case-1 /
    /// Case-2 leakage classifier uses.
    pub fn covers_domain(&self, domain: &Name) -> bool {
        let mut cur = Some(domain.clone());
        while let Some(name) = cur {
            if name.is_root() {
                break;
            }
            if self.deposited.contains(&name) {
                return true;
            }
            cur = name.parent();
        }
        false
    }

    /// Exact-match deposit check (no enclosing walk).
    pub fn has_deposit(&self, domain: &Name) -> bool {
        self.deposited.contains(domain)
    }

    /// Number of deposited zones.
    pub fn deposit_count(&self) -> usize {
        self.deposited.len()
    }
}

/// Corrupts every RRSIG in the message in place (flips the low bit of the
/// first signature byte) so validation fails while the wire format stays
/// perfectly well-formed.
fn corrupt_rrsigs(message: &mut Message) {
    for record in message
        .answers
        .iter_mut()
        .chain(message.authorities.iter_mut())
        .chain(message.additionals.iter_mut())
    {
        if let RData::Rrsig { signature, .. } = &mut record.rdata {
            if let Some(byte) = signature.first_mut() {
                *byte ^= 0x01;
            }
        }
    }
}

impl DnsHandler for DlvRegistry {
    fn handle(&mut self, query: &Message, now_ns: u64) -> Message {
        self.apply_due(now_ns);
        match self.stage {
            DecommissionStage::Populated => self.server.handle(query, now_ns),
            DecommissionStage::Emptied => self
                .empty_server
                .as_mut()
                .expect("empty zone built at set_stage")
                .handle(query, now_ns),
            DecommissionStage::NxDomainAll => {
                MessageBuilder::respond_to(query).rcode(Rcode::NxDomain).authoritative(true).build()
            }
            // Direct callers cannot observe silence, so Offline degrades
            // to SERVFAIL here; networked callers go through
            // `handle_faulty` and see a real drop.
            DecommissionStage::ServFailAll | DecommissionStage::Offline => {
                MessageBuilder::respond_to(query).rcode(Rcode::ServFail).build()
            }
            DecommissionStage::BogusSignatures => {
                let mut response = self.server.handle(query, now_ns);
                corrupt_rrsigs(&mut response);
                response
            }
        }
    }

    fn handle_faulty(&mut self, query: &Message, now_ns: u64) -> ServerAction {
        self.apply_due(now_ns);
        if self.stage == DecommissionStage::Offline {
            return ServerAction::Drop;
        }
        ServerAction::Respond(self.handle(query, now_ns))
    }
}

impl std::fmt::Debug for DlvRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DlvRegistry")
            .field("apex", &self.apex.to_string())
            .field("deposits", &self.deposited.len())
            .field("hashed", &self.hashed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lookaside_crypto::KeyPair;
    use lookaside_wire::{Rcode, RrType};

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn registry(hashed: bool) -> DlvRegistry {
        let deposits = vec![
            DlvDeposit { domain: n("island.com"), ksk: KeyPair::generate_ksk(1).public() },
            DlvDeposit { domain: n("reef.net"), ksk: KeyPair::generate_ksk(2).public() },
        ];
        DlvRegistry::new(n("dlv.isc.org"), &deposits, &SigningKeys::from_seed(9), 0, 1000, hashed)
    }

    #[test]
    fn deposited_name_answers_noerror_with_dlv() {
        let mut reg = registry(false);
        let q = Message::dnssec_query(1, n("island.com.dlv.isc.org"), RrType::Dlv);
        let resp = reg.handle(&q, 0);
        assert_eq!(resp.rcode(), Rcode::NoError);
        assert_eq!(resp.answers_of(RrType::Dlv).count(), 1);
        assert!(resp.answers_of(RrType::Rrsig).next().is_some());
    }

    #[test]
    fn undeposited_name_is_nxdomain_with_nsec() {
        let mut reg = registry(false);
        let q = Message::dnssec_query(2, n("leaky.com.dlv.isc.org"), RrType::Dlv);
        let resp = reg.handle(&q, 0);
        assert_eq!(resp.rcode(), Rcode::NxDomain);
        assert!(resp.authorities_of(RrType::Nsec).next().is_some());
    }

    #[test]
    fn hashed_registry_answers_hashed_names_only() {
        let mut reg = registry(true);
        let plain = Message::dnssec_query(3, n("island.com.dlv.isc.org"), RrType::Dlv);
        assert_eq!(reg.handle(&plain, 0).rcode(), Rcode::NxDomain);
        let label = hashed_dlv_label(&n("island.com"));
        let hashed = Message::dnssec_query(4, n(&format!("{label}.dlv.isc.org")), RrType::Dlv);
        assert_eq!(reg.handle(&hashed, 0).rcode(), Rcode::NoError);
    }

    #[test]
    fn covers_domain_walks_enclosing_names() {
        let reg = registry(false);
        assert!(reg.covers_domain(&n("island.com")));
        assert!(reg.covers_domain(&n("bbs.sub1.island.com")));
        assert!(!reg.covers_domain(&n("com")));
        assert!(!reg.covers_domain(&n("leaky.com")));
        assert!(reg.has_deposit(&n("island.com")));
        assert!(!reg.has_deposit(&n("bbs.sub1.island.com")));
    }

    #[test]
    fn deposit_count() {
        assert_eq!(registry(false).deposit_count(), 2);
    }

    #[test]
    fn emptied_stage_serves_signed_nxdomain_for_former_deposits() {
        let mut reg = registry(false);
        reg.set_stage(DecommissionStage::Emptied);
        let q = Message::dnssec_query(5, n("island.com.dlv.isc.org"), RrType::Dlv);
        let resp = reg.handle(&q, 0);
        assert_eq!(resp.rcode(), Rcode::NxDomain);
        assert!(
            resp.authorities_of(RrType::Nsec).next().is_some(),
            "graceful decommission still proves the absence"
        );
        assert!(resp.authorities_of(RrType::Rrsig).next().is_some());
    }

    #[test]
    fn nxdomain_all_stage_denies_without_proof() {
        let mut reg = registry(false);
        reg.set_stage(DecommissionStage::NxDomainAll);
        let q = Message::dnssec_query(6, n("island.com.dlv.isc.org"), RrType::Dlv);
        let resp = reg.handle(&q, 0);
        assert_eq!(resp.rcode(), Rcode::NxDomain);
        assert!(resp.authorities_of(RrType::Nsec).next().is_none(), "blunt denial carries no NSEC");
    }

    #[test]
    fn servfail_and_offline_stages() {
        let mut reg = registry(false);
        reg.set_stage(DecommissionStage::ServFailAll);
        let q = Message::dnssec_query(7, n("island.com.dlv.isc.org"), RrType::Dlv);
        assert_eq!(reg.handle(&q, 0).rcode(), Rcode::ServFail);
        assert!(matches!(reg.handle_faulty(&q, 0), ServerAction::Respond(_)));
        reg.set_stage(DecommissionStage::Offline);
        assert!(matches!(reg.handle_faulty(&q, 0), ServerAction::Drop));
        assert_eq!(reg.handle(&q, 0).rcode(), Rcode::ServFail, "direct callers see SERVFAIL");
    }

    #[test]
    fn bogus_stage_breaks_signatures_but_not_wire_format() {
        let mut reg = registry(false);
        let q = Message::dnssec_query(8, n("island.com.dlv.isc.org"), RrType::Dlv);
        let good = reg.handle(&q, 0);
        reg.set_stage(DecommissionStage::BogusSignatures);
        let bad = reg.handle(&q, 0);
        assert_eq!(bad.rcode(), Rcode::NoError);
        assert_eq!(bad.answers_of(RrType::Dlv).count(), 1, "data still present");
        let sig = |m: &Message| {
            m.answers_of(RrType::Rrsig)
                .map(|r| match &r.rdata {
                    lookaside_wire::RData::Rrsig { signature, .. } => signature.clone(),
                    _ => unreachable!(),
                })
                .next()
                .unwrap()
        };
        assert_ne!(sig(&good), sig(&bad), "signature bytes were mangled");
        assert!(Message::from_bytes(&bad.to_bytes()).is_ok(), "still well-formed on the wire");
    }

    #[test]
    fn populated_is_the_default_stage() {
        assert_eq!(registry(false).stage(), DecommissionStage::Populated);
    }

    #[test]
    fn scheduled_stages_apply_at_simulated_time() {
        let mut reg = registry(false);
        reg.schedule_stage(1_000_000_000, DecommissionStage::Emptied);
        reg.schedule_stage(2_000_000_000, DecommissionStage::Offline);
        let q = Message::dnssec_query(9, n("island.com.dlv.isc.org"), RrType::Dlv);
        assert_eq!(reg.handle(&q, 0).rcode(), Rcode::NoError);
        assert_eq!(reg.handle(&q, 1_500_000_000).rcode(), Rcode::NxDomain);
        assert_eq!(reg.stage(), DecommissionStage::Emptied);
        // Both remaining transitions fire even if time jumps past them.
        assert!(matches!(reg.handle_faulty(&q, 3_000_000_000), ServerAction::Drop));
        assert_eq!(reg.stage(), DecommissionStage::Offline);
    }
}
