//! DNSSEC validation and the DLV client (RFC 5074).
//!
//! [`SecurityStatus`] models the four validation outcomes of RFC 4033 §5 as
//! the paper summarises them in §2.2. The DLV walk in
//! [`RecursiveResolver::try_dlv`] implements the lax behaviour the paper
//! measures: *any* zone whose chain of trust cannot be completed from the
//! root — islands of security, plain unsigned zones, or every zone when the
//! trust anchor is missing — triggers look-aside queries, moderated only by
//! the aggressive NSEC cache and whichever §6.2 remedy is active.

use lookaside_crypto::{digest_matches, hashed_dlv_label, PublicKey};
use lookaside_netsim::Network;
use lookaside_wire::ext::{parse_txt_signal, RemedyMode};
use lookaside_wire::{Name, RData, Rcode, Record, RrSet, RrType};
use lookaside_zone::{rrsig_signing_input, serial_window_contains};
use std::sync::Arc;

use crate::resolver::{DsInfo, IterOutcome, RecursiveResolver, ResolveError, SharedRrSet};

/// DNSSEC validation status (RFC 4033 §5; paper §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SecurityStatus {
    /// A chain of signed DNSKEY/DS records reaches a trust anchor.
    Secure,
    /// The resolver has proof that no chain exists (e.g. a validated NSEC
    /// showing no DS) — islands of security live here.
    Insecure,
    /// A chain ought to exist but verification failed.
    Bogus,
    /// The resolver cannot determine whether records should be signed —
    /// notably when validation is on but the trust anchor is missing (the
    /// paper's §5.2 misconfiguration).
    Indeterminate,
}

/// Fine-grained outcome of one RRSIG verification. RFC 4035 folds every
/// failure into Bogus; the key-lifecycle machinery needs to distinguish a
/// cryptographically sound signature whose validity window has lapsed (an
/// operational re-signing failure) from a signature that never verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RrsigCheck {
    /// Signature verifies and `now` is inside the validity window.
    Valid,
    /// Signature verifies under a candidate key but the validity window
    /// does not contain `now` (RFC 4034 §3.1.5 serial arithmetic) — the
    /// signer re-signed too late (or the wall clock is wrong).
    Expired,
    /// No candidate key verifies the signature (or the record is not an
    /// applicable RRSIG at all).
    Invalid,
}

/// Classifies one RRset's RRSIG against a candidate key set at simulated
/// time `now_secs`. Validity-window comparisons use RFC 4034 §3.1.5
/// serial-number arithmetic, so windows spanning the 2038 `u32` wraparound
/// classify correctly.
pub fn check_rrset(rrset: &RrSet, sig: &Record, keys: &[PublicKey], now_secs: u32) -> RrsigCheck {
    let RData::Rrsig {
        type_covered,
        algorithm,
        labels,
        original_ttl,
        expiration,
        inception,
        key_tag,
        signer_name,
        signature,
    } = &sig.rdata
    else {
        return RrsigCheck::Invalid;
    };
    if *type_covered != rrset.rrtype || sig.name != rrset.name {
        return RrsigCheck::Invalid;
    }
    let input = rrsig_signing_input(
        *type_covered,
        *algorithm,
        *labels,
        *original_ttl,
        *expiration,
        *inception,
        *key_tag,
        signer_name,
        rrset,
    );
    if !keys.iter().any(|k| k.key_tag() == *key_tag && k.verify_bytes(&input, signature)) {
        return RrsigCheck::Invalid;
    }
    if !serial_window_contains(*inception, *expiration, now_secs) {
        return RrsigCheck::Expired;
    }
    RrsigCheck::Valid
}

/// Verifies one RRset's RRSIG against a candidate key set at simulated time
/// `now_secs` (the boolean view of [`check_rrset`]).
pub fn verify_rrset(rrset: &RrSet, sig: &Record, keys: &[PublicKey], now_secs: u32) -> bool {
    check_rrset(rrset, sig, keys, now_secs) == RrsigCheck::Valid
}

fn parse_keys(rrset: &RrSet) -> Vec<PublicKey> {
    rrset
        .rdatas
        .iter()
        .filter_map(|rd| match rd {
            RData::Dnskey { flags, public_key, .. } => PublicKey::from_dnskey(*flags, public_key),
            _ => None,
        })
        .collect()
}

/// A zone's parsed DNSKEY set: the keys, the raw RRset, and its RRSIG.
/// The RRset/RRSIG handles are shared with the answer cache.
type FetchedKeys = (Vec<PublicKey>, Arc<RrSet>, Option<Arc<Record>>);

fn now_secs(net: &Network) -> u32 {
    (net.now_ns() / 1_000_000_000).min(u64::from(u32::MAX)) as u32
}

impl RecursiveResolver {
    /// Validates a resolution outcome, returning the status and whether the
    /// chain completed through DLV.
    pub(crate) fn validate_outcome(
        &mut self,
        net: &mut Network,
        outcome: &IterOutcome,
    ) -> Result<(SecurityStatus, bool), ResolveError> {
        let zone = match outcome {
            IterOutcome::Answer { zone, .. } | IterOutcome::Negative { zone, .. } => zone.clone(),
        };
        let status = self.validate_zone(net, &zone)?;
        let via_dlv = self.secured_via_dlv.contains(&zone);
        if status != SecurityStatus::Secure {
            return Ok((status, via_dlv));
        }
        if let IterOutcome::Answer { rrsets, .. } = outcome {
            let now = now_secs(net);
            for (set, sig) in rrsets {
                // Only records inside the validated zone are checked here;
                // CNAME chains may span zones (each chased zone was
                // validated on its own resolution).
                if !set.name.is_subdomain_of(&zone) {
                    continue;
                }
                let keys = self.validated_keys.get(&zone).cloned().unwrap_or_default();
                let check = match sig {
                    Some(sig) => check_rrset(set, sig, &keys, now),
                    None => RrsigCheck::Invalid,
                };
                match check {
                    RrsigCheck::Valid => {}
                    RrsigCheck::Expired => {
                        self.counters.expired_rrsig_bogus += 1;
                        return Ok((SecurityStatus::Bogus, via_dlv));
                    }
                    RrsigCheck::Invalid => return Ok((SecurityStatus::Bogus, via_dlv)),
                }
            }
        }
        Ok((status, via_dlv))
    }

    /// Establishes a zone's security status, walking parents toward a trust
    /// anchor and falling back to DLV where the chain cannot be built.
    pub(crate) fn validate_zone(
        &mut self,
        net: &mut Network,
        zone: &Name,
    ) -> Result<SecurityStatus, ResolveError> {
        if let Some(status) = self.zone_status.get(zone) {
            return Ok(*status);
        }
        // Re-entrancy guard: a zone being validated that shows up again in
        // its own support traffic is treated as indeterminate for that
        // inner use.
        if !self.validating.insert(zone.clone()) {
            return Ok(SecurityStatus::Indeterminate);
        }
        let status = self.validate_zone_inner(net, zone);
        self.validating.remove(zone);
        let status = status?;
        self.zone_status.insert(zone.clone(), status);
        Ok(status)
    }

    fn validate_zone_inner(
        &mut self,
        net: &mut Network,
        zone: &Name,
    ) -> Result<SecurityStatus, ResolveError> {
        if zone.is_root() {
            if self.trust.is_some() {
                return self.validate_root_managed(net);
            }
            let Some(anchor) = self.root_anchor else {
                self.counters.missing_anchor_indeterminate += 1;
                return Ok(SecurityStatus::Indeterminate);
            };
            return self.validate_apex_keys(net, zone, anchor);
        }

        let parent = self.zone_parent.get(zone).cloned().unwrap_or_else(Name::root);
        let parent_status = self.validate_zone(net, &parent)?;
        match parent_status {
            SecurityStatus::Bogus => Ok(SecurityStatus::Bogus),
            SecurityStatus::Secure => {
                match self.obtain_ds(net, zone, &parent)? {
                    Some((ds_set, ds_sig)) => {
                        // The DS itself must verify under the parent.
                        let parent_keys =
                            self.validated_keys.get(&parent).cloned().unwrap_or_default();
                        let now = now_secs(net);
                        let ds_check = ds_sig
                            .as_ref()
                            .map(|sig| check_rrset(&ds_set, sig, &parent_keys, now))
                            .unwrap_or(RrsigCheck::Invalid);
                        if ds_check != RrsigCheck::Valid {
                            if ds_check == RrsigCheck::Expired {
                                self.counters.expired_rrsig_bogus += 1;
                            }
                            return Ok(SecurityStatus::Bogus);
                        }
                        self.descend(net, zone, &ds_set)
                    }
                    None => self.try_dlv(net, zone),
                }
            }
            SecurityStatus::Insecure | SecurityStatus::Indeterminate => self.try_dlv(net, zone),
        }
    }

    /// Completes the chain into `zone` given `digests`, a validated DS
    /// RRset or a DLV RRset used exactly like one (RFC 5074 §3): some
    /// digest must match a fetched DNSKEY, and the DNSKEY RRset must be
    /// self-signed within its validity window.
    fn descend(
        &mut self,
        net: &mut Network,
        zone: &Name,
        digests: &RrSet,
    ) -> Result<SecurityStatus, ResolveError> {
        let Some((keys, key_set, key_sig)) = self.fetch_dnskeys(net, zone)? else {
            return Ok(SecurityStatus::Bogus);
        };
        let now = now_secs(net);
        let anchored = digests.rdatas.iter().any(|rd| {
            let (RData::Ds { digest, .. } | RData::Dlv { digest, .. }) = rd else { return false };
            keys.iter().any(|k| digest_matches(zone, k, digest))
        });
        if !anchored {
            return Ok(SecurityStatus::Bogus);
        }
        let self_check = key_sig
            .as_ref()
            .map(|sig| check_rrset(&key_set, sig, &keys, now))
            .unwrap_or(RrsigCheck::Invalid);
        if self_check != RrsigCheck::Valid {
            if self_check == RrsigCheck::Expired {
                self.counters.expired_rrsig_bogus += 1;
            }
            return Ok(SecurityStatus::Bogus);
        }
        self.validated_keys.insert(zone.clone(), keys);
        Ok(SecurityStatus::Secure)
    }

    /// Validates a zone's apex DNSKEY RRset directly against a configured
    /// trust anchor (the root anchor, or the DLV registry anchor).
    fn validate_apex_keys(
        &mut self,
        net: &mut Network,
        zone: &Name,
        anchor: PublicKey,
    ) -> Result<SecurityStatus, ResolveError> {
        let Some((keys, key_set, key_sig)) = self.fetch_dnskeys(net, zone)? else {
            return Ok(SecurityStatus::Bogus);
        };
        if !keys.contains(&anchor) {
            return Ok(SecurityStatus::Bogus);
        }
        let check = key_sig
            .as_ref()
            .map(|sig| check_rrset(&key_set, sig, &[anchor], now_secs(net)))
            .unwrap_or(RrsigCheck::Invalid);
        if check != RrsigCheck::Valid {
            if check == RrsigCheck::Expired {
                self.counters.expired_rrsig_bogus += 1;
            }
            return Ok(SecurityStatus::Bogus);
        }
        self.validated_keys.insert(zone.clone(), keys);
        Ok(SecurityStatus::Secure)
    }

    /// Root validation under RFC 5011 automated trust-anchor management.
    ///
    /// Outcome classification — the part the DLV fallback depends on:
    ///
    /// * signature by a currently-valid anchor, window live → **Secure**
    ///   (and the observation feeds the RFC 5011 state machine);
    /// * signature by a valid anchor but outside its validity window →
    ///   **Bogus** (expired-RRSIG storm; counted separately);
    /// * no valid anchor verifies, but a valid anchor is still *published*
    ///   in the RRset → **Bogus** (the chain ought to work and does not);
    /// * no valid anchor appears in the RRset at all (the missed rollover
    ///   window) → **Indeterminate** — the resolver effectively has no
    ///   trust anchor, the §5.2 state in which lax resolvers reach for DLV.
    fn validate_root_managed(&mut self, net: &mut Network) -> Result<SecurityStatus, ResolveError> {
        let root = Name::root();
        let Some((keys, key_set, key_sig)) = self.fetch_dnskeys(net, &root)? else {
            return Ok(SecurityStatus::Bogus);
        };
        let valid = match self.trust.as_mut() {
            Some(trust) => {
                // Hold-down timers run on time, not on observations —
                // otherwise the successor could never graduate once it
                // starts signing (no RRset would validate to observe).
                trust.tick(net.now_ns());
                trust.valid_keys()
            }
            None => Vec::new(),
        };
        let check = key_sig
            .as_ref()
            .map(|sig| check_rrset(&key_set, sig, &valid, now_secs(net)))
            .unwrap_or(RrsigCheck::Invalid);
        match check {
            RrsigCheck::Valid => {
                if let Some(trust) = self.trust.as_mut() {
                    trust.observe(&key_set, net.now_ns());
                }
                self.validated_keys.insert(root, keys);
                Ok(SecurityStatus::Secure)
            }
            RrsigCheck::Expired => {
                self.counters.expired_rrsig_bogus += 1;
                Ok(SecurityStatus::Bogus)
            }
            RrsigCheck::Invalid => {
                if keys.iter().any(|k| valid.contains(k)) {
                    Ok(SecurityStatus::Bogus)
                } else {
                    self.counters.missing_anchor_indeterminate += 1;
                    Ok(SecurityStatus::Indeterminate)
                }
            }
        }
    }

    /// Fetches (and caches) a zone's DNSKEY RRset.
    fn fetch_dnskeys(
        &mut self,
        net: &mut Network,
        zone: &Name,
    ) -> Result<Option<FetchedKeys>, ResolveError> {
        match self.resolve_iterative(net, zone, RrType::Dnskey, 0) {
            Ok(IterOutcome::Answer { rrsets, .. }) => {
                let Some((set, sig)) = rrsets.into_iter().find(|(s, _)| s.rrtype == RrType::Dnskey)
                else {
                    return Ok(None);
                };
                let keys = parse_keys(&set);
                if keys.is_empty() {
                    return Ok(None);
                }
                Ok(Some((keys, set, sig)))
            }
            Ok(IterOutcome::Negative { .. }) => Ok(None),
            Err(ResolveError::Net(e)) => Err(ResolveError::Net(e)),
            Err(_) => Ok(None),
        }
    }

    /// Obtains the DS RRset for `zone` with an explicit query to the parent
    /// (BIND behaviour; also the source of Table 4's DS column). Returns
    /// `None` when the DS provably or practically does not exist.
    fn obtain_ds(
        &mut self,
        net: &mut Network,
        zone: &Name,
        parent: &Name,
    ) -> Result<Option<SharedRrSet>, ResolveError> {
        let now = net.now_ns();
        if let Some(cached) = self.answers.get(zone, RrType::Ds, now) {
            return Ok(Some((Arc::clone(&cached.rrset), cached.rrsig.clone())));
        }
        if self.answers.get_negative(zone, RrType::Ds, now).is_some() {
            return Ok(None);
        }
        let response = self.query_zone(net, parent, zone, RrType::Ds)?;
        let data: Vec<Record> =
            response.answers.iter().filter(|r| r.rrtype == RrType::Ds).cloned().collect();
        if data.is_empty() {
            self.answers.put_negative(zone.clone(), RrType::Ds, response.rcode(), 60, now);
            // Fall back to what the referral may have proven.
            if let Some(DsInfo::Present(set, sig)) = self.ds_info.get(zone) {
                return Ok(Some((Arc::clone(set), sig.clone())));
            }
            return Ok(None);
        }
        let mut sets: Vec<RrSet> = data.into_iter().collect();
        let sig = response
            .answers
            .iter()
            .find(|r| {
                r.rrtype == RrType::Rrsig
                    && r.name == *zone
                    && matches!(&r.rdata, RData::Rrsig { type_covered, .. } if *type_covered == RrType::Ds)
            })
            .cloned()
            .map(Arc::new);
        let set = Arc::new(sets.swap_remove(0));
        self.answers.put(Arc::clone(&set), sig.clone(), now);
        Ok(Some((set, sig)))
    }

    /// Ensures the DLV registry zone's keys are validated against the DLV
    /// trust anchor. Returns `false` when DLV is unusable.
    fn ensure_dlv_zone_keys(&mut self, net: &mut Network) -> Result<bool, ResolveError> {
        if self.validated_keys.contains_key(&self.dlv_apex) {
            return Ok(true);
        }
        let Some(anchor) = self.dlv_anchor else { return Ok(false) };
        let apex = self.dlv_apex.clone();
        let status = self.validate_apex_keys(net, &apex, anchor)?;
        self.zone_status.insert(apex, status);
        Ok(status == SecurityStatus::Secure)
    }

    /// TXT-remedy probe: does `zone` advertise a deposited DLV record?
    /// §6.2.3 notes the signal can be rewritten in flight and suggests
    /// signing it. We implement that defence where it is possible: when the
    /// TXT answer carries an RRSIG, the signature is checked against the
    /// zone's own DNSKEY set, and a *failing* signature makes the signal
    /// count as absent (fail closed — no DLV query, so no leak; the
    /// attacker can still downgrade a deposited zone's validation utility).
    /// Unsigned zones cannot be protected this way, exactly as the paper
    /// observes.
    fn txt_check(&mut self, net: &mut Network, zone: &Name) -> Result<Option<bool>, ResolveError> {
        if let Some(cached) = self.txt_signal_cache.get(zone) {
            return Ok(*cached);
        }
        let signal = match self.resolve_iterative(net, zone, RrType::Txt, 0) {
            Ok(IterOutcome::Answer { rrsets, .. }) => {
                match rrsets.iter().find(|(s, _)| s.rrtype == RrType::Txt) {
                    Some((set, sig)) => {
                        let sig_ok = match sig {
                            Some(sig) => {
                                let keys = match self.fetch_dnskeys(net, zone)? {
                                    Some((keys, _, _)) => keys,
                                    None => Vec::new(),
                                };
                                verify_rrset(set, sig, &keys, now_secs(net))
                            }
                            // Unsigned signal: accepted, spoofable (§6.2.3).
                            None => true,
                        };
                        if sig_ok {
                            set.rdatas.iter().find_map(|rd| match rd {
                                RData::Txt(segments) => parse_txt_signal(segments),
                                _ => None,
                            })
                        } else {
                            None
                        }
                    }
                    None => None,
                }
            }
            _ => None,
        };
        self.txt_signal_cache.insert(zone.clone(), signal);
        Ok(signal)
    }

    /// The RFC 5074 look-aside walk for `zone`, under the active remedy.
    pub(crate) fn try_dlv(
        &mut self,
        net: &mut Network,
        zone: &Name,
    ) -> Result<SecurityStatus, ResolveError> {
        if !self.behavior.use_dlv || zone.is_root() {
            return Ok(SecurityStatus::Insecure);
        }
        match self.remedy {
            RemedyMode::TxtSignal => {
                if self.txt_check(net, zone)? != Some(true) {
                    self.counters.dlv_skipped_by_signal += 1;
                    return Ok(SecurityStatus::Insecure);
                }
            }
            RemedyMode::ZBit => {
                if self.z_signal.get(zone).copied() != Some(true) {
                    self.counters.dlv_skipped_by_signal += 1;
                    return Ok(SecurityStatus::Insecure);
                }
            }
            RemedyMode::None | RemedyMode::HashedDlv => {}
        }
        // Registry outages (the §7.3.2 incidents) must not take resolution
        // down with them: an unreachable registry simply means look-aside
        // cannot help.
        match self.ensure_dlv_zone_keys(net) {
            Ok(true) => {}
            Ok(false) | Err(_) => return Ok(SecurityStatus::Insecure),
        }

        // Build the target list: hashed mode has no label structure to
        // strip; plain mode walks `zone.dlv`, `parent(zone).dlv`, … per
        // RFC 5074 §4.1.
        let mut targets = Vec::new();
        match self.remedy {
            RemedyMode::HashedDlv => {
                if let Ok(t) = self.dlv_apex.prepend(&hashed_dlv_label(zone)) {
                    targets.push((t, zone.clone()));
                }
            }
            _ => {
                let mut z = zone.clone();
                while z.label_count() >= 1 {
                    if let Ok(t) = z.concat(&self.dlv_apex) {
                        targets.push((t, z.clone()));
                    }
                    let Some(parent) = z.parent() else { break };
                    z = parent;
                }
            }
        }

        let dlv_keys = self.validated_keys.get(&self.dlv_apex).cloned().unwrap_or_default();
        for (target, stripped) in targets {
            let now = net.now_ns();
            if self.features.aggressive_nsec && self.nsec_spans.covers(&target, now) {
                self.counters.dlv_suppressed_by_nsec += 1;
                self.nsec_spans.note_suppressed();
                continue;
            }
            let was_cached = self.answers.get(&target, RrType::Dlv, now).is_some()
                || self.answers.get_negative(&target, RrType::Dlv, now).is_some();
            if !was_cached {
                self.counters.dlv_queries_sent += 1;
            }
            let outcome = match self.resolve_iterative(net, &target, RrType::Dlv, 0) {
                Ok(o) => o,
                Err(_) => continue, // registry outage ≈ not found
            };
            match outcome {
                IterOutcome::Answer { rrsets, .. } => {
                    let found = rrsets.iter().find(|(s, _)| s.rrtype == RrType::Dlv);
                    let Some((dlv_set, dlv_sig)) = found else { continue };
                    let now_s = now_secs(net);
                    let sig_ok = dlv_sig
                        .as_ref()
                        .map(|sig| verify_rrset(dlv_set, sig, &dlv_keys, now_s))
                        .unwrap_or(false);
                    if !sig_ok {
                        continue;
                    }
                    if stripped != *zone {
                        // An enclosing deposit exists; it can anchor the
                        // enclosing zone but not this one directly. Treat
                        // this zone as insecure (conservative).
                        return Ok(SecurityStatus::Insecure);
                    }
                    // Use the DLV record exactly like a DS (RFC 5074 §3).
                    return match self.descend(net, zone, dlv_set)? {
                        SecurityStatus::Secure => {
                            self.secured_via_dlv.insert(zone.clone());
                            Ok(SecurityStatus::Secure)
                        }
                        other => Ok(other),
                    };
                }
                IterOutcome::Negative { rcode, authority, .. } => {
                    if rcode == Rcode::NxDomain && self.features.aggressive_nsec {
                        self.cache_nsec_spans(net, &authority, &dlv_keys);
                    }
                    // Not found at this level; strip and continue.
                }
            }
        }
        Ok(SecurityStatus::Insecure)
    }

    /// Validates NSEC records from a DLV NXDOMAIN and caches their spans
    /// for aggressive negative caching.
    fn cache_nsec_spans(&mut self, net: &Network, authority: &[Record], dlv_keys: &[PublicKey]) {
        let now_s = now_secs(net);
        for rec in authority {
            let RData::Nsec { next_name, .. } = &rec.rdata else { continue };
            let set = RrSet::single(rec.name.clone(), rec.ttl, rec.rdata.clone());
            let sig_ok = authority.iter().any(|sig| {
                sig.rrtype == RrType::Rrsig
                    && sig.name == rec.name
                    && matches!(&sig.rdata, RData::Rrsig { type_covered, .. } if *type_covered == RrType::Nsec)
                    && verify_rrset(&set, sig, dlv_keys, now_s)
            });
            if sig_ok {
                self.nsec_spans.insert(rec.name.clone(), next_name.clone(), rec.ttl, net.now_ns());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lookaside_crypto::KeyPair;
    use lookaside_wire::RrClass;
    use std::net::Ipv4Addr;

    fn signed_rrset(key: &KeyPair, inception: u32, expiration: u32) -> (RrSet, Record) {
        let name = Name::parse("www.example.").unwrap();
        let rrset = RrSet {
            name: name.clone(),
            rrtype: RrType::A,
            ttl: 300,
            rdatas: vec![RData::A(Ipv4Addr::new(192, 0, 2, 1))],
        };
        let key_tag = key.key_tag();
        let algorithm = lookaside_crypto::ALGORITHM_SIM_SCHNORR;
        let labels = rrset.name.label_count() as u8;
        let signer = Name::parse("example.").unwrap();
        let input = rrsig_signing_input(
            rrset.rrtype,
            algorithm,
            labels,
            rrset.ttl,
            expiration,
            inception,
            key_tag,
            &signer,
            &rrset,
        );
        let signature = key.sign_to_bytes(&input);
        let sig = Record {
            name,
            rrtype: RrType::Rrsig,
            class: RrClass::In,
            ttl: rrset.ttl,
            rdata: RData::Rrsig {
                type_covered: rrset.rrtype,
                algorithm,
                labels,
                original_ttl: rrset.ttl,
                expiration,
                inception,
                key_tag,
                signer_name: signer,
                signature,
            },
        };
        (rrset, sig)
    }

    #[test]
    fn window_boundaries_are_inclusive() {
        let key = KeyPair::generate_zsk(7);
        let keys = [key.public()];
        let (rrset, sig) = signed_rrset(&key, 1_000, 2_000);
        // RFC 4034 §3.1.5: both endpoints are inside the window.
        assert_eq!(check_rrset(&rrset, &sig, &keys, 1_000), RrsigCheck::Valid);
        assert_eq!(check_rrset(&rrset, &sig, &keys, 2_000), RrsigCheck::Valid);
        assert_eq!(check_rrset(&rrset, &sig, &keys, 999), RrsigCheck::Expired);
        assert_eq!(check_rrset(&rrset, &sig, &keys, 2_001), RrsigCheck::Expired);
        assert!(verify_rrset(&rrset, &sig, &keys, 1_500));
        assert!(!verify_rrset(&rrset, &sig, &keys, 2_001));
    }

    #[test]
    fn wrapped_window_spans_the_serial_rollover() {
        let key = KeyPair::generate_zsk(8);
        let keys = [key.public()];
        // A window straddling the 2038 u32 wraparound: inception near
        // u32::MAX, expiration just past zero.
        let (rrset, sig) = signed_rrset(&key, u32::MAX - 100, 100);
        assert_eq!(check_rrset(&rrset, &sig, &keys, u32::MAX - 50), RrsigCheck::Valid);
        assert_eq!(check_rrset(&rrset, &sig, &keys, 0), RrsigCheck::Valid);
        assert_eq!(check_rrset(&rrset, &sig, &keys, 50), RrsigCheck::Valid);
        assert_eq!(check_rrset(&rrset, &sig, &keys, 101), RrsigCheck::Expired);
        assert_eq!(check_rrset(&rrset, &sig, &keys, u32::MAX - 101), RrsigCheck::Expired);
    }

    #[test]
    fn wrong_key_is_invalid_not_expired() {
        let key = KeyPair::generate_zsk(9);
        let other = KeyPair::generate_zsk(10);
        let (rrset, sig) = signed_rrset(&key, 1_000, 2_000);
        assert_eq!(check_rrset(&rrset, &sig, &[other.public()], 1_500), RrsigCheck::Invalid);
        // Crypto failure dominates even outside the window.
        assert_eq!(check_rrset(&rrset, &sig, &[other.public()], 9_000), RrsigCheck::Invalid);
    }
}
