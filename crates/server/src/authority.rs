use std::collections::BTreeSet;

use lookaside_netsim::DnsHandler;
use lookaside_wire::{Message, MessageBuilder, Name, Rcode};
use lookaside_zone::PublishedZone;

use crate::render::render_lookup;

/// An authoritative server hosting one or more published zones.
///
/// Besides standard behaviour it implements the Z-bit remedy of §6.2.1:
/// when a hosted zone is listed via [`AuthoritativeServer::advertise_dlv`],
/// every response from that zone carries the spare header Z bit, telling a
/// remedy-aware resolver that a DLV record is deposited and a DLV query
/// would be useful.
pub struct AuthoritativeServer {
    zones: Vec<PublishedZone>,
    z_advertise: BTreeSet<Name>,
}

impl AuthoritativeServer {
    /// Creates a server hosting `zones`.
    pub fn new(zones: Vec<PublishedZone>) -> Self {
        AuthoritativeServer { zones, z_advertise: BTreeSet::new() }
    }

    /// Creates a server hosting a single zone.
    pub fn single(zone: PublishedZone) -> Self {
        AuthoritativeServer::new(vec![zone])
    }

    /// Marks a hosted zone apex as having a DLV record deposited, enabling
    /// the Z-bit signal on its responses.
    pub fn advertise_dlv(&mut self, apex: Name) {
        self.z_advertise.insert(apex);
    }

    /// The deepest hosted zone containing `qname`.
    pub fn zone_for(&self, qname: &Name) -> Option<&PublishedZone> {
        self.zones
            .iter()
            .filter(|z| qname.is_subdomain_of(z.apex()))
            .max_by_key(|z| z.apex().label_count())
    }

    /// The hosted zones, in insertion order.
    pub fn zones(&self) -> &[PublishedZone] {
        &self.zones
    }
}

impl DnsHandler for AuthoritativeServer {
    fn handle(&mut self, query: &Message, _now_ns: u64) -> Message {
        let Some(question) = query.question() else {
            return MessageBuilder::respond_to(query).rcode(Rcode::FormErr).build();
        };
        let Some(zone) = self.zone_for(&question.name) else {
            return MessageBuilder::respond_to(query).rcode(Rcode::Refused).build();
        };
        let lookup = zone.lookup(&question.name, question.rrtype);
        let mut response = render_lookup(query, &lookup);
        if self.z_advertise.contains(zone.apex()) {
            response.header.flags.z = true;
        }
        response
    }
}

impl std::fmt::Debug for AuthoritativeServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let apexes: Vec<String> = self.zones.iter().map(|z| z.apex().to_string()).collect();
        f.debug_struct("AuthoritativeServer").field("zones", &apexes).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lookaside_wire::{RData, RrType};
    use lookaside_zone::{SigningKeys, Zone};
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn server() -> AuthoritativeServer {
        let mut z1 = Zone::new(n("example.com"), n("ns1.example.com"));
        z1.add(n("www.example.com"), 300, RData::A(Ipv4Addr::new(192, 0, 2, 1)));
        let mut z2 = Zone::new(n("deep.example.com"), n("ns1.deep.example.com"));
        z2.add(n("www.deep.example.com"), 300, RData::A(Ipv4Addr::new(192, 0, 2, 2)));
        AuthoritativeServer::new(vec![
            PublishedZone::signed(z1, &SigningKeys::from_seed(1), 0, 1000),
            PublishedZone::signed(z2, &SigningKeys::from_seed(2), 0, 1000),
        ])
    }

    #[test]
    fn routes_to_deepest_zone() {
        let s = server();
        assert_eq!(s.zone_for(&n("www.deep.example.com")).unwrap().apex(), &n("deep.example.com"));
        assert_eq!(s.zone_for(&n("www.example.com")).unwrap().apex(), &n("example.com"));
        assert!(s.zone_for(&n("other.org")).is_none());
    }

    #[test]
    fn answers_with_aa_bit() {
        let mut s = server();
        let q = Message::dnssec_query(1, n("www.example.com"), RrType::A);
        let resp = s.handle(&q, 0);
        assert!(resp.header.flags.aa);
        assert_eq!(resp.rcode(), Rcode::NoError);
        assert_eq!(resp.answers_of(RrType::A).count(), 1);
    }

    #[test]
    fn refuses_foreign_names() {
        let mut s = server();
        let q = Message::query(2, n("other.org"), RrType::A);
        assert_eq!(s.handle(&q, 0).rcode(), Rcode::Refused);
    }

    #[test]
    fn z_bit_set_only_for_advertised_zones() {
        let mut s = server();
        let q = Message::dnssec_query(3, n("www.example.com"), RrType::A);
        assert!(!s.handle(&q, 0).header.flags.z);
        s.advertise_dlv(n("example.com"));
        assert!(s.handle(&q, 0).header.flags.z);
        // The other zone is unaffected.
        let q2 = Message::dnssec_query(4, n("www.deep.example.com"), RrType::A);
        assert!(!s.handle(&q2, 0).header.flags.z);
    }

    #[test]
    fn empty_question_is_formerr() {
        let mut s = server();
        let mut q = Message::query(5, n("www.example.com"), RrType::A);
        q.questions.clear();
        assert_eq!(s.handle(&q, 0).rcode(), Rcode::FormErr);
    }
}
