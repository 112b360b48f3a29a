use std::net::Ipv4Addr;
use std::sync::Arc;

use lookaside_wire::{Name, Record, RrSet};

/// An RRset paired with its covering RRSIG (absent in unsigned zones).
///
/// Both halves are shared handles: cloning a `SignedRrSet` bumps refcounts,
/// so a published zone can hand the same pre-rendered answer to every query
/// without copying record data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedRrSet {
    /// The data RRset.
    pub rrset: Arc<RrSet>,
    /// The RRSIG record covering it, when the zone is signed.
    pub rrsig: Option<Arc<Record>>,
}

impl SignedRrSet {
    /// Pairs a shared RRset with its (shared) signature.
    pub fn new(rrset: Arc<RrSet>, rrsig: Option<Arc<Record>>) -> Self {
        SignedRrSet { rrset, rrsig }
    }

    /// Wraps an unsigned RRset.
    pub fn unsigned(rrset: RrSet) -> Self {
        SignedRrSet { rrset: Arc::new(rrset), rrsig: None }
    }

    /// All records (data + signature) for placing into a message section.
    pub fn to_records(&self) -> Vec<Record> {
        let mut records = self.rrset.to_records();
        if let Some(sig) = &self.rrsig {
            records.push(Record::clone(sig));
        }
        records
    }
}

/// The outcome of an authoritative zone lookup, before rendering to a wire
/// message.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Lookup {
    /// The name owns an RRset of the queried type.
    Answer {
        /// The answer RRset and its signature.
        answer: SignedRrSet,
    },
    /// The name owns a CNAME; the resolver must chase the target.
    Cname {
        /// The CNAME RRset and its signature.
        cname: SignedRrSet,
    },
    /// The name exists but has no RRset of the queried type.
    NoData {
        /// SOA for negative caching.
        soa: SignedRrSet,
        /// NSEC at the name proving type absence (signed zones only).
        proof: Option<SignedRrSet>,
    },
    /// The query falls below a zone cut: here are the child name servers.
    Referral {
        /// The delegation point.
        cut: Name,
        /// Child NS RRset (unsigned — delegation NS sets never are).
        ns: Arc<RrSet>,
        /// DS RRset for a secure delegation.
        ds: Option<SignedRrSet>,
        /// NSEC at the cut proving *no* DS exists (insecure delegation in a
        /// signed parent) — how a validator learns a child is an island of
        /// security.
        no_ds_proof: Option<SignedRrSet>,
        /// Glue: addresses for in-bailiwick child name servers.
        glue: Vec<(Name, Ipv4Addr)>,
    },
    /// The name does not exist.
    NxDomain {
        /// SOA for negative caching.
        soa: SignedRrSet,
        /// NSEC covering the non-existent name (signed zones only). This is
        /// the span the resolver's aggressive negative cache stores.
        proof: Option<SignedRrSet>,
    },
    /// The query is outside this zone's bailiwick.
    OutOfZone,
}

impl Lookup {
    /// Whether this outcome denies existence (NXDOMAIN).
    pub fn is_nxdomain(&self) -> bool {
        matches!(self, Lookup::NxDomain { .. })
    }

    /// Whether this outcome is a referral.
    pub fn is_referral(&self) -> bool {
        matches!(self, Lookup::Referral { .. })
    }
}
