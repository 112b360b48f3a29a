//! DS/DLV digest construction (RFC 4034 §5.1.4, RFC 4431) and the hashed
//! query name used by the privacy-preserving DLV remedy (§6.2.2 of the
//! paper).

use lookaside_wire::{Name, RData};

use crate::keys::{PublicKey, ALGORITHM_SIM_SCHNORR};
use crate::sha256::{sha256, to_hex, Sha256};

/// Digest-type identifier carried in DS/DLV records produced here. The IANA
/// value 2 means SHA-256, which is what this simulator computes.
pub const DIGEST_TYPE_SIM_SHA256: u8 = 2;

/// Computes the DS digest for `owner`'s key: `SHA-256(owner_wire ‖ DNSKEY
/// RDATA)` per RFC 4034 §5.1.4.
pub fn ds_digest(owner: &Name, key: &PublicKey) -> Vec<u8> {
    let mut h = Sha256::new();
    let mut owner_wire = Vec::with_capacity(owner.wire_len());
    owner.encode_uncompressed(&mut owner_wire);
    h.update(&owner_wire);
    let mut w = lookaside_wire::codec::Writer::new();
    key.dnskey_rdata().encode(&mut w);
    h.update(&w.into_bytes());
    h.finalize().to_vec()
}

/// Builds the DS RDATA a parent zone publishes for `owner`'s KSK.
pub fn ds_rdata(owner: &Name, key: &PublicKey) -> RData {
    RData::Ds {
        key_tag: key.key_tag(),
        algorithm: ALGORITHM_SIM_SCHNORR,
        digest_type: DIGEST_TYPE_SIM_SHA256,
        digest: ds_digest(owner, key),
    }
}

/// Builds the DLV RDATA deposited in a DLV registry for `owner`'s KSK.
/// RFC 4431 defines DLV RDATA as byte-identical to DS RDATA.
pub fn dlv_rdata(owner: &Name, key: &PublicKey) -> RData {
    RData::Dlv {
        key_tag: key.key_tag(),
        algorithm: ALGORITHM_SIM_SCHNORR,
        digest_type: DIGEST_TYPE_SIM_SHA256,
        digest: ds_digest(owner, key),
    }
}

/// Whether a DS/DLV digest matches `owner`'s key.
pub fn digest_matches(owner: &Name, key: &PublicKey, digest: &[u8]) -> bool {
    ds_digest(owner, key) == digest
}

/// The hashed query label of the privacy-preserving DLV remedy (§6.2.2):
/// `crypto_hash(domain_name)` rendered as a single DNS label.
///
/// The paper sends `$hash.dlv.isc.org` instead of
/// `example.com.dlv.isc.org`. A full SHA-256 hex digest (64 chars) exceeds
/// the 63-octet label limit, so we truncate to 128 bits (32 hex chars) —
/// still far beyond dictionary-attack-by-accident territory for the §6.2.4
/// analysis, and small enough to be a legal label.
///
/// # Example
///
/// ```
/// use lookaside_crypto::hashed_dlv_label;
/// use lookaside_wire::Name;
///
/// let label = hashed_dlv_label(&Name::parse("example.com.")?);
/// assert_eq!(label.len(), 32);
/// assert!(Name::parse(&format!("{label}.dlv.isc.org.")).is_ok());
/// # Ok::<(), lookaside_wire::WireError>(())
/// ```
pub fn hashed_dlv_label(domain: &Name) -> String {
    let mut wire = Vec::with_capacity(domain.wire_len());
    domain.encode_uncompressed(&mut wire);
    // Only the 16 kept bytes are encoded: 32 hex chars, one allocation.
    to_hex(sha256(&wire).iter().take(16))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyPair;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn ds_digest_binds_owner_and_key() {
        let k1 = KeyPair::generate_ksk(1).public();
        let k2 = KeyPair::generate_ksk(2).public();
        let a = ds_digest(&name("example.com"), &k1);
        assert_eq!(a.len(), 32);
        assert_ne!(a, ds_digest(&name("example.net"), &k1));
        assert_ne!(a, ds_digest(&name("example.com"), &k2));
        assert!(digest_matches(&name("example.com"), &k1, &a));
        assert!(!digest_matches(&name("example.com"), &k2, &a));
    }

    #[test]
    fn ds_and_dlv_rdata_share_digest() {
        let k = KeyPair::generate_ksk(3).public();
        let owner = name("island.com");
        match (ds_rdata(&owner, &k), dlv_rdata(&owner, &k)) {
            (
                RData::Ds { key_tag: t1, digest: d1, .. },
                RData::Dlv { key_tag: t2, digest: d2, .. },
            ) => {
                assert_eq!(t1, t2);
                assert_eq!(d1, d2);
                assert_eq!(t1, k.key_tag());
            }
            other => panic!("unexpected rdata {other:?}"),
        }
    }

    #[test]
    fn hashed_label_is_legal_and_stable() {
        let l = hashed_dlv_label(&name("example.com"));
        assert_eq!(l.len(), 32);
        assert!(l.bytes().all(|b| b.is_ascii_hexdigit()));
        assert_eq!(l, "902e9c464fa43fcab109d1a6b95ddf83", "pinned §6.2.2 label");
        assert_eq!(l, hashed_dlv_label(&name("EXAMPLE.com")), "case-insensitive");
        assert_ne!(l, hashed_dlv_label(&name("example.net")));
        // Must form a valid DNS label.
        assert!(Name::parse(&format!("{l}.dlv.isc.org")).is_ok());
    }
}
