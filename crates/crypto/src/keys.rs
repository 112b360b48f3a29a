//! DNSSEC key model: zone-signing and key-signing keys, DNSKEY RDATA, and
//! RFC 4034 Appendix B key tags.

use lookaside_wire::RData;

use crate::schnorr::{self, Signature, PUBLIC_KEY_LEN};

/// The private-use algorithm number (RFC 4034 §A.1.1 reserves 253) carried
/// in DNSKEY/DS/RRSIG records produced by this simulator.
pub const ALGORITHM_SIM_SCHNORR: u8 = 253;

/// DNSKEY protocol field, always 3 (RFC 4034 §2.1.2).
pub const DNSKEY_PROTOCOL: u8 = 3;

/// DNSKEY flag for "zone key" (bit 7, value 0x0100).
pub const FLAG_ZONE_KEY: u16 = 0x0100;
/// DNSKEY flag for "secure entry point" (bit 15, value 0x0001) — marks KSKs.
pub const FLAG_SEP: u16 = 0x0001;
/// DNSKEY flag for "revoked" (RFC 5011 §2.1, bit 8, value 0x0080). A
/// trust-anchor-managing resolver that sees a validly signed DNSKEY with
/// this bit set must stop trusting the key permanently.
pub const FLAG_REVOKE: u16 = 0x0080;

/// Whether a key signs record sets (ZSK) or other keys (KSK).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyRole {
    /// Zone-signing key: signs the zone's RRsets.
    Zsk,
    /// Key-signing key: signs the DNSKEY RRset; its digest becomes the DS
    /// (or DLV) record in the parent (or DLV registry).
    Ksk,
}

impl KeyRole {
    /// DNSKEY flags field for the role.
    pub fn flags(self) -> u16 {
        match self {
            KeyRole::Zsk => FLAG_ZONE_KEY,
            KeyRole::Ksk => FLAG_ZONE_KEY | FLAG_SEP,
        }
    }
}

/// The public half of a key, as distributed in DNSKEY records and trust
/// anchors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey {
    y: u64,
    role: KeyRole,
}

impl PublicKey {
    /// Verifies `sig` over `msg`.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        schnorr::verify(self.y, msg, sig)
    }

    /// Verifies a serialised signature over `msg`.
    pub fn verify_bytes(&self, msg: &[u8], sig_bytes: &[u8]) -> bool {
        match Signature::from_bytes(sig_bytes) {
            Some(sig) => self.verify(msg, &sig),
            None => false,
        }
    }

    /// The key's role.
    pub fn role(&self) -> KeyRole {
        self.role
    }

    /// Serialises the public key material (padded to 32 octets).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(PUBLIC_KEY_LEN);
        out.extend_from_slice(&self.y.to_be_bytes());
        out.resize(PUBLIC_KEY_LEN, 0);
        out
    }

    /// Reconstructs a public key from DNSKEY RDATA fields.
    ///
    /// Returns `None` if the material is malformed or the flags encode
    /// neither a ZSK nor a KSK.
    pub fn from_dnskey(flags: u16, key_bytes: &[u8]) -> Option<Self> {
        if key_bytes.len() < 8 {
            return None;
        }
        let y = crate::be_u64_head(key_bytes)?;
        let role = if flags & FLAG_SEP != 0 {
            KeyRole::Ksk
        } else if flags & FLAG_ZONE_KEY != 0 {
            KeyRole::Zsk
        } else {
            return None;
        };
        Some(PublicKey { y, role })
    }

    /// The DNSKEY RDATA for this key.
    pub fn dnskey_rdata(&self) -> RData {
        self.dnskey_rdata_with_flags(self.role.flags())
    }

    /// The DNSKEY RDATA with an explicit flags field — used by the key
    /// lifecycle machinery to publish revoked keys (RFC 5011 §2.1:
    /// role flags plus [`FLAG_REVOKE`]).
    pub fn dnskey_rdata_with_flags(&self, flags: u16) -> RData {
        RData::Dnskey {
            flags,
            protocol: DNSKEY_PROTOCOL,
            algorithm: ALGORITHM_SIM_SCHNORR,
            public_key: self.to_bytes(),
        }
    }

    /// RFC 4034 Appendix B key tag over the DNSKEY RDATA.
    pub fn key_tag(&self) -> u16 {
        let rdata = self.dnskey_rdata();
        let mut wire = lookaside_wire::codec::Writer::new();
        rdata.encode(&mut wire);
        key_tag_over(&wire.into_bytes())
    }
}

/// Computes the RFC 4034 Appendix B key tag over raw DNSKEY RDATA.
pub fn key_tag_over(rdata: &[u8]) -> u16 {
    let mut acc: u32 = 0;
    for (i, &b) in rdata.iter().enumerate() {
        if i & 1 == 0 {
            acc += (b as u32) << 8;
        } else {
            acc += b as u32;
        }
    }
    acc += (acc >> 16) & 0xffff;
    (acc & 0xffff) as u16
}

/// A full signing key pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyPair {
    x: u64,
    public: PublicKey,
}

impl KeyPair {
    /// Deterministically generates a key of the given role from a seed.
    pub fn generate(seed: u64, role: KeyRole) -> Self {
        let x = schnorr::secret_from_seed(seed);
        let y = schnorr::public_from_secret(x);
        KeyPair { x, public: PublicKey { y, role } }
    }

    /// Generates a zone-signing key.
    pub fn generate_zsk(seed: u64) -> Self {
        KeyPair::generate(seed, KeyRole::Zsk)
    }

    /// Generates a key-signing key.
    pub fn generate_ksk(seed: u64) -> Self {
        KeyPair::generate(seed, KeyRole::Ksk)
    }

    /// The public half.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Signs `msg`, returning the signature.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        schnorr::sign(self.x, msg)
    }

    /// Signs `msg`, returning serialised signature bytes for RRSIG RDATA.
    pub fn sign_to_bytes(&self, msg: &[u8]) -> Vec<u8> {
        self.sign(msg).to_bytes()
    }

    /// Key tag of the public half.
    pub fn key_tag(&self) -> u16 {
        self.public.key_tag()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_set_expected_flags() {
        assert_eq!(KeyRole::Zsk.flags(), 0x0100);
        assert_eq!(KeyRole::Ksk.flags(), 0x0101);
        assert_eq!(FLAG_REVOKE, 0x0080);
    }

    #[test]
    fn revoked_dnskey_still_parses_to_same_key() {
        let kp = KeyPair::generate_ksk(13);
        let revoked = kp.public().dnskey_rdata_with_flags(KeyRole::Ksk.flags() | FLAG_REVOKE);
        match revoked {
            RData::Dnskey { flags, public_key, .. } => {
                assert_eq!(flags & FLAG_REVOKE, FLAG_REVOKE);
                let back = PublicKey::from_dnskey(flags, &public_key).unwrap();
                assert_eq!(back, kp.public());
            }
            other => panic!("unexpected rdata {other:?}"),
        }
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let a = KeyPair::generate_zsk(1);
        let b = KeyPair::generate_zsk(1);
        let c = KeyPair::generate_zsk(2);
        assert_eq!(a, b);
        assert_ne!(a.public(), c.public());
    }

    #[test]
    fn sign_verify_through_public() {
        let kp = KeyPair::generate_ksk(10);
        let sig = kp.sign(b"dnskey rrset");
        assert!(kp.public().verify(b"dnskey rrset", &sig));
        assert!(!kp.public().verify(b"other", &sig));
    }

    #[test]
    fn verify_bytes_handles_garbage() {
        let kp = KeyPair::generate_zsk(11);
        assert!(!kp.public().verify_bytes(b"msg", &[]));
        assert!(!kp.public().verify_bytes(b"msg", &[0u8; 64]));
        let good = kp.sign_to_bytes(b"msg");
        assert!(kp.public().verify_bytes(b"msg", &good));
    }

    #[test]
    fn dnskey_rdata_round_trips_public_key() {
        let kp = KeyPair::generate_ksk(12);
        match kp.public().dnskey_rdata() {
            RData::Dnskey { flags, protocol, algorithm, public_key } => {
                assert_eq!(protocol, DNSKEY_PROTOCOL);
                assert_eq!(algorithm, ALGORITHM_SIM_SCHNORR);
                let back = PublicKey::from_dnskey(flags, &public_key).unwrap();
                assert_eq!(back, kp.public());
            }
            other => panic!("unexpected rdata {other:?}"),
        }
    }

    #[test]
    fn from_dnskey_rejects_bad_input() {
        assert!(PublicKey::from_dnskey(0x0100, &[1, 2]).is_none());
        assert!(PublicKey::from_dnskey(0x0000, &[0u8; 32]).is_none());
    }

    #[test]
    fn key_tags_differ_between_keys() {
        let tags: std::collections::HashSet<u16> =
            (0..50).map(|s| KeyPair::generate_zsk(s).key_tag()).collect();
        // A few collisions are possible in principle; most must be distinct.
        assert!(tags.len() > 45);
    }

    #[test]
    fn key_tag_over_rfc_accumulator() {
        // Odd-length RDATA exercises the trailing-byte path.
        assert_eq!(key_tag_over(&[0x01]), 0x0100);
        assert_eq!(key_tag_over(&[0x01, 0x02]), 0x0102);
        assert_eq!(key_tag_over(&[0xff, 0xff, 0xff, 0xff]), ((0x1fffe + 1) as u16));
    }
}
