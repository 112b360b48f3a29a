// lint:allow-file(panic::slice-index) -- bitmap window slices are length-checked against the decoded window length before each access; fuzz-backed by the ci.sh corruption gate

use std::fmt;

use crate::WireError;

/// DNS resource-record types used by the study.
///
/// The numeric values are the IANA assignments; [`RrType::Dlv`] is 32769
/// (RFC 4431), which is how the paper's packet captures filter DLV traffic
/// ("All DLV queries are extracted from the network traffic by filtering the
/// query type", §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum RrType {
    /// IPv4 address (1).
    A,
    /// Authoritative name server (2).
    Ns,
    /// Canonical name alias (5).
    Cname,
    /// Start of authority (6).
    Soa,
    /// Domain name pointer, reverse lookups (12).
    Ptr,
    /// Mail exchanger (15).
    Mx,
    /// Text record (16) — carries the `dlv=1` remedy signal of §6.2.1.
    Txt,
    /// IPv6 address (28).
    Aaaa,
    /// EDNS(0) pseudo-record (41).
    Opt,
    /// Delegation signer (43).
    Ds,
    /// Resource record signature (46).
    Rrsig,
    /// Next secure record (47) — drives aggressive negative caching.
    Nsec,
    /// DNSSEC public key (48).
    Dnskey,
    /// Hashed next secure record (50), discussed in §7.3.
    Nsec3,
    /// DNSSEC look-aside validation record (32769, RFC 4431).
    Dlv,
    /// Any type this simulator does not model.
    Unknown(u16),
}

impl RrType {
    /// The IANA type code.
    pub fn code(self) -> u16 {
        match self {
            RrType::A => 1,
            RrType::Ns => 2,
            RrType::Cname => 5,
            RrType::Soa => 6,
            RrType::Ptr => 12,
            RrType::Mx => 15,
            RrType::Txt => 16,
            RrType::Aaaa => 28,
            RrType::Opt => 41,
            RrType::Ds => 43,
            RrType::Rrsig => 46,
            RrType::Nsec => 47,
            RrType::Dnskey => 48,
            RrType::Nsec3 => 50,
            RrType::Dlv => 32769,
            RrType::Unknown(code) => code,
        }
    }

    /// Maps an IANA type code back to an `RrType`.
    pub fn from_code(code: u16) -> Self {
        match code {
            1 => RrType::A,
            2 => RrType::Ns,
            5 => RrType::Cname,
            6 => RrType::Soa,
            12 => RrType::Ptr,
            15 => RrType::Mx,
            16 => RrType::Txt,
            28 => RrType::Aaaa,
            41 => RrType::Opt,
            43 => RrType::Ds,
            46 => RrType::Rrsig,
            47 => RrType::Nsec,
            48 => RrType::Dnskey,
            50 => RrType::Nsec3,
            32769 => RrType::Dlv,
            other => RrType::Unknown(other),
        }
    }

    /// Whether this type only ever appears as DNSSEC metadata.
    pub fn is_dnssec_meta(self) -> bool {
        matches!(
            self,
            RrType::Ds
                | RrType::Rrsig
                | RrType::Nsec
                | RrType::Dnskey
                | RrType::Nsec3
                | RrType::Dlv
        )
    }
}

impl fmt::Display for RrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RrType::A => write!(f, "A"),
            RrType::Ns => write!(f, "NS"),
            RrType::Cname => write!(f, "CNAME"),
            RrType::Soa => write!(f, "SOA"),
            RrType::Ptr => write!(f, "PTR"),
            RrType::Mx => write!(f, "MX"),
            RrType::Txt => write!(f, "TXT"),
            RrType::Aaaa => write!(f, "AAAA"),
            RrType::Opt => write!(f, "OPT"),
            RrType::Ds => write!(f, "DS"),
            RrType::Rrsig => write!(f, "RRSIG"),
            RrType::Nsec => write!(f, "NSEC"),
            RrType::Dnskey => write!(f, "DNSKEY"),
            RrType::Nsec3 => write!(f, "NSEC3"),
            RrType::Dlv => write!(f, "DLV"),
            RrType::Unknown(code) => write!(f, "TYPE{code}"),
        }
    }
}

/// DNS classes. The study uses `IN` exclusively.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RrClass {
    /// The Internet class (1).
    In,
    /// Any other class.
    Other(u16),
}

impl RrClass {
    /// The IANA class code.
    pub fn code(self) -> u16 {
        match self {
            RrClass::In => 1,
            RrClass::Other(code) => code,
        }
    }

    /// Maps a class code back to an `RrClass`.
    pub fn from_code(code: u16) -> Self {
        match code {
            1 => RrClass::In,
            other => RrClass::Other(other),
        }
    }
}

impl fmt::Display for RrClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RrClass::In => write!(f, "IN"),
            RrClass::Other(code) => write!(f, "CLASS{code}"),
        }
    }
}

/// An NSEC type bitmap (RFC 4034 §4.1.2): the set of RR types present at a
/// name, encoded as window blocks.
///
/// DLV's type code (32769) lives in window 128, so round-tripping it is a
/// useful correctness check that real NSEC code paths often get wrong.
///
/// # Example
///
/// ```
/// use lookaside_wire::{RrType, TypeBitmap};
///
/// let types = TypeBitmap::from_types([RrType::A, RrType::Dlv]);
/// assert!(types.contains(RrType::Dlv));
/// let mut wire = Vec::new();
/// types.encode(&mut wire);
/// assert_eq!(TypeBitmap::decode(&wire)?, types);
/// # Ok::<(), lookaside_wire::WireError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct TypeBitmap {
    types: Vec<u16>, // sorted, deduplicated type codes
}

impl TypeBitmap {
    /// Creates an empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a bitmap from an iterator of types.
    pub fn from_types<I: IntoIterator<Item = RrType>>(iter: I) -> Self {
        let mut types: Vec<u16> = iter.into_iter().map(RrType::code).collect();
        types.sort_unstable();
        types.dedup();
        TypeBitmap { types }
    }

    /// Inserts a type.
    pub fn insert(&mut self, rrtype: RrType) {
        let code = rrtype.code();
        if let Err(pos) = self.types.binary_search(&code) {
            self.types.insert(pos, code);
        }
    }

    /// Whether the bitmap contains `rrtype`.
    pub fn contains(&self, rrtype: RrType) -> bool {
        self.types.binary_search(&rrtype.code()).is_ok()
    }

    /// Iterates the contained types in code order.
    pub fn iter(&self) -> impl Iterator<Item = RrType> + '_ {
        self.types.iter().map(|&c| RrType::from_code(c))
    }

    /// Number of types in the bitmap.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Whether the bitmap is empty.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Encodes the window-block wire form, appending to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let mut idx = 0;
        while idx < self.types.len() {
            let window = (self.types[idx] >> 8) as u8;
            let mut bitmap = [0u8; 32];
            let mut max_octet = 0usize;
            while idx < self.types.len() && (self.types[idx] >> 8) as u8 == window {
                let low = (self.types[idx] & 0xff) as usize;
                bitmap[low / 8] |= 0x80 >> (low % 8);
                max_octet = max_octet.max(low / 8);
                idx += 1;
            }
            buf.push(window);
            buf.push((max_octet + 1) as u8);
            buf.extend_from_slice(&bitmap[..=max_octet]);
        }
    }

    /// Decodes a window-block wire form occupying exactly `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadTypeBitmap`] on truncated windows, zero or
    /// over-long window lengths, or out-of-order windows.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut types = Vec::new();
        let mut pos = 0;
        let mut last_window: i32 = -1;
        while pos < bytes.len() {
            if pos + 2 > bytes.len() {
                return Err(WireError::BadTypeBitmap("truncated window header"));
            }
            let window = bytes[pos];
            let len = bytes[pos + 1] as usize;
            pos += 2;
            if len == 0 || len > 32 {
                return Err(WireError::BadTypeBitmap("window length out of range"));
            }
            if (window as i32) <= last_window {
                return Err(WireError::BadTypeBitmap("windows out of order"));
            }
            last_window = window as i32;
            if pos + len > bytes.len() {
                return Err(WireError::BadTypeBitmap("truncated window body"));
            }
            for (octet, &b) in bytes[pos..pos + len].iter().enumerate() {
                for bit in 0..8 {
                    if b & (0x80 >> bit) != 0 {
                        types.push(((window as u16) << 8) | ((octet * 8 + bit) as u16));
                    }
                }
            }
            pos += len;
        }
        Ok(TypeBitmap { types })
    }
}

impl FromIterator<RrType> for TypeBitmap {
    fn from_iter<I: IntoIterator<Item = RrType>>(iter: I) -> Self {
        TypeBitmap::from_types(iter)
    }
}

impl Extend<RrType> for TypeBitmap {
    fn extend<I: IntoIterator<Item = RrType>>(&mut self, iter: I) {
        for t in iter {
            self.insert(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rrtype_code_round_trip() {
        for t in [
            RrType::A,
            RrType::Ns,
            RrType::Cname,
            RrType::Soa,
            RrType::Ptr,
            RrType::Mx,
            RrType::Txt,
            RrType::Aaaa,
            RrType::Opt,
            RrType::Ds,
            RrType::Rrsig,
            RrType::Nsec,
            RrType::Dnskey,
            RrType::Nsec3,
            RrType::Dlv,
            RrType::Unknown(999),
        ] {
            assert_eq!(RrType::from_code(t.code()), t);
        }
    }

    #[test]
    fn dlv_is_32769() {
        assert_eq!(RrType::Dlv.code(), 32769);
        assert_eq!(RrType::Dlv.to_string(), "DLV");
    }

    #[test]
    fn bitmap_insert_contains() {
        let mut bm = TypeBitmap::new();
        assert!(bm.is_empty());
        bm.insert(RrType::A);
        bm.insert(RrType::Rrsig);
        bm.insert(RrType::A); // idempotent
        assert_eq!(bm.len(), 2);
        assert!(bm.contains(RrType::A));
        assert!(!bm.contains(RrType::Ns));
    }

    #[test]
    fn bitmap_round_trip_with_dlv_window() {
        let bm = TypeBitmap::from_types([RrType::A, RrType::Nsec, RrType::Rrsig, RrType::Dlv]);
        let mut buf = Vec::new();
        bm.encode(&mut buf);
        let back = TypeBitmap::decode(&buf).unwrap();
        assert_eq!(back, bm);
        // DLV (32769) lives in window 128, bit 1.
        assert!(buf.contains(&128u8));
    }

    #[test]
    fn bitmap_decode_rejects_bad_window_len() {
        assert!(TypeBitmap::decode(&[0, 0]).is_err());
        assert!(TypeBitmap::decode(&[0, 33]).is_err());
        assert!(TypeBitmap::decode(&[0]).is_err());
        assert!(TypeBitmap::decode(&[0, 4, 0xff]).is_err());
    }

    #[test]
    fn bitmap_decode_rejects_out_of_order_windows() {
        let mut buf = Vec::new();
        TypeBitmap::from_types([RrType::Dlv]).encode(&mut buf); // window 128
        TypeBitmap::from_types([RrType::A]).encode(&mut buf); // window 0 after 128
        assert!(TypeBitmap::decode(&buf).is_err());
    }

    #[test]
    fn bitmap_iter_in_code_order() {
        let bm = TypeBitmap::from_types([RrType::Dlv, RrType::A, RrType::Ns]);
        let order: Vec<u16> = bm.iter().map(RrType::code).collect();
        assert_eq!(order, vec![1, 2, 32769]);
    }
}
