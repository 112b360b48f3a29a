use std::fmt;

use crate::WireError;

/// DNS message opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Opcode {
    /// Standard query (0).
    #[default]
    Query,
    /// Any other opcode the simulator does not model.
    Other(u8),
}

impl Opcode {
    /// Numeric opcode.
    pub fn code(self) -> u8 {
        match self {
            Opcode::Query => 0,
            Opcode::Other(c) => c,
        }
    }

    /// Maps an opcode value back.
    pub fn from_code(code: u8) -> Self {
        match code {
            0 => Opcode::Query,
            other => Opcode::Other(other),
        }
    }
}

/// DNS response codes.
///
/// The DLV server only ever answers `NoError` ("the queried domain is
/// validated by DLV records deposited in the DLV server") or `NxDomain`
/// ("No such name"), which is exactly how §5.3 of the paper classifies
/// validation utility versus leakage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Rcode {
    /// No error (0).
    #[default]
    NoError,
    /// Format error (1).
    FormErr,
    /// Server failure (2) — what a validating resolver returns for bogus or
    /// indeterminate answers.
    ServFail,
    /// Non-existent domain (3).
    NxDomain,
    /// Not implemented (4).
    NotImp,
    /// Query refused (5).
    Refused,
    /// Any other rcode.
    Other(u8),
}

impl Rcode {
    /// Numeric rcode.
    pub fn code(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Other(c) => c,
        }
    }

    /// Maps an rcode value back.
    pub fn from_code(code: u8) -> Self {
        match code {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Other(other),
        }
    }
}

impl fmt::Display for Rcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rcode::NoError => write!(f, "NOERROR"),
            Rcode::FormErr => write!(f, "FORMERR"),
            Rcode::ServFail => write!(f, "SERVFAIL"),
            Rcode::NxDomain => write!(f, "NXDOMAIN"),
            Rcode::NotImp => write!(f, "NOTIMP"),
            Rcode::Refused => write!(f, "REFUSED"),
            Rcode::Other(c) => write!(f, "RCODE{c}"),
        }
    }
}

/// The flag bits of a DNS header.
///
/// Besides the classic RFC 1035 bits this models:
///
/// * `ad` / `cd` — the DNSSEC Authenticated Data and Checking Disabled bits
///   (RFC 4035 §3.2),
/// * `z` — the single remaining reserved bit. §6.2.1 of the paper proposes
///   using it ("Using Z Bit") in responses to signal that the zone has a DLV
///   record deposited, so the resolver knows whether a DLV query is useful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Flags {
    /// Query (false) or response (true).
    pub qr: bool,
    /// Operation code.
    pub opcode: Opcode,
    /// Authoritative answer.
    pub aa: bool,
    /// Truncation.
    pub tc: bool,
    /// Recursion desired.
    pub rd: bool,
    /// Recursion available.
    pub ra: bool,
    /// The reserved "Z" bit — the paper's proposed DLV-presence signal.
    pub z: bool,
    /// Authenticated data (set by a validating resolver on secure answers).
    pub ad: bool,
    /// Checking disabled (set by clients that do their own validation).
    pub cd: bool,
    /// Response code.
    pub rcode: Rcode,
}

impl Flags {
    /// Packs the flags into the 16-bit wire representation.
    pub fn to_u16(self) -> u16 {
        let mut v = 0u16;
        if self.qr {
            v |= 0x8000;
        }
        v |= ((self.opcode.code() & 0x0f) as u16) << 11;
        if self.aa {
            v |= 0x0400;
        }
        if self.tc {
            v |= 0x0200;
        }
        if self.rd {
            v |= 0x0100;
        }
        if self.ra {
            v |= 0x0080;
        }
        if self.z {
            v |= 0x0040;
        }
        if self.ad {
            v |= 0x0020;
        }
        if self.cd {
            v |= 0x0010;
        }
        v |= (self.rcode.code() & 0x0f) as u16;
        v
    }

    /// Unpacks the 16-bit wire representation.
    pub fn from_u16(v: u16) -> Self {
        Flags {
            qr: v & 0x8000 != 0,
            opcode: Opcode::from_code(((v >> 11) & 0x0f) as u8),
            aa: v & 0x0400 != 0,
            tc: v & 0x0200 != 0,
            rd: v & 0x0100 != 0,
            ra: v & 0x0080 != 0,
            z: v & 0x0040 != 0,
            ad: v & 0x0020 != 0,
            cd: v & 0x0010 != 0,
            rcode: Rcode::from_code((v & 0x0f) as u8),
        }
    }
}

/// A DNS message header (RFC 1035 §4.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Header {
    /// Transaction identifier.
    pub id: u16,
    /// Flag bits.
    pub flags: Flags,
    /// Question count.
    pub qdcount: u16,
    /// Answer count.
    pub ancount: u16,
    /// Authority count.
    pub nscount: u16,
    /// Additional count.
    pub arcount: u16,
}

impl Header {
    /// Wire size of a header, always 12 octets.
    pub const WIRE_LEN: usize = 12;

    /// Encodes the header, appending to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.id.to_be_bytes());
        buf.extend_from_slice(&self.flags.to_u16().to_be_bytes());
        buf.extend_from_slice(&self.qdcount.to_be_bytes());
        buf.extend_from_slice(&self.ancount.to_be_bytes());
        buf.extend_from_slice(&self.nscount.to_be_bytes());
        buf.extend_from_slice(&self.arcount.to_be_bytes());
    }

    /// Decodes a header from the front of `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if fewer than 12 octets are present.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let [i0, i1, f0, f1, q0, q1, a0, a1, n0, n1, r0, r1, ..] = *bytes else {
            return Err(WireError::Truncated { context: "header" });
        };
        Ok(Header {
            id: u16::from_be_bytes([i0, i1]),
            flags: Flags::from_u16(u16::from_be_bytes([f0, f1])),
            qdcount: u16::from_be_bytes([q0, q1]),
            ancount: u16::from_be_bytes([a0, a1]),
            nscount: u16::from_be_bytes([n0, n1]),
            arcount: u16::from_be_bytes([r0, r1]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_round_trip_every_bit() {
        for bit in 0..10 {
            let mut f = Flags::default();
            match bit {
                0 => f.qr = true,
                1 => f.aa = true,
                2 => f.tc = true,
                3 => f.rd = true,
                4 => f.ra = true,
                5 => f.z = true,
                6 => f.ad = true,
                7 => f.cd = true,
                8 => f.rcode = Rcode::NxDomain,
                _ => f.opcode = Opcode::Other(2),
            }
            assert_eq!(Flags::from_u16(f.to_u16()), f, "bit {bit}");
        }
    }

    #[test]
    fn z_bit_is_0x40() {
        let f = Flags { z: true, ..Flags::default() };
        assert_eq!(f.to_u16(), 0x0040);
    }

    #[test]
    fn header_round_trip() {
        let h = Header {
            id: 0xbeef,
            flags: Flags { qr: true, ra: true, ad: true, ..Flags::default() },
            qdcount: 1,
            ancount: 2,
            nscount: 3,
            arcount: 4,
        };
        let mut buf = Vec::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), Header::WIRE_LEN);
        assert_eq!(Header::decode(&buf).unwrap(), h);
    }

    #[test]
    fn header_decode_truncated() {
        assert!(matches!(Header::decode(&[0; 11]), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn rcode_display() {
        assert_eq!(Rcode::NxDomain.to_string(), "NXDOMAIN");
        assert_eq!(Rcode::NoError.to_string(), "NOERROR");
    }
}
