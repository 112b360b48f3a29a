use std::fmt;

use crate::codec::{Reader, Writer};
use crate::{Flags, Header, Name, Rcode, Record, RrClass, RrType, WireError};

/// The question section entry of a query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    /// Queried name.
    pub name: Name,
    /// Queried type.
    pub rrtype: RrType,
    /// Queried class.
    pub class: RrClass,
}

/// Identifies one of the three record sections of a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Section {
    /// Answer section.
    Answer,
    /// Authority section.
    Authority,
    /// Additional section.
    Additional,
}

/// EDNS(0) parameters, modelled at the message level.
///
/// On the wire this is the OPT pseudo-record (RFC 6891). The `DO` bit is how
/// a security-aware resolver signals DNSSEC capability (§2.2 of the paper);
/// `padding` models the RFC 7830 EDNS padding option discussed under related
/// work for hiding query sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edns {
    /// Advertised UDP payload size.
    pub udp_size: u16,
    /// The DNSSEC OK bit.
    pub do_bit: bool,
    /// Octets of RFC 7830 padding to include.
    pub padding: u16,
}

impl Default for Edns {
    fn default() -> Self {
        Edns { udp_size: 4096, do_bit: false, padding: 0 }
    }
}

impl Edns {
    /// An EDNS block with the `DO` bit set, as sent by validating resolvers.
    pub fn dnssec_ok() -> Self {
        Edns { do_bit: true, ..Edns::default() }
    }
}

/// A complete DNS message.
///
/// # Example
///
/// ```
/// use lookaside_wire::{Message, Name, Rcode, RrType};
///
/// let query = Message::query(7, Name::parse("example.com.")?, RrType::Dlv);
/// let mut response = query.response();
/// response.header.flags.rcode = Rcode::NxDomain;
/// assert!(response.is_nxdomain());
/// # Ok::<(), lookaside_wire::WireError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Header (counts are recomputed on encode).
    pub header: Header,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section.
    pub authorities: Vec<Record>,
    /// Additional section (excluding the OPT pseudo-record).
    pub additionals: Vec<Record>,
    /// EDNS(0) parameters, if present.
    pub edns: Option<Edns>,
}

impl Message {
    /// Builds a recursive-desired query for `name`/`rrtype`.
    pub fn query(id: u16, name: Name, rrtype: RrType) -> Self {
        Message {
            header: Header {
                id,
                flags: Flags { rd: true, ..Flags::default() },
                ..Header::default()
            },
            questions: vec![Question { name, rrtype, class: RrClass::In }],
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
            edns: None,
        }
    }

    /// Builds a query with the EDNS `DO` bit set, as a security-aware
    /// resolver sends.
    pub fn dnssec_query(id: u16, name: Name, rrtype: RrType) -> Self {
        let mut m = Message::query(id, name, rrtype);
        m.edns = Some(Edns::dnssec_ok());
        m
    }

    /// Creates an empty response skeleton for this query: same id and
    /// question, `qr` set, `rd` copied.
    pub fn response(&self) -> Message {
        Message {
            header: Header {
                id: self.header.id,
                flags: Flags {
                    qr: true,
                    rd: self.header.flags.rd,
                    cd: self.header.flags.cd,
                    ..Flags::default()
                },
                ..Header::default()
            },
            questions: self.questions.clone(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
            edns: self.edns.map(|e| Edns { padding: 0, ..e }),
        }
    }

    /// The first (and in this study, only) question.
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// Whether the query/response advertises DNSSEC capability.
    pub fn do_bit(&self) -> bool {
        self.edns.is_some_and(|e| e.do_bit)
    }

    /// The response code.
    pub fn rcode(&self) -> Rcode {
        self.header.flags.rcode
    }

    /// Whether this is an NXDOMAIN ("No such name") response.
    pub fn is_nxdomain(&self) -> bool {
        self.rcode() == Rcode::NxDomain
    }

    /// All answer records of the given type.
    pub fn answers_of(&self, rrtype: RrType) -> impl Iterator<Item = &Record> {
        self.answers.iter().filter(move |r| r.rrtype == rrtype)
    }

    /// All authority records of the given type.
    pub fn authorities_of(&self, rrtype: RrType) -> impl Iterator<Item = &Record> {
        self.authorities.iter().filter(move |r| r.rrtype == rrtype)
    }

    /// All additional records of the given type.
    pub fn additionals_of(&self, rrtype: RrType) -> impl Iterator<Item = &Record> {
        self.additionals.iter().filter(move |r| r.rrtype == rrtype)
    }

    /// Appends a record to `section`.
    pub fn push(&mut self, section: Section, record: Record) {
        match section {
            Section::Answer => self.answers.push(record),
            Section::Authority => self.authorities.push(record),
            Section::Additional => self.additionals.push(record),
        }
    }

    /// Encodes to wire bytes, recomputing section counts and materialising
    /// the OPT record.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.render_with(&mut w);
        w.into_bytes()
    }

    /// Encodes into an existing [`Writer`] (call [`Writer::reset`] first to
    /// reuse one) — the allocation-free rendering path behind
    /// [`crate::RenderArena`]. Produces exactly the bytes of
    /// [`Message::to_bytes`].
    // lint:entry(hot-path)
    pub fn render_with(&self, w: &mut Writer) {
        let mut header = self.header;
        header.qdcount = self.questions.len() as u16;
        header.ancount = self.answers.len() as u16;
        header.nscount = self.authorities.len() as u16;
        header.arcount = (self.additionals.len() + usize::from(self.edns.is_some())) as u16;

        // The header is six big-endian u16 fields (RFC 1035 §4.1.1),
        // written directly so rendering borrows no scratch buffer.
        w.write_u16(header.id);
        w.write_u16(header.flags.to_u16());
        w.write_u16(header.qdcount);
        w.write_u16(header.ancount);
        w.write_u16(header.nscount);
        w.write_u16(header.arcount);

        for q in &self.questions {
            w.write_name(&q.name);
            w.write_u16(q.rrtype.code());
            w.write_u16(q.class.code());
        }
        for rec in self.answers.iter().chain(&self.authorities).chain(&self.additionals) {
            rec.encode(w);
        }
        if let Some(edns) = self.edns {
            // OPT pseudo-record: root owner, type 41, class = udp size,
            // ttl = extended rcode/flags with DO at bit 15 of the low half.
            w.write_u8(0); // root name
            w.write_u16(RrType::Opt.code());
            w.write_u16(edns.udp_size);
            let ttl: u32 = if edns.do_bit { 0x0000_8000 } else { 0 };
            w.write_u32(ttl);
            if edns.padding > 0 {
                // One option: code 12 (padding), given length of zeros.
                w.write_u16(4 + edns.padding);
                w.write_u16(12);
                w.write_u16(edns.padding);
                w.write_bytes(&vec![0u8; edns.padding as usize]);
            } else {
                w.write_u16(0);
            }
        }
    }

    /// Size of the encoded message in octets.
    ///
    /// Allocates a fresh buffer per call; hot paths that size many
    /// messages should prefer [`crate::RenderArena::measure`], which
    /// reuses one.
    pub fn wire_len(&self) -> usize {
        self.to_bytes().len()
    }

    /// Decodes a message from wire bytes.
    ///
    /// # Errors
    ///
    /// Fails on any truncation, malformed name, or malformed RDATA.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.len() > u16::MAX as usize {
            return Err(WireError::MessageTooLong(bytes.len()));
        }
        let header = Header::decode(bytes)?;
        let mut r = Reader::new(bytes);
        r.seek(Header::WIRE_LEN)?;

        let mut questions = Vec::with_capacity(header.qdcount as usize);
        for found in 0..header.qdcount {
            if r.remaining() == 0 {
                // The header promised more questions than the body holds:
                // diagnose the count mismatch rather than a bare
                // truncation, so corrupted-count datagrams classify
                // distinctly (RFC 1035 §4.1.1 counts are untrusted input).
                return Err(WireError::CountMismatch {
                    section: "question",
                    declared: header.qdcount,
                    found,
                });
            }
            let name = r.read_name()?;
            let rrtype = RrType::from_code(r.read_u16("question type")?);
            let class = RrClass::from_code(r.read_u16("question class")?);
            questions.push(Question { name, rrtype, class });
        }

        let read_section = |section: &'static str,
                            count: u16,
                            r: &mut Reader<'_>|
         -> Result<Vec<Record>, WireError> {
            let mut records = Vec::with_capacity(count as usize);
            for found in 0..count {
                if r.remaining() == 0 {
                    return Err(WireError::CountMismatch { section, declared: count, found });
                }
                records.push(Record::decode(r)?);
            }
            Ok(records)
        };
        let answers = read_section("answer", header.ancount, &mut r)?;
        let authorities = read_section("authority", header.nscount, &mut r)?;
        let raw_additionals = read_section("additional", header.arcount, &mut r)?;

        let mut additionals = Vec::with_capacity(raw_additionals.len());
        let mut edns = None;
        for rec in raw_additionals {
            if rec.rrtype == RrType::Opt {
                let udp_size = rec.class.code();
                let do_bit = rec.ttl & 0x0000_8000 != 0;
                let padding = match &rec.rdata {
                    crate::RData::Unknown(bytes) => match bytes.as_slice() {
                        [c0, c1, l0, l1, ..] => {
                            let code = u16::from_be_bytes([*c0, *c1]);
                            let len = u16::from_be_bytes([*l0, *l1]);
                            if code == 12 {
                                len
                            } else {
                                0
                            }
                        }
                        _ => 0,
                    },
                    _ => 0,
                };
                edns = Some(Edns { udp_size, do_bit, padding });
            } else {
                additionals.push(rec);
            }
        }

        Ok(Message { header, questions, answers, authorities, additionals, edns })
    }
}

/// A fluent builder for responses, used by the simulated servers.
///
/// # Example
///
/// ```
/// use lookaside_wire::{Message, MessageBuilder, Name, RData, Rcode, RrType, Record};
///
/// let query = Message::query(9, Name::parse("example.com.")?, RrType::A);
/// let resp = MessageBuilder::respond_to(&query)
///     .authoritative(true)
///     .answer(Record::new(
///         Name::parse("example.com.")?,
///         300,
///         RData::A("192.0.2.1".parse().unwrap()),
///     ))
///     .build();
/// assert_eq!(resp.rcode(), Rcode::NoError);
/// assert_eq!(resp.answers.len(), 1);
/// # Ok::<(), lookaside_wire::WireError>(())
/// ```
#[derive(Debug)]
pub struct MessageBuilder {
    message: Message,
}

impl MessageBuilder {
    /// Starts a response to `query`.
    pub fn respond_to(query: &Message) -> Self {
        MessageBuilder { message: query.response() }
    }

    /// Sets the response code.
    pub fn rcode(mut self, rcode: Rcode) -> Self {
        self.message.header.flags.rcode = rcode;
        self
    }

    /// Sets the authoritative-answer bit.
    pub fn authoritative(mut self, aa: bool) -> Self {
        self.message.header.flags.aa = aa;
        self
    }

    /// Sets the recursion-available bit.
    pub fn recursion_available(mut self, ra: bool) -> Self {
        self.message.header.flags.ra = ra;
        self
    }

    /// Sets the authenticated-data bit.
    pub fn authenticated(mut self, ad: bool) -> Self {
        self.message.header.flags.ad = ad;
        self
    }

    /// Sets the reserved Z bit (the paper's §6.2.1 remedy signal).
    pub fn z_bit(mut self, z: bool) -> Self {
        self.message.header.flags.z = z;
        self
    }

    /// Appends an answer record.
    pub fn answer(mut self, record: Record) -> Self {
        self.message.answers.push(record);
        self
    }

    /// Appends several answer records.
    pub fn answers<I: IntoIterator<Item = Record>>(mut self, records: I) -> Self {
        self.message.answers.extend(records);
        self
    }

    /// Appends an authority record.
    pub fn authority(mut self, record: Record) -> Self {
        self.message.authorities.push(record);
        self
    }

    /// Appends several authority records.
    pub fn authorities<I: IntoIterator<Item = Record>>(mut self, records: I) -> Self {
        self.message.authorities.extend(records);
        self
    }

    /// Appends an additional record.
    pub fn additional(mut self, record: Record) -> Self {
        self.message.additionals.push(record);
        self
    }

    /// Finishes the response.
    pub fn build(self) -> Message {
        self.message
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = if self.header.flags.qr { "response" } else { "query" };
        write!(f, "{} id={} {}", kind, self.header.id, self.rcode())?;
        if let Some(q) = self.question() {
            write!(f, " {} {}", q.name, q.rrtype)?;
        }
        write!(
            f,
            " [{} ans, {} auth, {} add]",
            self.answers.len(),
            self.authorities.len(),
            self.additionals.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RData;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn query_round_trip() {
        let q = Message::query(42, n("example.com"), RrType::A);
        let back = Message::from_bytes(&q.to_bytes()).unwrap();
        assert_eq!(back.header.id, 42);
        assert_eq!(back.question().unwrap().name, n("example.com"));
        assert_eq!(back.question().unwrap().rrtype, RrType::A);
        assert!(back.header.flags.rd);
        assert!(back.edns.is_none());
    }

    #[test]
    fn dnssec_query_carries_do_bit() {
        let q = Message::dnssec_query(1, n("example.com"), RrType::A);
        assert!(q.do_bit());
        let back = Message::from_bytes(&q.to_bytes()).unwrap();
        assert!(back.do_bit());
        assert_eq!(back.edns.unwrap().udp_size, 4096);
    }

    #[test]
    fn dlv_query_round_trips_type_code() {
        let q = Message::dnssec_query(2, n("example.com.dlv.isc.org"), RrType::Dlv);
        let back = Message::from_bytes(&q.to_bytes()).unwrap();
        assert_eq!(back.question().unwrap().rrtype, RrType::Dlv);
        assert_eq!(back.question().unwrap().rrtype.code(), 32769);
    }

    #[test]
    fn full_response_round_trip() {
        let q = Message::dnssec_query(3, n("www.example.com"), RrType::A);
        let resp = MessageBuilder::respond_to(&q)
            .authoritative(true)
            .authenticated(true)
            .answer(Record::new(n("www.example.com"), 300, RData::A(Ipv4Addr::new(192, 0, 2, 8))))
            .authority(Record::new(n("example.com"), 3600, RData::Ns(n("ns1.example.com"))))
            .additional(Record::new(
                n("ns1.example.com"),
                3600,
                RData::A(Ipv4Addr::new(192, 0, 2, 53)),
            ))
            .build();
        let bytes = resp.to_bytes();
        let back = Message::from_bytes(&bytes).unwrap();
        assert_eq!(
            back,
            Message {
                header: Header { qdcount: 1, ancount: 1, nscount: 1, arcount: 2, ..back.header },
                ..resp
            }
        );
        assert!(back.header.flags.aa);
        assert!(back.header.flags.ad);
        assert_eq!(back.answers.len(), 1);
        assert_eq!(back.authorities.len(), 1);
        assert_eq!(back.additionals.len(), 1);
    }

    #[test]
    fn z_bit_survives_round_trip() {
        let q = Message::query(4, n("example.com"), RrType::A);
        let resp = MessageBuilder::respond_to(&q).z_bit(true).build();
        let back = Message::from_bytes(&resp.to_bytes()).unwrap();
        assert!(back.header.flags.z);
    }

    #[test]
    fn padding_inflates_wire_size() {
        let mut q = Message::query(5, n("example.com"), RrType::A);
        q.edns = Some(Edns { udp_size: 4096, do_bit: false, padding: 0 });
        let plain = q.wire_len();
        q.edns = Some(Edns { udp_size: 4096, do_bit: false, padding: 64 });
        let padded = q.wire_len();
        assert_eq!(padded, plain + 64 + 4);
        let back = Message::from_bytes(&q.to_bytes()).unwrap();
        assert_eq!(back.edns.unwrap().padding, 64);
    }

    #[test]
    fn compression_shrinks_messages() {
        let q = Message::query(6, n("www.example.com"), RrType::A);
        let mut resp = MessageBuilder::respond_to(&q)
            .answer(Record::new(n("www.example.com"), 300, RData::A(Ipv4Addr::new(192, 0, 2, 1))))
            .build();
        let compressed = resp.wire_len();
        // Rough check: the repeated owner name costs 2 (pointer) not 17.
        resp.answers[0].name = n("xxx.example.net");
        let less_compressed = resp.wire_len();
        assert!(compressed < less_compressed);
    }

    #[test]
    fn response_copies_question_and_id() {
        let q = Message::query(77, n("a.b"), RrType::Mx);
        let r = q.response();
        assert_eq!(r.header.id, 77);
        assert!(r.header.flags.qr);
        assert_eq!(r.question(), q.question());
    }

    #[test]
    fn decode_garbage_is_error_not_panic() {
        for len in 0..32 {
            let junk = vec![0xffu8; len];
            let _ = Message::from_bytes(&junk); // must not panic
        }
        assert!(Message::from_bytes(&[0xff; 11]).is_err());
    }

    #[test]
    fn inflated_section_count_is_a_count_mismatch() {
        let query = Message::query(7, Name::parse("example.com.").unwrap(), RrType::A);
        let mut bytes = query.to_bytes();
        // Claim 3 answers; the body holds none.
        bytes[6] = 0;
        bytes[7] = 3;
        match Message::from_bytes(&bytes) {
            Err(WireError::CountMismatch { section, declared, found }) => {
                assert_eq!(section, "answer");
                assert_eq!(declared, 3);
                assert_eq!(found, 0);
            }
            other => panic!("expected CountMismatch, got {other:?}"),
        }
        // An inflated question count classifies the same way.
        let mut bytes = query.to_bytes();
        bytes[4] = 0;
        bytes[5] = 9;
        assert!(matches!(
            Message::from_bytes(&bytes),
            Err(WireError::CountMismatch { section: "question", .. })
        ));
    }
}
