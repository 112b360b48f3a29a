//! Packet capture — the simulator's "tcpdump".
//!
//! The paper's analysis pipeline is: run the resolver, capture packets,
//! filter DLV traffic by query type (32769), classify each DLV query as
//! Case 1 (record deposited) or Case 2 (leak). To mirror that, leakage
//! classification in `lookaside` runs over this capture, never over
//! resolver-internal bookkeeping.

use std::net::Ipv4Addr;

use lookaside_wire::{Name, NameTable, Rcode, RrType};

/// Direction of a captured packet relative to the resolver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Resolver → server.
    Query,
    /// Server → resolver.
    Response,
}

/// One captured packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Simulated capture time, nanoseconds.
    pub time_ns: u64,
    /// Destination server address.
    pub dst: Ipv4Addr,
    /// Direction.
    pub direction: Direction,
    /// Question name.
    pub qname: Name,
    /// Question type.
    pub qtype: RrType,
    /// Response code (queries carry `NoError`).
    pub rcode: Rcode,
    /// Number of answer records (0 for queries and negative responses).
    pub answers: u16,
    /// Wire size in octets.
    pub size: usize,
}

/// What the capture retains. Full captures of million-domain runs would
/// dominate memory, so experiments that only analyse DLV traffic restrict
/// the filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CaptureFilter {
    /// Keep every packet.
    All,
    /// Keep only DLV-type packets (query type 32769) — enough for the
    /// Case-1/Case-2 leakage analysis.
    #[default]
    DlvOnly,
    /// Keep nothing (aggregate stats still accumulate).
    None,
}

impl CaptureFilter {
    /// Whether a packet of this query type would be retained.
    ///
    /// Public so packet sinks apply exactly the retention rule the capture
    /// applies: the check that a sink's fold equals classifying the
    /// capture of the same run hinges on this predicate being shared, not
    /// re-derived.
    pub fn keeps(self, qtype: RrType) -> bool {
        match self {
            CaptureFilter::All => true,
            CaptureFilter::DlvOnly => qtype == RrType::Dlv,
            CaptureFilter::None => false,
        }
    }
}

/// An in-memory packet log with a retention filter.
///
/// Each capture owns a private [`NameTable`]: retained packets of the same
/// qname share one name allocation instead of one per packet. The table is
/// per-capture (= per shard in parallel runs), never global, so shards
/// share no state and merge order alone decides the combined log.
#[derive(Debug, Clone, Default)]
pub struct Capture {
    filter: CaptureFilter,
    packets: Vec<Packet>,
    names: NameTable,
}

impl Capture {
    /// Creates a capture with the given filter.
    pub fn new(filter: CaptureFilter) -> Self {
        Capture { filter, packets: Vec::new(), names: NameTable::new() }
    }

    /// Records a packet if the filter keeps it.
    pub fn record(&mut self, mut packet: Packet) {
        if self.filter.keeps(packet.qtype) {
            packet.qname = self.names.intern(&packet.qname);
            self.packets.push(packet);
        }
    }

    /// All retained packets, in capture order.
    pub fn packets(&self) -> &[Packet] {
        &self.packets
    }

    /// Retained packets matching a query type.
    pub fn of_type(&self, qtype: RrType) -> impl Iterator<Item = &Packet> {
        self.packets.iter().filter(move |p| p.qtype == qtype)
    }

    /// DLV queries (not responses) in the capture — the quantity Figs. 8–9
    /// count.
    pub fn dlv_queries(&self) -> impl Iterator<Item = &Packet> {
        self.packets.iter().filter(|p| p.qtype == RrType::Dlv && p.direction == Direction::Query)
    }

    /// DLV responses, used to measure validation utility (§5.3): `NoError`
    /// means the DLV server had a record, `NxDomain` means the query was a
    /// pure leak.
    pub fn dlv_responses(&self) -> impl Iterator<Item = &Packet> {
        self.packets.iter().filter(|p| p.qtype == RrType::Dlv && p.direction == Direction::Response)
    }

    /// Appends another capture's packets to this one, preserving each
    /// capture's internal order — the simulator's "mergecap".
    ///
    /// Ordering contract: shard reductions call this in ascending shard
    /// id, so the merged log is totally ordered by `(shard_id, seq)` —
    /// packets from shard *k* all precede packets from shard *k+1*, and
    /// within a shard capture order (the shard's virtual-time order) is
    /// kept. Each shard runs its own virtual clock from zero, so
    /// timestamps are **not** globally monotone after a merge; analyses
    /// that classify per-name (leakage Case 1/Case 2) are insensitive to
    /// this, exactly as the paper's offline pcap analysis is insensitive
    /// to which measurement box captured a packet first.
    ///
    /// `other`'s packets were already filtered by its own filter at
    /// record time; they are appended verbatim, not re-filtered.
    // lint:sink(determinism)
    pub fn merge(&mut self, other: &Capture) {
        for p in &other.packets {
            let mut p = p.clone();
            p.qname = self.names.intern(&p.qname);
            self.packets.push(p);
        }
    }

    /// Clears retained packets and the intern table (filter unchanged).
    pub fn clear(&mut self) {
        self.packets.clear();
        self.names.clear();
    }

    /// Number of retained packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Whether nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Serialises the capture to a line-oriented text form (one packet per
    /// tab-separated line) — the study's equivalent of writing out a pcap.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for p in &self.packets {
            let dir = match p.direction {
                Direction::Query => "Q",
                Direction::Response => "R",
            };
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                p.time_ns,
                p.dst,
                dir,
                p.qname,
                p.qtype.code(),
                p.rcode.code(),
                p.answers,
                p.size
            ));
        }
        out
    }

    /// Like [`Capture::to_text`], with trailing `#`-prefixed comment lines
    /// summarising the run's loss-and-timeout counters — what a capture
    /// tool prints after the packet log ("N packets dropped by kernel").
    pub fn to_text_with_stats(&self, stats: &crate::TrafficStats) -> String {
        let mut out = self.to_text();
        out.push_str(&format!(
            "# timeouts={} retransmissions={} duplicates={}\n",
            stats.timeouts, stats.retransmissions, stats.duplicates
        ));
        out
    }

    /// Parses a capture previously written by [`Capture::to_text`] or
    /// [`Capture::to_text_with_stats`] (comment lines starting with `#` are
    /// skipped). The resulting capture keeps everything (filter `All`).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse_text(text: &str) -> Result<Self, String> {
        let mut capture = Capture::new(CaptureFilter::All);
        for (idx, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            if fields.len() != 8 {
                return Err(format!("line {}: expected 8 fields, got {}", idx + 1, fields.len()));
            }
            let err = |what: &str| format!("line {}: bad {what}", idx + 1);
            let packet = Packet {
                time_ns: fields[0].parse().map_err(|_| err("time"))?,
                dst: fields[1].parse().map_err(|_| err("address"))?,
                direction: match fields[2] {
                    "Q" => Direction::Query,
                    "R" => Direction::Response,
                    _ => return Err(err("direction")),
                },
                qname: Name::parse(fields[3]).map_err(|_| err("name"))?,
                qtype: RrType::from_code(fields[4].parse().map_err(|_| err("type"))?),
                rcode: Rcode::from_code(fields[5].parse().map_err(|_| err("rcode"))?),
                answers: fields[6].parse().map_err(|_| err("answer count"))?,
                size: fields[7].parse().map_err(|_| err("size"))?,
            };
            capture.record(packet);
        }
        Ok(capture)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(qtype: RrType, direction: Direction, rcode: Rcode) -> Packet {
        Packet {
            time_ns: 0,
            dst: Ipv4Addr::new(192, 0, 2, 1),
            direction,
            qname: Name::parse("example.com.").unwrap(),
            qtype,
            rcode,
            answers: 0,
            size: 64,
        }
    }

    #[test]
    fn dlv_only_filter_drops_other_types() {
        let mut cap = Capture::new(CaptureFilter::DlvOnly);
        cap.record(packet(RrType::A, Direction::Query, Rcode::NoError));
        cap.record(packet(RrType::Dlv, Direction::Query, Rcode::NoError));
        assert_eq!(cap.len(), 1);
        assert_eq!(cap.dlv_queries().count(), 1);
    }

    #[test]
    fn all_filter_keeps_everything() {
        let mut cap = Capture::new(CaptureFilter::All);
        cap.record(packet(RrType::A, Direction::Query, Rcode::NoError));
        cap.record(packet(RrType::Ds, Direction::Response, Rcode::NoError));
        assert_eq!(cap.len(), 2);
        assert_eq!(cap.of_type(RrType::Ds).count(), 1);
    }

    #[test]
    fn none_filter_keeps_nothing() {
        let mut cap = Capture::new(CaptureFilter::None);
        cap.record(packet(RrType::Dlv, Direction::Query, Rcode::NoError));
        assert!(cap.is_empty());
    }

    #[test]
    fn dlv_queries_and_responses_separated() {
        let mut cap = Capture::new(CaptureFilter::DlvOnly);
        cap.record(packet(RrType::Dlv, Direction::Query, Rcode::NoError));
        cap.record(packet(RrType::Dlv, Direction::Response, Rcode::NxDomain));
        assert_eq!(cap.dlv_queries().count(), 1);
        assert_eq!(cap.dlv_responses().count(), 1);
        assert_eq!(cap.dlv_responses().next().unwrap().rcode, Rcode::NxDomain);
    }

    #[test]
    fn text_round_trip() {
        let mut cap = Capture::new(CaptureFilter::All);
        cap.record(packet(RrType::A, Direction::Query, Rcode::NoError));
        cap.record(packet(RrType::Dlv, Direction::Response, Rcode::NxDomain));
        let text = cap.to_text();
        let back = Capture::parse_text(&text).unwrap();
        assert_eq!(back.packets(), cap.packets());
    }

    #[test]
    fn parse_text_rejects_malformed_lines() {
        assert!(Capture::parse_text("not a capture").is_err());
        assert!(Capture::parse_text("1\t192.0.2.1\tX\ta.\t1\t0\t0\t10\n").is_err());
        let err = Capture::parse_text("1\t192.0.2.1\tQ\ta.\t1\t0\t0\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(Capture::parse_text("").unwrap().is_empty());
    }

    #[test]
    fn text_with_stats_round_trips_and_reports_counters() {
        let mut cap = Capture::new(CaptureFilter::All);
        cap.record(packet(RrType::Dlv, Direction::Query, Rcode::NoError));
        let mut stats = crate::TrafficStats::new();
        stats.record_timeout(RrType::Dlv, 40, 5_000_000_000);
        stats.retransmissions = 2;
        let text = cap.to_text_with_stats(&stats);
        assert!(text.contains("# timeouts=1 retransmissions=2 duplicates=0"));
        let back = Capture::parse_text(&text).unwrap();
        assert_eq!(back.packets(), cap.packets());
    }

    #[test]
    fn merge_appends_in_shard_order() {
        let mut shard0 = Capture::new(CaptureFilter::All);
        shard0.record(packet(RrType::Dlv, Direction::Query, Rcode::NoError));
        shard0.record(packet(RrType::Dlv, Direction::Response, Rcode::NoError));
        let mut shard1 = Capture::new(CaptureFilter::DlvOnly);
        shard1.record(packet(RrType::A, Direction::Query, Rcode::NoError)); // dropped at record
        shard1.record(packet(RrType::Dlv, Direction::Query, Rcode::NxDomain));
        let mut merged = Capture::new(CaptureFilter::All);
        merged.merge(&shard0);
        merged.merge(&shard1);
        assert_eq!(merged.len(), 3);
        // Shard 0's packets precede shard 1's; order within a shard kept.
        assert_eq!(merged.packets()[0], shard0.packets()[0]);
        assert_eq!(merged.packets()[1], shard0.packets()[1]);
        assert_eq!(merged.packets()[2], shard1.packets()[0]);
    }

    #[test]
    fn clear_resets() {
        let mut cap = Capture::new(CaptureFilter::All);
        cap.record(packet(RrType::A, Direction::Query, Rcode::NoError));
        cap.clear();
        assert!(cap.is_empty());
    }
}
