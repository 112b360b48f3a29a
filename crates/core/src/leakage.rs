//! The Case-1 / Case-2 leakage classifier (§3 of the paper).
//!
//! Like the paper's pipeline, classification runs over the *packet capture*
//! rather than resolver internals: a DLV query is Case 1 when the registry
//! answered `NOERROR` (a record was deposited — no worse than ordinary DNS
//! exposure) and Case 2 — a privacy leak — when it answered `NXDOMAIN`
//! ("No such name"), i.e. the registry observed a domain it holds nothing
//! for. §5.3 measures validation utility the same way.

use std::collections::BTreeSet;

use lookaside_netsim::{Capture, Direction};
use lookaside_wire::{Name, Rcode};

/// Classification of one run's DLV traffic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LeakageReport {
    /// DLV queries observed on the wire.
    pub dlv_queries: usize,
    /// DLV responses observed.
    pub dlv_responses: usize,
    /// Case 1: answered `NOERROR` — the registry held a record.
    pub case1: usize,
    /// Case 2: answered `NXDOMAIN` — pure leakage.
    pub case2: usize,
    /// Distinct leaked names (stripped of the registry suffix where
    /// possible; hashed-mode labels stay hashed).
    pub leaked_names: BTreeSet<Name>,
}

impl LeakageReport {
    /// Fraction of DLV queries that were leakage (the §5.3 "≈98.8 %").
    pub fn leak_fraction(&self) -> f64 {
        if self.dlv_responses == 0 {
            return 0.0;
        }
        self.case2 as f64 / self.dlv_responses as f64
    }

    /// Fraction of DLV queries the registry could actually serve.
    pub fn utility_fraction(&self) -> f64 {
        if self.dlv_responses == 0 {
            return 0.0;
        }
        self.case1 as f64 / self.dlv_responses as f64
    }

    /// Number of distinct leaked names.
    pub fn distinct_leaked(&self) -> usize {
        self.leaked_names.len()
    }

    /// Merges another shard's report into this one: counts add, leaked
    /// name sets union. Because [`classify`] examines each packet
    /// independently and `leaked_names` is an order-insensitive set,
    /// merging per-shard reports equals classifying the shards' merged
    /// capture — a property the engine determinism tests pin down.
    // lint:sink(determinism)
    pub fn merge(&mut self, other: &LeakageReport) {
        self.dlv_queries += other.dlv_queries;
        self.dlv_responses += other.dlv_responses;
        self.case1 += other.case1;
        self.case2 += other.case2;
        self.leaked_names.extend(other.leaked_names.iter().cloned());
    }
}

/// Classifies a capture's DLV traffic against the registry apex.
pub fn classify(capture: &Capture, dlv_apex: &Name) -> LeakageReport {
    let mut report = LeakageReport::default();
    for packet in capture.dlv_queries() {
        report.dlv_queries += 1;
        let _ = packet;
    }
    for packet in capture.dlv_responses() {
        debug_assert_eq!(packet.direction, Direction::Response);
        report.dlv_responses += 1;
        // Case 1 requires the registry to actually serve a DLV record.
        // An empty NOERROR (a NODATA at an empty non-terminal like
        // `com.dlv.isc.org`) exposed the name without any utility, so it
        // counts as leakage like an NXDOMAIN.
        match (packet.rcode, packet.answers) {
            (Rcode::NoError, answers) if answers > 0 => report.case1 += 1,
            (Rcode::NoError, _) | (Rcode::NxDomain, _) => {
                report.case2 += 1;
                let leaked = packet
                    .qname
                    .strip_suffix(dlv_apex)
                    .filter(|n| !n.is_root())
                    .unwrap_or_else(|| packet.qname.clone());
                report.leaked_names.insert(leaked);
            }
            _ => {}
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use lookaside_netsim::{CaptureFilter, Packet};
    use lookaside_wire::RrType;
    use std::net::Ipv4Addr;

    fn packet(qname: &str, direction: Direction, rcode: Rcode) -> Packet {
        Packet {
            time_ns: 0,
            dst: Ipv4Addr::new(10, 2, 0, 2),
            direction,
            qname: Name::parse(qname).unwrap(),
            qtype: RrType::Dlv,
            rcode,
            answers: u16::from(direction == Direction::Response && rcode == Rcode::NoError),
            size: 80,
        }
    }

    #[test]
    fn classify_splits_cases() {
        let apex = Name::parse("dlv.isc.org.").unwrap();
        let mut cap = Capture::new(CaptureFilter::DlvOnly);
        cap.record(packet("island.com.dlv.isc.org.", Direction::Query, Rcode::NoError));
        cap.record(packet("island.com.dlv.isc.org.", Direction::Response, Rcode::NoError));
        cap.record(packet("leaky.com.dlv.isc.org.", Direction::Query, Rcode::NoError));
        cap.record(packet("leaky.com.dlv.isc.org.", Direction::Response, Rcode::NxDomain));
        cap.record(packet("com.dlv.isc.org.", Direction::Query, Rcode::NoError));
        cap.record(packet("com.dlv.isc.org.", Direction::Response, Rcode::NxDomain));
        // An empty NOERROR (NODATA at an empty non-terminal) is also a leak.
        cap.record(packet("net.dlv.isc.org.", Direction::Query, Rcode::NoError));
        cap.record(Packet {
            answers: 0,
            ..packet("net.dlv.isc.org.", Direction::Response, Rcode::NoError)
        });

        let report = classify(&cap, &apex);
        assert_eq!(report.dlv_queries, 4);
        assert_eq!(report.case1, 1);
        assert_eq!(report.case2, 3);
        assert!((report.leak_fraction() - 3.0 / 4.0).abs() < 1e-9);
        assert!((report.utility_fraction() - 1.0 / 4.0).abs() < 1e-9);
        let leaked: Vec<String> = report.leaked_names.iter().map(|n| n.to_string()).collect();
        // Canonical order: names under com before net.
        assert_eq!(leaked, ["com.", "leaky.com.", "net."]);
    }

    #[test]
    fn merged_reports_equal_report_of_merged_capture() {
        let apex = Name::parse("dlv.isc.org.").unwrap();
        let mut shard0 = Capture::new(CaptureFilter::DlvOnly);
        shard0.record(packet("island.com.dlv.isc.org.", Direction::Query, Rcode::NoError));
        shard0.record(packet("island.com.dlv.isc.org.", Direction::Response, Rcode::NoError));
        shard0.record(packet("leaky.com.dlv.isc.org.", Direction::Query, Rcode::NoError));
        shard0.record(packet("leaky.com.dlv.isc.org.", Direction::Response, Rcode::NxDomain));
        let mut shard1 = Capture::new(CaptureFilter::DlvOnly);
        shard1.record(packet("other.net.dlv.isc.org.", Direction::Query, Rcode::NoError));
        shard1.record(packet("other.net.dlv.isc.org.", Direction::Response, Rcode::NxDomain));
        // Same leaked name observed by both shards: the set must dedup.
        shard1.record(packet("leaky.com.dlv.isc.org.", Direction::Query, Rcode::NoError));
        shard1.record(packet("leaky.com.dlv.isc.org.", Direction::Response, Rcode::NxDomain));

        let mut merged_reports = classify(&shard0, &apex);
        merged_reports.merge(&classify(&shard1, &apex));

        let mut merged_capture = Capture::new(CaptureFilter::DlvOnly);
        merged_capture.merge(&shard0);
        merged_capture.merge(&shard1);
        assert_eq!(merged_reports, classify(&merged_capture, &apex));
        assert_eq!(merged_reports.distinct_leaked(), 2);
        assert_eq!(merged_reports.case2, 3);
    }

    #[test]
    fn empty_capture_yields_zero_fractions() {
        let report =
            classify(&Capture::new(CaptureFilter::DlvOnly), &Name::parse("dlv.isc.org.").unwrap());
        assert_eq!(report.leak_fraction(), 0.0);
        assert_eq!(report.utility_fraction(), 0.0);
        assert_eq!(report.distinct_leaked(), 0);
    }
}
