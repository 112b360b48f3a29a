//! Protocol extensions proposed by the paper (§6.2) as remedies for DLV
//! privacy leakage.
//!
//! Three remedies are modelled:
//!
//! * **TXT signaling** — the authoritative server publishes a TXT record
//!   containing [`TXT_SIGNAL_PRESENT`] (`dlv=1`) or [`TXT_SIGNAL_ABSENT`]
//!   (`dlv=0`); the resolver queries it before deciding whether a DLV lookup
//!   can be useful.
//! * **Z-bit signaling** — the authoritative server sets the spare header
//!   Z bit in its responses when a DLV record is deposited; no extra queries
//!   are needed, which is why Fig. 11 shows near-zero overhead.
//! * **Hashed (privacy-preserving) DLV** — the resolver queries
//!   `crypto_hash(domain).dlv-zone` instead of `domain.dlv-zone`, so a DLV
//!   server that holds no record for the domain learns only a digest.
//!
//! This module defines the mode switch and the TXT payload grammar; the
//! behavioural halves live in `lookaside-server` and `lookaside-resolver`.

/// TXT payload advertising a deposited DLV record.
pub const TXT_SIGNAL_PRESENT: &str = "dlv=1";
/// TXT payload advertising that no DLV record is deposited.
pub const TXT_SIGNAL_ABSENT: &str = "dlv=0";

/// Which of the paper's §6.2 remedies is active in an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RemedyMode {
    /// Standard DLV behaviour: no signaling, the resolver may leak (the
    /// paper's measured baseline).
    #[default]
    None,
    /// DLV-aware DNS via TXT records (§6.2.1, "Using TXT Record").
    TxtSignal,
    /// DLV-aware DNS via the spare header Z bit (§6.2.1, "Using Z Bit").
    ZBit,
    /// Privacy-preserving DLV via hashed query names (§6.2.2).
    HashedDlv,
}

impl RemedyMode {
    /// All modes, in the order Fig. 11 compares them.
    pub const ALL: [RemedyMode; 4] =
        [RemedyMode::None, RemedyMode::TxtSignal, RemedyMode::ZBit, RemedyMode::HashedDlv];

    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            RemedyMode::None => "DLV",
            RemedyMode::TxtSignal => "TXT",
            RemedyMode::ZBit => "Z-bit",
            RemedyMode::HashedDlv => "hashed-DLV",
        }
    }

    /// Whether this mode adds signaling on the authoritative path.
    pub fn signals_on_path(self) -> bool {
        matches!(self, RemedyMode::TxtSignal | RemedyMode::ZBit)
    }
}

/// Parses a TXT signaling payload.
///
/// Returns `Some(true)` for `dlv=1`, `Some(false)` for `dlv=0`, and `None`
/// for anything else (unsignalled zones — the common case during incremental
/// deployment, which §6.2.3 identifies as the source of the remedy's residual
/// latency overhead).
pub fn parse_txt_signal(segments: &[String]) -> Option<bool> {
    for seg in segments {
        match seg.trim() {
            TXT_SIGNAL_PRESENT => return Some(true),
            TXT_SIGNAL_ABSENT => return Some(false),
            _ => {}
        }
    }
    None
}

/// Renders the TXT signaling payload for a zone.
pub fn txt_signal(present: bool) -> String {
    if present {
        TXT_SIGNAL_PRESENT.into()
    } else {
        TXT_SIGNAL_ABSENT.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_signal_variants() {
        assert_eq!(parse_txt_signal(&["dlv=1".into()]), Some(true));
        assert_eq!(parse_txt_signal(&["dlv=0".into()]), Some(false));
        assert_eq!(parse_txt_signal(&["v=spf1 -all".into()]), None);
        assert_eq!(parse_txt_signal(&[]), None);
        assert_eq!(parse_txt_signal(&["other".into(), "dlv=1".into()]), Some(true));
    }

    #[test]
    fn txt_signal_round_trips_through_parser() {
        assert_eq!(parse_txt_signal(&[txt_signal(true)]), Some(true));
        assert_eq!(parse_txt_signal(&[txt_signal(false)]), Some(false));
    }

    #[test]
    fn labels_are_figure11_names() {
        let labels: Vec<&str> = RemedyMode::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels, ["DLV", "TXT", "Z-bit", "hashed-DLV"]);
    }

    #[test]
    fn only_txt_and_zbit_signal_on_path() {
        assert!(!RemedyMode::None.signals_on_path());
        assert!(RemedyMode::TxtSignal.signals_on_path());
        assert!(RemedyMode::ZBit.signals_on_path());
        assert!(!RemedyMode::HashedDlv.signals_on_path());
    }
}
