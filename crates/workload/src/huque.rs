//! The 45 DNSSEC-secured domains of the paper's §4.2 (the "Huque list").
//!
//! The original list is no longer retrievable; what matters for §5.2 is its
//! composition: 45 signed domains, of which 5 lack a DS in their parent
//! zone — islands of security — and are therefore sent to the DLV server
//! even under a fully correct configuration.

use lookaside_wire::Name;

/// One domain of the secured list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HuqueDomain {
    /// Domain name (`huqueNN.<tld>`).
    pub name: Name,
    /// Always signed.
    pub signed: bool,
    /// DS present in the parent (false for the 5 islands).
    pub ds_in_parent: bool,
    /// Whether the island deposited a DLV record (2 of the 5 do, so both
    /// Case-1 and Case-2 island behaviour is exercised).
    pub deposited: bool,
    /// Seed for the zone's signing keys.
    pub key_seed: u64,
}

/// Builds the 45-domain corpus: indices 0–4 are islands (0 and 2
/// deposited), 5–44 are fully secured.
pub fn huque45() -> Vec<HuqueDomain> {
    let tlds = ["com", "net", "org", "edu"];
    (0..45)
        .map(|i| {
            let tld = tlds[i % tlds.len()];
            let island = i < 5;
            HuqueDomain {
                name: Name::parse(&format!("huque{i:02}.{tld}.")).expect("valid name"),
                signed: true,
                ds_in_parent: !island,
                deposited: island && (i == 0 || i == 2),
                key_seed: 0x4855_0000 + i as u64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_shape_matches_section_5_2() {
        let corpus = huque45();
        assert_eq!(corpus.len(), 45);
        assert!(corpus.iter().all(|d| d.signed));
        let islands: Vec<&HuqueDomain> = corpus.iter().filter(|d| !d.ds_in_parent).collect();
        assert_eq!(islands.len(), 5, "five islands of security");
        assert_eq!(islands.iter().filter(|d| d.deposited).count(), 2);
        assert!(corpus.iter().filter(|d| d.ds_in_parent).all(|d| !d.deposited));
    }

    #[test]
    fn names_are_unique() {
        let corpus = huque45();
        let mut names: Vec<String> = corpus.iter().map(|d| d.name.to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 45);
    }
}
