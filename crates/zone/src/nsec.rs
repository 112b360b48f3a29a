//! NSEC chain construction and cover queries (RFC 4034 §4).
//!
//! The chain links every owner name of a signed zone to its canonical
//! successor, wrapping from the last name back to the apex. An NSEC record
//! *covers* a name when that name falls strictly between the record's owner
//! and its "next" name — the proof of non-existence that the paper's
//! aggressive negative caching (§2.3, RFC 8198 in spirit) relies on to
//! suppress repeat DLV queries.

use lookaside_wire::{Name, RData, RrSet, RrType, TypeBitmap};

/// An NSEC chain over a zone's owner names, in canonical order.
///
/// # Example
///
/// ```
/// use lookaside_wire::{Name, RrType, TypeBitmap};
/// use lookaside_zone::NsecChain;
///
/// let apex = Name::parse("zone.test.")?;
/// let chain = NsecChain::build(
///     apex.clone(),
///     vec![(apex.prepend("a")?, TypeBitmap::from_types([RrType::A]))],
/// );
/// // "b.zone.test." does not exist: the chain proves it.
/// assert!(chain.covering(&apex.prepend("b")?, 60).is_some());
/// assert!(chain.covering(&apex.prepend("a")?, 60).is_none());
/// # Ok::<(), lookaside_wire::WireError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NsecChain {
    apex: Name,
    /// Owner names in canonical order, paired with their type bitmaps.
    entries: Vec<(Name, TypeBitmap)>,
}

impl NsecChain {
    /// Builds the chain from `(owner, types-present)` pairs.
    ///
    /// The pairs need not be sorted; the apex is added implicitly if absent.
    pub fn build(apex: Name, mut entries: Vec<(Name, TypeBitmap)>) -> Self {
        if !entries.iter().any(|(n, _)| n == &apex) {
            entries.push((apex.clone(), TypeBitmap::new()));
        }
        for (_, types) in entries.iter_mut() {
            types.insert(RrType::Nsec);
            types.insert(RrType::Rrsig);
        }
        entries.sort_by(|a, b| a.0.canonical_cmp(&b.0));
        entries.dedup_by(|a, b| {
            if a.0 == b.0 {
                let moved = std::mem::take(&mut a.1);
                b.1.extend(moved.iter());
                true
            } else {
                false
            }
        });
        NsecChain { apex, entries }
    }

    /// The apex the chain was built for.
    pub fn apex(&self) -> &Name {
        &self.apex
    }

    /// Number of NSEC records (owner names) in the chain.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the chain is empty (never true after `build`).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The NSEC RRset owned by the `idx`-th name.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn record_at(&self, idx: usize, ttl: u32) -> RrSet {
        let (owner, types) = &self.entries[idx];
        let next = &self.entries[(idx + 1) % self.entries.len()].0;
        RrSet::single(
            owner.clone(),
            ttl,
            RData::Nsec { next_name: next.clone(), types: types.clone() },
        )
    }

    /// All NSEC RRsets.
    pub fn records(&self, ttl: u32) -> Vec<RrSet> {
        (0..self.entries.len()).map(|i| self.record_at(i, ttl)).collect()
    }

    /// The NSEC record proving that `name` does not exist, if it indeed does
    /// not (returns `None` when `name` is an existing owner).
    ///
    /// # Panics
    ///
    /// Panics if the chain is somehow empty (cannot happen via `build`).
    pub fn covering(&self, name: &Name, ttl: u32) -> Option<RrSet> {
        Some(self.record_at(self.covering_index(name)?, ttl))
    }

    /// Index of the NSEC record proving that `name` does not exist —
    /// `None` when `name` is an existing owner. Allocation-free; pair with
    /// a pre-rendered record table instead of [`NsecChain::covering`] on
    /// hot paths.
    pub fn covering_index(&self, name: &Name) -> Option<usize> {
        match self.entries.binary_search_by(|(n, _)| n.canonical_cmp(name)) {
            Ok(_) => None,                          // name exists
            Err(0) => Some(self.entries.len() - 1), // before apex: wrap-around span
            Err(i) => Some(i - 1),
        }
    }

    /// The owner names, canonical order.
    pub fn owners(&self) -> impl Iterator<Item = &Name> {
        self.entries.iter().map(|(n, _)| n)
    }

    /// Index of an existing owner name (binary search).
    pub fn index_of(&self, name: &Name) -> Option<usize> {
        self.entries.binary_search_by(|(n, _)| n.canonical_cmp(name)).ok()
    }
}

/// Whether the NSEC record `(owner, next)` covers `name` — i.e. proves its
/// non-existence. Handles the wrap-around span where `next` canonically
/// precedes `owner`.
pub fn covers(owner: &Name, next: &Name, name: &Name) -> bool {
    use std::cmp::Ordering::*;
    match owner.canonical_cmp(next) {
        Less => owner.canonical_cmp(name) == Less && name.canonical_cmp(next) == Less,
        // Wrap-around (next is the apex) — covers everything after owner and
        // everything before next within the zone.
        Greater | Equal => owner.canonical_cmp(name) == Less || name.canonical_cmp(next) == Less,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn bm(types: &[RrType]) -> TypeBitmap {
        TypeBitmap::from_types(types.iter().copied())
    }

    fn chain() -> NsecChain {
        NsecChain::build(
            n("dlv.isc.org"),
            vec![
                (n("alpha.com.dlv.isc.org"), bm(&[RrType::Dlv])),
                (n("mike.net.dlv.isc.org"), bm(&[RrType::Dlv])),
                (n("zulu.org.dlv.isc.org"), bm(&[RrType::Dlv])),
            ],
        )
    }

    #[test]
    fn build_adds_apex_and_sorts() {
        let c = chain();
        assert_eq!(c.len(), 4);
        let owners: Vec<String> = c.owners().map(|o| o.to_string()).collect();
        assert_eq!(owners[0], "dlv.isc.org.");
    }

    #[test]
    fn records_link_and_wrap() {
        let c = chain();
        let records = c.records(3600);
        // Last record's next name wraps to the apex.
        match &records.last().unwrap().rdatas[0] {
            RData::Nsec { next_name, .. } => assert_eq!(next_name, &n("dlv.isc.org")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn covering_finds_the_right_span() {
        let c = chain();
        let cover = c.covering(&n("beta.com.dlv.isc.org"), 3600).unwrap();
        assert_eq!(cover.name, n("alpha.com.dlv.isc.org"));
        // Existing names are not covered.
        assert!(c.covering(&n("mike.net.dlv.isc.org"), 3600).is_none());
    }

    #[test]
    fn covering_wraps_past_the_end() {
        let c = chain();
        // Canonically after zulu: covered by the wrap-around record.
        let cover = c.covering(&n("zzz.org.dlv.isc.org"), 3600).unwrap();
        assert_eq!(cover.name, n("zulu.org.dlv.isc.org"));
    }

    #[test]
    fn covers_plain_span() {
        assert!(covers(&n("a.zone"), &n("m.zone"), &n("b.zone")));
        assert!(!covers(&n("a.zone"), &n("m.zone"), &n("a.zone")));
        assert!(!covers(&n("a.zone"), &n("m.zone"), &n("m.zone")));
        assert!(!covers(&n("a.zone"), &n("m.zone"), &n("z.zone")));
    }

    #[test]
    fn covers_wraparound_span() {
        // owner=z, next=apex: covers everything canonically after z...
        assert!(covers(&n("z.zone"), &n("zone"), &n("zz.zone")));
        // ...but not names between apex and z (they fall in other spans).
        assert!(!covers(&n("z.zone"), &n("zone"), &n("a.zone")));
    }

    #[test]
    fn bitmaps_gain_nsec_and_rrsig() {
        let c = chain();
        let rec = c.record_at(1, 300);
        match &rec.rdatas[0] {
            RData::Nsec { types, .. } => {
                assert!(types.contains(RrType::Nsec));
                assert!(types.contains(RrType::Rrsig));
                assert!(types.contains(RrType::Dlv));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicate_owners_merge_bitmaps() {
        let c = NsecChain::build(
            n("zone"),
            vec![(n("a.zone"), bm(&[RrType::A])), (n("a.zone"), bm(&[RrType::Mx]))],
        );
        assert_eq!(c.len(), 2);
        let rec = c.record_at(1, 300);
        match &rec.rdatas[0] {
            RData::Nsec { types, .. } => {
                assert!(types.contains(RrType::A));
                assert!(types.contains(RrType::Mx));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
