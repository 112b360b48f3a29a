//! The synthetic ranked domain population.
//!
//! Domains are named `d{rank:07}.{tld}` with zero-padded ranks so that
//! numeric and canonical DNS order coincide — which makes the DLV
//! registry's NSEC spans align with rank intervals and keeps the
//! repository-density calibration analytic (see [`RepoDensity`]).

use std::net::Ipv4Addr;

use lookaside_wire::Name;

fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One TLD of the synthetic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TldInfo {
    /// TLD label (no dots).
    pub label: &'static str,
    /// Popularity weight, per mille.
    pub weight_milli: u16,
    /// Whether the TLD zone is DNSSEC-signed (≈85 % of TLDs were in 2016).
    pub signed: bool,
}

/// The default TLD mix: 15 TLDs, 12 signed (80 %), com-heavy like the real
/// Alexa list.
pub const TLDS: [TldInfo; 15] = [
    TldInfo { label: "com", weight_milli: 480, signed: true },
    TldInfo { label: "net", weight_milli: 120, signed: true },
    TldInfo { label: "org", weight_milli: 90, signed: true },
    TldInfo { label: "info", weight_milli: 50, signed: true },
    TldInfo { label: "ru", weight_milli: 45, signed: false },
    TldInfo { label: "de", weight_milli: 40, signed: true },
    TldInfo { label: "uk", weight_milli: 35, signed: true },
    TldInfo { label: "cn", weight_milli: 30, signed: false },
    TldInfo { label: "biz", weight_milli: 25, signed: true },
    TldInfo { label: "edu", weight_milli: 20, signed: true },
    TldInfo { label: "jp", weight_milli: 15, signed: false },
    TldInfo { label: "fr", weight_milli: 15, signed: true },
    TldInfo { label: "nl", weight_milli: 12, signed: true },
    TldInfo { label: "br", weight_milli: 12, signed: true },
    TldInfo { label: "io", weight_milli: 11, signed: false },
];

/// Rank-dependent inclusion density of the DLV repository's entries.
///
/// The repository holds "neighbour" zones whose names sit canonically next
/// to ranked query names. A rank `r` neighbour is included with probability
/// `clamp(a − b·log10(r), 0.02, 0.95)`. Because every included neighbour
/// starts a fresh NSEC span, the number of *distinct spans* the top-N
/// queries touch — i.e. the leaked-query count of Fig. 8 — is ≈
/// `Σ_{r≤N} π(r)`, whose proportion decays linearly in `log N` exactly as
/// Fig. 9 reports. Defaults are calibrated to the paper's anchors
/// (≈84 % at N=100, ≈6.8 % at N=1M).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepoDensity {
    /// Intercept of the density line.
    pub a: f64,
    /// Slope per decade of rank.
    pub b: f64,
}

impl Default for RepoDensity {
    fn default() -> Self {
        // Calibrated against the paper's anchors: leaked(100) ≈ 84,
        // leaked(1k) ≈ 647, leaked(10k) ≈ 4 539, leaked(100k) ≈ 26 111,
        // leaked(1M) ≈ 67 838 (Figs. 8–9). The published proportions are
        // almost exactly linear in log10(N), so a two-point fit recovers
        // the whole series.
        RepoDensity { a: 1.21, b: 0.2045 }
    }
}

impl RepoDensity {
    /// Inclusion probability of the rank-`r` neighbour.
    pub fn pi(&self, rank: usize) -> f64 {
        let r = rank.max(1) as f64;
        (self.a - self.b * r.log10()).clamp(0.005, 0.95)
    }
}

/// Parameters of the synthetic population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopulationParams {
    /// Number of ranked domains.
    pub size: usize,
    /// Master seed.
    pub seed: u64,
    /// Per-mille of SLDs that are DNSSEC-signed (paper §1: ≈3 %).
    pub signed_milli: u16,
    /// Per-mille of signed SLDs that also have a DS in the parent; the rest
    /// are islands of security.
    pub ds_given_signed_milli: u16,
    /// Per-mille of islands that deposited a DLV record (Case-1 density).
    pub deposited_given_island_milli: u16,
    /// Per-mille of domains that run their own (in-bailiwick, glued) name
    /// servers; the rest use a hosting provider (glueless).
    pub self_hosted_milli: u16,
    /// Number of hosting providers.
    pub hoster_pool: usize,
    /// Zipf exponent of hoster popularity.
    pub hoster_zipf_s: f64,
    /// DLV repository neighbour density.
    pub repo: RepoDensity,
}

impl Default for PopulationParams {
    fn default() -> Self {
        PopulationParams {
            size: 1_000_000,
            seed: 2016,
            signed_milli: 30,
            ds_given_signed_milli: 600,
            deposited_given_island_milli: 300,
            self_hosted_milli: 350,
            hoster_pool: 3000,
            hoster_zipf_s: 0.8,
            repo: RepoDensity::default(),
        }
    }
}

/// Attributes of one ranked domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainAttrs {
    /// 1-based popularity rank.
    pub rank: usize,
    /// The domain name, e.g. `d0000042.com.`.
    pub name: Name,
    /// Its TLD label.
    pub tld: &'static str,
    /// DNSSEC-signed?
    pub signed: bool,
    /// DS published in the parent (only meaningful when signed)?
    pub ds_in_parent: bool,
    /// DLV record deposited (only islands deposit)?
    pub deposited: bool,
    /// Seed for the zone's signing keys.
    pub key_seed: u64,
    /// Runs its own name servers (glued at the TLD)?
    pub self_hosted: bool,
    /// Hosting provider index when not self-hosted.
    pub hoster: Option<usize>,
    /// Address its zone content is served from.
    pub server_addr: Ipv4Addr,
}

/// Attributes of one hosting provider (its own SLD zone, serving
/// `ns1`/`ns2` host records for customers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HosterAttrs {
    /// Provider index.
    pub index: usize,
    /// The provider's domain, e.g. `h0042.net.`.
    pub name: Name,
    /// Its TLD label.
    pub tld: &'static str,
    /// DNSSEC-signed?
    pub signed: bool,
    /// DS in parent?
    pub ds_in_parent: bool,
    /// Seed for its signing keys.
    pub key_seed: u64,
    /// Address its zone (and its customers' NS hosts) are served from.
    pub server_addr: Ipv4Addr,
}

/// Anything the population recognises by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PopEntry {
    /// A ranked domain.
    Domain(DomainAttrs),
    /// A hosting provider's own domain.
    Hoster(HosterAttrs),
}

impl PopEntry {
    /// The entry's SLD apex.
    pub fn apex(&self) -> &Name {
        match self {
            PopEntry::Domain(d) => &d.name,
            PopEntry::Hoster(h) => &h.name,
        }
    }
}

/// The synthetic ranked population (see module docs).
///
/// # Example
///
/// ```
/// use lookaside_workload::{DomainPopulation, PopEntry, PopulationParams};
///
/// let pop = DomainPopulation::new(PopulationParams { size: 1_000, ..Default::default() });
/// let name = pop.domain(1);
/// let attrs = pop.attributes(1);
/// assert_eq!(attrs.name, name);
/// // Names invert back to their entries, even for subdomains.
/// match pop.entry_of(&name.prepend("www").unwrap()) {
///     Some(PopEntry::Domain(d)) => assert_eq!(d.rank, 1),
///     other => panic!("unexpected {other:?}"),
/// }
/// ```
#[derive(Debug, Clone)]
pub struct DomainPopulation {
    params: PopulationParams,
    tld_cum: Vec<(u16, usize)>, // cumulative weight → TLD index
    hoster_zipf: crate::zipf::Zipf,
}

impl DomainPopulation {
    /// Builds a population.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or exceeds 9 999 999 (the rank field is
    /// seven digits).
    pub fn new(params: PopulationParams) -> Self {
        assert!(params.size > 0 && params.size <= 9_999_999, "size out of range");
        let mut tld_cum = Vec::with_capacity(TLDS.len());
        let mut acc = 0u16;
        for (i, tld) in TLDS.iter().enumerate() {
            acc += tld.weight_milli;
            tld_cum.push((acc, i));
        }
        debug_assert_eq!(acc, 1000);
        let hoster_zipf = crate::zipf::Zipf::new(params.hoster_pool, params.hoster_zipf_s);
        DomainPopulation { params, tld_cum, hoster_zipf }
    }

    /// The parameters in force.
    pub fn params(&self) -> &PopulationParams {
        &self.params
    }

    /// Number of ranked domains.
    pub fn size(&self) -> usize {
        self.params.size
    }

    fn tld_of_rank(&self, rank: usize) -> &'static TldInfo {
        let roll = (mix(self.params.seed ^ 0x746c64, rank as u64) % 1000) as u16;
        let idx = self
            .tld_cum
            .iter()
            .find(|(cum, _)| roll < *cum)
            .map(|(_, i)| *i)
            .unwrap_or(TLDS.len() - 1);
        &TLDS[idx]
    }

    fn roll(&self, salt: u64, key: u64, milli: u16) -> bool {
        mix(self.params.seed ^ salt, key) % 1000 < u64::from(milli)
    }

    /// The rank-`r` domain name.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is 0 or beyond the population size.
    pub fn domain(&self, rank: usize) -> Name {
        assert!(rank >= 1 && rank <= self.params.size, "rank {rank} out of range");
        let tld = self.tld_of_rank(rank);
        Name::parse(&format!("d{rank:07}.{}", tld.label)).expect("generated name is valid")
    }

    /// Full attributes of the rank-`r` domain.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn attributes(&self, rank: usize) -> DomainAttrs {
        let name = self.domain(rank);
        let tld = self.tld_of_rank(rank);
        let signed = self.roll(0x7369, rank as u64, self.params.signed_milli);
        let ds_in_parent = signed
            && tld.signed
            && self.roll(0x6473, rank as u64, self.params.ds_given_signed_milli);
        let island = signed && !ds_in_parent;
        let deposited =
            island && self.roll(0x646c76, rank as u64, self.params.deposited_given_island_milli);
        let self_hosted = self.roll(0x6e73, rank as u64, self.params.self_hosted_milli);
        let hoster = if self_hosted {
            None
        } else {
            Some(self.hoster_zipf.sample_hash(mix(self.params.seed ^ 0x686f73, rank as u64)) - 1)
        };
        DomainAttrs {
            rank,
            name,
            tld: tld.label,
            signed,
            ds_in_parent,
            deposited,
            key_seed: mix(self.params.seed ^ 0x6b6579, rank as u64),
            self_hosted,
            hoster,
            server_addr: Self::addr_from(mix(self.params.seed ^ 0x61646472, rank as u64)),
        }
    }

    /// Attributes of hosting provider `index` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `index` is beyond the pool size.
    pub fn hoster(&self, index: usize) -> HosterAttrs {
        assert!(index < self.params.hoster_pool, "hoster {index} out of range");
        let tld = {
            let roll = (mix(self.params.seed ^ 0x6874_6c64, index as u64) % 1000) as u16;
            let idx =
                self.tld_cum.iter().find(|(cum, _)| roll < *cum).map(|(_, i)| *i).unwrap_or(0);
            &TLDS[idx]
        };
        let signed = self.roll(0x687369, index as u64, 100);
        let ds_in_parent = signed && tld.signed && self.roll(0x686473, index as u64, 500);
        HosterAttrs {
            index,
            name: Name::parse(&format!("h{index:04}.{}", tld.label)).expect("valid hoster name"),
            tld: tld.label,
            signed,
            ds_in_parent,
            key_seed: mix(self.params.seed ^ 0x686b6579, index as u64),
            server_addr: Self::addr_from(mix(self.params.seed ^ 0x68616464, index as u64) | 0x8000),
        }
    }

    fn addr_from(h: u64) -> Ipv4Addr {
        // 10.64.0.0/10-ish content range, away from the infrastructure
        // addresses the harness assigns.
        let b = 64 + ((h >> 16) % 64) as u8;
        let c = ((h >> 8) & 0xff) as u8;
        let d = 1 + (h % 254) as u8;
        Ipv4Addr::new(10, b, c, d)
    }

    /// Parses a name back into a population entry: the SLD apex of `qname`
    /// must be `d{rank:07}.{tld}` or `h{idx:04}.{tld}` with a matching TLD
    /// assignment.
    pub fn entry_of(&self, qname: &Name) -> Option<PopEntry> {
        if qname.label_count() < 2 {
            return None;
        }
        let apex = qname.suffix(2);
        let sld = apex.label(0).to_string();
        let tld = apex.label(1).to_string();
        let rest = &sld[1..];
        if sld.starts_with('d') && rest.len() == 7 && rest.bytes().all(|b| b.is_ascii_digit()) {
            let rank: usize = rest.parse().ok()?;
            if rank == 0 || rank > self.params.size {
                return None;
            }
            let attrs = self.attributes(rank);
            if attrs.tld != tld {
                return None;
            }
            return Some(PopEntry::Domain(attrs));
        }
        if sld.starts_with('h') && rest.len() == 4 && rest.bytes().all(|b| b.is_ascii_digit()) {
            let index: usize = rest.parse().ok()?;
            if index >= self.params.hoster_pool {
                return None;
            }
            let attrs = self.hoster(index);
            if attrs.tld != tld {
                return None;
            }
            return Some(PopEntry::Hoster(attrs));
        }
        None
    }

    /// Whether the rank-`r` repository *neighbour* is included in the DLV
    /// registry (see [`RepoDensity`]).
    pub fn repo_neighbour_included(&self, rank: usize) -> bool {
        let p = self.params.repo.pi(rank);
        let roll = mix(self.params.seed ^ 0x7265706f, rank as u64) % 1_000_000;
        (roll as f64) < p * 1_000_000.0
    }

    /// The repository neighbour name for rank `r`: canonically immediately
    /// after `d{rank:07}.{tld}` (the trailing `x` sorts after every digit).
    pub fn repo_neighbour_name(&self, rank: usize) -> Name {
        let tld = self.tld_of_rank(rank);
        Name::parse(&format!("d{rank:07}x.{}", tld.label)).expect("valid neighbour name")
    }

    /// Key seed for a repository neighbour's fictional zone keys.
    pub fn repo_neighbour_key_seed(&self, rank: usize) -> u64 {
        mix(self.params.seed ^ 0x726b6579, rank as u64)
    }

    /// Iterates all included repository neighbour ranks up to `limit`.
    pub fn repo_neighbours(&self, limit: usize) -> impl Iterator<Item = usize> + '_ {
        (1..=limit.min(self.params.size)).filter(move |&r| self.repo_neighbour_included(r))
    }

    /// Iterates ranked domains deposited in the registry, up to `limit`.
    pub fn deposited_ranks(&self, limit: usize) -> impl Iterator<Item = usize> + '_ {
        (1..=limit.min(self.params.size)).filter(move |&r| self.attributes(r).deposited)
    }

    /// Borrowed iterator over the names of a half-open rank range
    /// `lo..hi` (1-based ranks, `hi` exclusive) — the shard-friendly view
    /// of the query list. Concatenating `rank_range` over a partition of
    /// `1..n+1` in order yields exactly [`DomainPopulation::top`]`(n)`,
    /// because each name is a pure function of its rank.
    ///
    /// # Panics
    ///
    /// Panics if the range starts at rank 0 or ends beyond `size + 1`.
    pub fn rank_range(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = Name> + '_ {
        assert!(range.start >= 1, "ranks are 1-based");
        assert!(range.end <= self.params.size + 1, "range end {} out of range", range.end);
        range.map(|r| self.domain(r))
    }

    /// The top-`n` query list (ranks 1..=n).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the population size.
    pub fn top(&self, n: usize) -> Vec<Name> {
        assert!(n <= self.params.size);
        self.rank_range(1..n + 1).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop(size: usize) -> DomainPopulation {
        DomainPopulation::new(PopulationParams { size, ..PopulationParams::default() })
    }

    #[test]
    fn names_are_zero_padded_and_parse_back() {
        let p = pop(100_000);
        for rank in [1usize, 42, 9_999, 100_000] {
            let name = p.domain(rank);
            let sld = name.label(0).to_string();
            assert_eq!(sld.len(), 8, "d + 7 digits in {name}");
            match p.entry_of(&name) {
                Some(PopEntry::Domain(attrs)) => assert_eq!(attrs.rank, rank),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn entry_of_rejects_foreign_names() {
        let p = pop(1000);
        for s in ["example.com.", "d0001001.com.", "d01.com.", "h9999.com.", "dabcdefg.com."] {
            let name = Name::parse(s).unwrap();
            // d0001001 exceeds size 1000; others malformed or wrong TLD.
            if let Some(entry) = p.entry_of(&name) {
                panic!("{s} should not resolve to {entry:?}");
            }
        }
    }

    #[test]
    fn entry_of_handles_subdomains() {
        let p = pop(1000);
        let name = p.domain(7);
        let www = name.prepend("www").unwrap();
        match p.entry_of(&www) {
            Some(PopEntry::Domain(attrs)) => assert_eq!(attrs.rank, 7),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn attributes_are_deterministic() {
        let a = pop(10_000);
        let b = pop(10_000);
        for rank in 1..200 {
            assert_eq!(a.attributes(rank), b.attributes(rank));
        }
    }

    #[test]
    fn deployment_rates_are_near_targets() {
        let p = pop(200_000);
        let n = 50_000;
        let mut signed = 0usize;
        let mut islands = 0usize;
        let mut deposited = 0usize;
        let mut self_hosted = 0usize;
        for rank in 1..=n {
            let a = p.attributes(rank);
            signed += usize::from(a.signed);
            islands += usize::from(a.signed && !a.ds_in_parent);
            deposited += usize::from(a.deposited);
            self_hosted += usize::from(a.self_hosted);
        }
        let pct = |x: usize| x as f64 / n as f64 * 100.0;
        assert!((2.5..3.5).contains(&pct(signed)), "signed {}%", pct(signed));
        // Islands: signed × (1 − ds|signed ≈ 0.6 of *signed-TLD* domains);
        // unsigned TLDs make every signed child an island, so expect a bit
        // above 40 % of signed.
        assert!(islands > signed * 35 / 100 && islands < signed * 65 / 100);
        assert!(deposited < islands && deposited > islands / 10);
        assert!((30.0..40.0).contains(&pct(self_hosted)));
    }

    #[test]
    fn tld_mix_is_com_heavy() {
        let p = pop(100_000);
        let n = 20_000;
        let com = (1..=n).filter(|&r| p.attributes(r).tld == "com").count();
        let frac = com as f64 / n as f64;
        assert!((0.44..0.52).contains(&frac), "com fraction {frac}");
    }

    #[test]
    fn repo_density_decays_with_rank() {
        let d = RepoDensity::default();
        assert!(d.pi(1) > d.pi(100));
        assert!(d.pi(100) > d.pi(1_000_000));
        assert!(d.pi(1_000_000) >= 0.005);
        assert!(d.pi(1) <= 0.95);
    }

    #[test]
    fn repo_neighbour_sorts_immediately_after_domain() {
        let p = pop(10_000);
        for rank in [1usize, 500, 10_000] {
            let d = p.domain(rank);
            let nb = p.repo_neighbour_name(rank);
            assert_eq!(d.canonical_cmp(&nb), std::cmp::Ordering::Less);
            if rank < p.size() {
                // The next ranked domain in the same TLD must sort after the
                // neighbour; spot-check with rank+1 when TLDs happen to match.
                let next = p.domain(rank + 1);
                if p.attributes(rank + 1).tld == p.attributes(rank).tld {
                    assert_eq!(nb.canonical_cmp(&next), std::cmp::Ordering::Less);
                }
            }
        }
    }

    #[test]
    fn repo_inclusion_matches_density_roughly() {
        let p = pop(1_000_000);
        let included_top100 = p.repo_neighbours(100).count();
        // π̄ over 1..100 ≈ 0.87 with clamping; allow sampling slack.
        assert!((75..95).contains(&included_top100), "top-100 inclusions {included_top100}");
        let included_10k = p.repo_neighbours(10_000).count();
        assert!((4_200..5_200).contains(&included_10k), "top-10k inclusions {included_10k}");
    }

    #[test]
    fn hosters_have_stable_attrs_and_valid_names() {
        let p = pop(1000);
        let h = p.hoster(42);
        assert_eq!(h.index, 42);
        assert_eq!(h.name.to_string(), format!("h0042.{}.", h.tld));
        match p.entry_of(&h.name.prepend("ns1").unwrap()) {
            Some(PopEntry::Hoster(back)) => assert_eq!(back, h),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn addresses_avoid_infrastructure_range() {
        let p = pop(10_000);
        for rank in 1..500 {
            let addr = p.attributes(rank).server_addr;
            let oct = addr.octets();
            assert_eq!(oct[0], 10);
            assert!((64..128).contains(&oct[1]), "{addr}");
            assert_ne!(oct[3], 0);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rank_zero_panics() {
        pop(10).domain(0);
    }
}
