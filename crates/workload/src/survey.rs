//! The DNS-OARC 2015 operator survey reported in §5.2 of the paper.

/// The published survey results: 56 operators running their own recursive
/// resolvers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Survey {
    /// Total respondents.
    pub total: u32,
    /// Use package-installer defaults (apt-get or yum).
    pub package_defaults: u32,
    /// Use defaults after a manual install.
    pub manual_defaults: u32,
    /// Use their own configuration.
    pub own_config: u32,
    /// Use ISC's DLV server.
    pub isc_dlv: u32,
    /// Use other trust anchors.
    pub other_anchors: u32,
}

/// The paper's reported numbers.
pub fn survey() -> Survey {
    Survey {
        total: 56,
        package_defaults: 17,
        manual_defaults: 5,
        own_config: 34,
        isc_dlv: 35,
        other_anchors: 21,
    }
}

impl Survey {
    /// Percentage helper.
    pub fn pct(&self, count: u32) -> f64 {
        f64::from(count) / f64::from(self.total) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_sum_to_total() {
        let s = survey();
        assert_eq!(s.package_defaults + s.manual_defaults + s.own_config, s.total);
        assert_eq!(s.isc_dlv + s.other_anchors, s.total);
    }

    #[test]
    fn percentages_match_paper() {
        let s = survey();
        assert!((s.pct(s.package_defaults) - 30.35).abs() < 0.1);
        assert!((s.pct(s.manual_defaults) - 8.9).abs() < 0.1);
        assert!((s.pct(s.own_config) - 60.7).abs() < 0.1);
        assert!((s.pct(s.isc_dlv) - 62.5).abs() < 0.1);
    }
}
