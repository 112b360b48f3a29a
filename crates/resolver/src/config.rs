//! The BIND/Unbound configuration model and the paper's 16-environment
//! matrix (Tables 1–2).
//!
//! The paper's root-cause analysis is about *configuration semantics*: which
//! install method leaves which option set, whether the trust anchor is
//! actually included, and what the resolver therefore does. This module
//! encodes those semantics as data so the experiments can sweep them.

/// `dnssec-validation` in BIND (§2.4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DnssecValidation {
    /// `yes`: validate, but the trust anchor must be configured manually.
    Yes,
    /// `auto`: validate using the built-in default trust anchor.
    Auto,
    /// `no`: validation disabled.
    No,
}

/// `dnssec-lookaside` in BIND.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lookaside {
    /// `auto`: DLV enabled with the built-in DLV trust anchor.
    Auto,
    /// DLV disabled (the documented default).
    No,
}

/// A BIND-style configuration (named.conf options + key files).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BindConfig {
    /// `dnssec-enable`.
    pub dnssec_enable: bool,
    /// `dnssec-validation`.
    pub validation: DnssecValidation,
    /// `dnssec-lookaside`.
    pub lookaside: Lookaside,
    /// Whether the root trust anchor is actually present in the
    /// configuration (`managed-keys` / included key file). With
    /// `validation yes` and no anchor, validation can never conclude — the
    /// paper's §5.2 leakage state.
    pub root_anchor_included: bool,
    /// Whether the DLV trust anchor (`bind.keys`) is present.
    pub dlv_anchor_included: bool,
}

impl BindConfig {
    /// The fully correct configuration of the paper's Fig. 6.
    pub fn correct() -> Self {
        BindConfig {
            dnssec_enable: true,
            validation: DnssecValidation::Yes,
            lookaside: Lookaside::Auto,
            root_anchor_included: true,
            dlv_anchor_included: true,
        }
    }
}

/// An Unbound-style configuration: options exist only as trust-anchor file
/// inclusions, which is why the paper notes Unbound cannot reach the
/// "validation on, anchor missing" state (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnboundConfig {
    /// `auto-trust-anchor-file` (root key) configured.
    pub auto_trust_anchor: bool,
    /// `dlv-anchor-file` configured.
    pub dlv_anchor: bool,
}

/// A resolver configuration of either software family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolverConfig {
    /// BIND (`named.conf`).
    Bind(BindConfig),
    /// Unbound (`unbound.conf`).
    Unbound(UnboundConfig),
}

/// What the configuration makes the resolver actually do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EffectiveBehavior {
    /// DNSSEC validation is attempted.
    pub validate: bool,
    /// A *usable* root trust anchor is present.
    pub has_root_anchor: bool,
    /// DLV lookups are enabled.
    pub use_dlv: bool,
    /// A usable DLV trust anchor is present.
    pub has_dlv_anchor: bool,
}

impl EffectiveBehavior {
    /// Derives behaviour from a configuration, per the semantics in §2.4 and
    /// §4.3–4.4 of the paper.
    pub fn from_config(config: &ResolverConfig) -> Self {
        match config {
            ResolverConfig::Bind(b) => {
                let validate = b.dnssec_enable && b.validation != DnssecValidation::No;
                let has_root_anchor = validate
                    && match b.validation {
                        // `auto` loads the built-in anchor regardless of the
                        // config file.
                        DnssecValidation::Auto => true,
                        DnssecValidation::Yes => b.root_anchor_included,
                        DnssecValidation::No => false,
                    };
                let use_dlv = validate && b.lookaside == Lookaside::Auto;
                EffectiveBehavior {
                    validate,
                    has_root_anchor,
                    use_dlv,
                    // `lookaside auto` uses the built-in DLV anchor.
                    has_dlv_anchor: use_dlv && b.dlv_anchor_included,
                }
            }
            ResolverConfig::Unbound(u) => {
                let validate = u.auto_trust_anchor || u.dlv_anchor;
                EffectiveBehavior {
                    validate,
                    has_root_anchor: u.auto_trust_anchor,
                    use_dlv: u.dlv_anchor,
                    has_dlv_anchor: u.dlv_anchor,
                }
            }
        }
    }
}

/// How the resolver software was installed — the axis of Tables 2 and 3.
///
/// # Example
///
/// ```
/// use lookaside_resolver::{EffectiveBehavior, InstallMethod, ResolverConfig};
///
/// // The paper's §5.2 trap: following the manual after an apt-get install
/// // leaves validation on with no usable trust anchor.
/// let config = InstallMethod::AptGetCompliant.bind_config();
/// let behavior = EffectiveBehavior::from_config(&ResolverConfig::Bind(config));
/// assert!(behavior.validate && !behavior.has_root_anchor);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstallMethod {
    /// Debian/Ubuntu `apt-get` defaults (`dnssec-validation auto`), with the
    /// user enabling DLV for the study.
    AptGet,
    /// `apt-get`, then the user changes `dnssec-validation` to `yes` "in
    /// accordance with the manual" — without realising the trust anchor now
    /// has to be included. The paper marks this apt-get†.
    AptGetCompliant,
    /// Fedora/CentOS `yum` defaults: validation `yes` with `bind.keys`
    /// included and `dnssec-lookaside auto` already set.
    Yum,
    /// Manual source install: the user writes the config; the paper's case
    /// has DLV enabled but the trust anchor not included.
    Manual,
}

impl InstallMethod {
    /// The four columns of Table 3, in order.
    pub const ALL: [InstallMethod; 4] = [
        InstallMethod::AptGet,
        InstallMethod::AptGetCompliant,
        InstallMethod::Yum,
        InstallMethod::Manual,
    ];

    /// Label as printed in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            InstallMethod::AptGet => "apt-get",
            InstallMethod::AptGetCompliant => "apt-get\u{2020}",
            InstallMethod::Yum => "yum",
            InstallMethod::Manual => "manual",
        }
    }

    /// The BIND configuration this install method yields once the operator
    /// has enabled DLV for the study (the experiment setting of §4.1).
    pub fn bind_config(self) -> BindConfig {
        match self {
            InstallMethod::AptGet => BindConfig {
                dnssec_enable: true,
                validation: DnssecValidation::Auto,
                lookaside: Lookaside::Auto,
                root_anchor_included: false, // auto-loaded, not in the file
                dlv_anchor_included: true,
            },
            InstallMethod::AptGetCompliant => BindConfig {
                dnssec_enable: true,
                validation: DnssecValidation::Yes,
                lookaside: Lookaside::Auto,
                root_anchor_included: false, // the §5.2 trap
                dlv_anchor_included: true,
            },
            InstallMethod::Yum => BindConfig {
                dnssec_enable: true,
                validation: DnssecValidation::Yes,
                lookaside: Lookaside::Auto,
                root_anchor_included: true, // bind.keys included by default
                dlv_anchor_included: true,
            },
            InstallMethod::Manual => BindConfig {
                dnssec_enable: true,
                validation: DnssecValidation::Yes,
                lookaside: Lookaside::Auto,
                root_anchor_included: false, // user forgot the anchor
                dlv_anchor_included: true,
            },
        }
    }

    /// The Unbound configuration for this install method (§4.4): enabling
    /// DNSSEC/DLV *is* including the anchors, so no method yields a broken
    /// validation state.
    pub fn unbound_config(self) -> UnboundConfig {
        UnboundConfig { auto_trust_anchor: true, dlv_anchor: true }
    }
}

/// Resolver software family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Software {
    /// ISC BIND.
    Bind,
    /// NLnet Labs Unbound.
    Unbound,
}

/// One row of the paper's Table 1: an OS, an install channel, and the
/// resolver versions it produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Environment {
    /// Operating system name, e.g. `CentOS 6.7`.
    pub os: &'static str,
    /// Software family.
    pub software: Software,
    /// Version installed by the OS package manager.
    pub package_version: &'static str,
    /// Version installed manually from source.
    pub manual_version: &'static str,
    /// Package-manager install method for this OS family.
    pub package_install: InstallMethod,
}

/// The 16 environments of Table 1 (8 OS rows × {BIND, Unbound}); each row
/// carries both the package and the manual version.
pub fn environments() -> Vec<Environment> {
    let rows: [(&'static str, InstallMethod, &'static str, &'static str, &'static str); 8] = [
        ("CentOS 6.7", InstallMethod::Yum, "9.9.4", "1.4.20", "1.5.7"),
        ("CentOS 7.1", InstallMethod::Yum, "9.9.4", "1.4.29", "1.5.7"),
        ("Debian 7", InstallMethod::AptGet, "9.8.4", "1.4.17", "1.5.7"),
        ("Debian 8", InstallMethod::AptGet, "9.9.5", "1.4.22", "1.5.7"),
        ("Fedora 21", InstallMethod::Yum, "9.9.6", "1.5.7", "1.5.7"),
        ("Fedora 22", InstallMethod::Yum, "9.10.2", "1.5.7", "1.5.7"),
        ("Ubuntu 12.04", InstallMethod::AptGet, "9.9.5", "1.4.16", "1.5.7"),
        ("Ubuntu 14.04", InstallMethod::AptGet, "9.9.5", "1.4.22", "1.5.7"),
    ];
    let mut envs = Vec::with_capacity(16);
    for (os, install, bind_pkg, unbound_pkg, unbound_manual) in rows {
        envs.push(Environment {
            os,
            software: Software::Bind,
            package_version: bind_pkg,
            manual_version: "9.10.3",
            package_install: install,
        });
        envs.push(Environment {
            os,
            software: Software::Unbound,
            package_version: unbound_pkg,
            manual_version: unbound_manual,
            package_install: install,
        });
    }
    envs
}

/// Behavioural knobs that shape ambient query traffic — the mechanisms
/// behind Table 4's per-type query counts. All rates are deterministic
/// (keyed hashes), so runs are reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureModel {
    /// Issue AAAA (besides A) when resolving name-server host addresses.
    pub ns_host_aaaa: bool,
    /// Per-mille probability of issuing a PTR probe for a newly seen server
    /// address (reverse-lookup behaviour observed in the paper's captures).
    pub ptr_probe_milli: u16,
    /// Per-mille probability of re-fetching a zone's NS RRset after
    /// answering a query in it.
    pub ns_refetch_milli: u16,
    /// Use aggressive negative caching of validated NSEC spans from the DLV
    /// registry (RFC 5074 §5 behaviour; the mechanism behind Fig. 9).
    pub aggressive_nsec: bool,
    /// QNAME minimisation (RFC 7816): reveal to each authoritative server
    /// only one label more than its zone cut. The paper's §3 threat model
    /// cites this as the mitigation for *on-path* exposure; it does nothing
    /// against DLV leakage (the DLV query inherently carries the name).
    /// Off by default, matching the 2016-era resolvers under study.
    pub qname_minimization: bool,
}

impl Default for FeatureModel {
    fn default() -> Self {
        FeatureModel {
            ns_host_aaaa: true,
            ptr_probe_milli: 22,
            ns_refetch_milli: 300,
            aggressive_nsec: true,
            qname_minimization: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn behavior(config: BindConfig) -> EffectiveBehavior {
        EffectiveBehavior::from_config(&ResolverConfig::Bind(config))
    }

    #[test]
    fn table2_apt_get_validates_with_auto_anchor() {
        let b = behavior(InstallMethod::AptGet.bind_config());
        assert!(b.validate);
        assert!(b.has_root_anchor, "auto loads the built-in anchor");
        assert!(b.use_dlv && b.has_dlv_anchor);
    }

    #[test]
    fn table2_apt_get_compliant_loses_the_anchor() {
        let b = behavior(InstallMethod::AptGetCompliant.bind_config());
        assert!(b.validate);
        assert!(!b.has_root_anchor, "validation yes without included anchor");
        assert!(b.use_dlv);
    }

    #[test]
    fn table2_yum_is_fully_configured() {
        let b = behavior(InstallMethod::Yum.bind_config());
        assert!(b.validate && b.has_root_anchor && b.use_dlv && b.has_dlv_anchor);
    }

    #[test]
    fn table2_manual_missing_anchor() {
        let b = behavior(InstallMethod::Manual.bind_config());
        assert!(b.validate && !b.has_root_anchor && b.use_dlv);
    }

    #[test]
    fn validation_no_disables_everything() {
        let mut cfg = BindConfig::correct();
        cfg.validation = DnssecValidation::No;
        let b = behavior(cfg);
        assert!(!b.validate && !b.has_root_anchor && !b.use_dlv);
    }

    #[test]
    fn dnssec_enable_off_disables_validation() {
        let mut cfg = BindConfig::correct();
        cfg.dnssec_enable = false;
        assert!(!behavior(cfg).validate);
    }

    #[test]
    fn lookaside_no_disables_dlv_only() {
        let mut cfg = BindConfig::correct();
        cfg.lookaside = Lookaside::No;
        let b = behavior(cfg);
        assert!(b.validate && b.has_root_anchor);
        assert!(!b.use_dlv && !b.has_dlv_anchor);
    }

    #[test]
    fn unbound_cannot_reach_anchorless_validation() {
        // Every Unbound configuration either validates with anchors or does
        // not validate at all — the §4.4 observation.
        for auto in [false, true] {
            for dlv in [false, true] {
                let b = EffectiveBehavior::from_config(&ResolverConfig::Unbound(UnboundConfig {
                    auto_trust_anchor: auto,
                    dlv_anchor: dlv,
                }));
                if b.validate {
                    assert!(b.has_root_anchor || b.has_dlv_anchor);
                }
                assert_eq!(b.use_dlv, dlv);
            }
        }
    }

    #[test]
    fn table1_has_sixteen_environments() {
        let envs = environments();
        assert_eq!(envs.len(), 16);
        assert_eq!(envs.iter().filter(|e| e.software == Software::Bind).count(), 8);
        // Spot-check two cells of Table 1.
        let debian7_bind =
            envs.iter().find(|e| e.os == "Debian 7" && e.software == Software::Bind).unwrap();
        assert_eq!(debian7_bind.package_version, "9.8.4");
        assert_eq!(debian7_bind.manual_version, "9.10.3");
        let fedora21_unbound =
            envs.iter().find(|e| e.os == "Fedora 21" && e.software == Software::Unbound).unwrap();
        assert_eq!(fedora21_unbound.package_version, "1.5.7");
    }

    #[test]
    fn install_method_labels_match_table3_columns() {
        let labels: Vec<&str> = InstallMethod::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels, ["apt-get", "apt-get\u{2020}", "yum", "manual"]);
    }
}
