//! A tiny `key = value` experiment-description format for the `labrun`
//! binary, so experiments can be scripted without writing Rust (and without
//! pulling a config-format dependency into the workspace).
//!
//! ```text
//! # my-experiment.lab
//! population = 5000
//! queries    = top:200          # top:N | shuffled:N[:SEED] | huque | ranks:1,5,9
//! install    = yum              # apt-get | apt-get2 | manual | unbound
//! remedy     = none             # txt | zbit | hashed
//! denial     = nsec             # nsec3
//! seed       = 42
//! span_ttl   = 604800
//! ```
//!
//! Unknown keys are rejected; every key has a default, so the empty file is
//! a valid quick experiment.

use lookaside::experiments::{QuerySet, RunConfig};
use lookaside_netsim::CaptureFilter;
use lookaside_resolver::{BindConfig, InstallMethod, ResolverConfig, UnboundConfig};
use lookaside_wire::ext::RemedyMode;
use lookaside_workload::PopulationParams;
use lookaside_zone::DenialMode;

/// A parse failure, with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabConfigError {
    /// 1-based line number (0 for whole-file problems).
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for LabConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for LabConfigError {}

fn err(line: usize, message: impl Into<String>) -> LabConfigError {
    LabConfigError { line, message: message.into() }
}

/// The accepted `queries` forms, quoted in the error for a malformed one.
const QUERY_FORMS: &str = "top:N | shuffled:N[:SEED] | huque | ranks:R1,R2,...";

fn parse_queries(value: &str, line: usize) -> Result<QuerySet, LabConfigError> {
    let mut parts = value.split(':');
    let kind = parts.next().unwrap_or_default();
    let args: Vec<&str> = parts.collect();
    match (kind, args.as_slice()) {
        ("top", [n]) => {
            let n = n.parse().map_err(|_| err(line, "top needs a count, e.g. top:100"))?;
            Ok(QuerySet::Top(n))
        }
        ("shuffled", [n, seed @ ..]) if seed.len() <= 1 => {
            let n =
                n.parse().map_err(|_| err(line, "shuffled needs a count, e.g. shuffled:100:7"))?;
            let seed = match seed {
                [seed] => {
                    seed.parse().map_err(|_| err(line, "shuffled seed must be an integer"))?
                }
                _ => 1,
            };
            Ok(QuerySet::Shuffled { n, seed })
        }
        ("huque", []) => Ok(QuerySet::Huque),
        ("ranks", [list]) => {
            let ranks: Result<Vec<usize>, _> = list.split(',').map(|v| v.trim().parse()).collect();
            let ranks = ranks.map_err(|_| err(line, "ranks must be integers"))?;
            if ranks.is_empty() || ranks.contains(&0) {
                return Err(err(line, "ranks must be 1-based and non-empty"));
            }
            Ok(QuerySet::Ranks(ranks))
        }
        ("top" | "shuffled" | "huque" | "ranks", _) => {
            Err(err(line, format!("malformed query set {value:?}, expected {QUERY_FORMS}")))
        }
        (other, _) => Err(err(line, format!("unknown query set {other:?}"))),
    }
}

/// Parses the experiment description into a [`RunConfig`].
///
/// # Errors
///
/// Returns the first [`LabConfigError`] encountered.
pub fn parse_lab_config(text: &str) -> Result<RunConfig, LabConfigError> {
    let mut config = RunConfig {
        population: PopulationParams { size: 1000, ..PopulationParams::default() },
        queries: QuerySet::Top(100),
        resolver: ResolverConfig::Bind(BindConfig::correct()),
        remedy: RemedyMode::None,
        capture: CaptureFilter::DlvOnly,
        seed: 1,
        dlv_span_ttl: lookaside_server::DLV_SPAN_TTL,
        dlv_denial: DenialMode::Nsec,
    };
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(line_no, format!("expected `key = value`, got {line:?}")));
        };
        let (key, value) = (key.trim(), value.trim());
        match key {
            "population" => {
                config.population.size = value
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| err(line_no, "population must be a positive integer"))?;
            }
            "queries" => config.queries = parse_queries(value, line_no)?,
            "install" => {
                config.resolver = match value {
                    "apt-get" => ResolverConfig::Bind(InstallMethod::AptGet.bind_config()),
                    "apt-get2" => {
                        ResolverConfig::Bind(InstallMethod::AptGetCompliant.bind_config())
                    }
                    "yum" => ResolverConfig::Bind(InstallMethod::Yum.bind_config()),
                    "manual" => ResolverConfig::Bind(InstallMethod::Manual.bind_config()),
                    "unbound" => ResolverConfig::Unbound(UnboundConfig {
                        auto_trust_anchor: true,
                        dlv_anchor: true,
                    }),
                    other => return Err(err(line_no, format!("unknown install {other:?}"))),
                };
            }
            "remedy" => {
                config.remedy = match value {
                    "none" => RemedyMode::None,
                    "txt" => RemedyMode::TxtSignal,
                    "zbit" => RemedyMode::ZBit,
                    "hashed" => RemedyMode::HashedDlv,
                    other => return Err(err(line_no, format!("unknown remedy {other:?}"))),
                };
            }
            "denial" => {
                config.dlv_denial = match value {
                    "nsec" => DenialMode::Nsec,
                    "nsec3" => DenialMode::Nsec3,
                    other => return Err(err(line_no, format!("unknown denial {other:?}"))),
                };
            }
            "seed" => {
                config.seed = value.parse().map_err(|_| err(line_no, "seed must be an integer"))?;
            }
            "span_ttl" => {
                config.dlv_span_ttl =
                    value.parse().map_err(|_| err(line_no, "span_ttl must be seconds"))?;
            }
            other => return Err(err(line_no, format!("unknown key {other:?}"))),
        }
    }
    // Make sure the population can serve the query set.
    let needed = match &config.queries {
        QuerySet::Top(n) | QuerySet::Shuffled { n, .. } => *n,
        QuerySet::Ranks(ranks) => ranks.iter().copied().max().unwrap_or(1),
        QuerySet::Huque => 1,
    };
    if config.population.size < needed {
        return Err(err(
            0,
            format!("population {} smaller than query range {needed}", config.population.size),
        ));
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_file_is_the_default_experiment() {
        let config = parse_lab_config("").unwrap();
        assert_eq!(config.queries, QuerySet::Top(100));
        assert_eq!(config.population.size, 1000);
    }

    #[test]
    fn full_config_parses() {
        let text = "\
            # comment\n\
            population = 5000\n\
            queries = shuffled:200:9\n\
            install = apt-get2\n\
            remedy = zbit\n\
            denial = nsec3\n\
            seed = 77\n\
            span_ttl = 60\n";
        let config = parse_lab_config(text).unwrap();
        assert_eq!(config.population.size, 5000);
        assert_eq!(config.queries, QuerySet::Shuffled { n: 200, seed: 9 });
        assert_eq!(config.remedy, RemedyMode::ZBit);
        assert_eq!(config.dlv_denial, DenialMode::Nsec3);
        assert_eq!(config.seed, 77);
        assert_eq!(config.dlv_span_ttl, 60);
    }

    #[test]
    fn ranks_and_huque_parse() {
        assert_eq!(
            parse_lab_config("queries = ranks:3,1,9\n").unwrap().queries,
            QuerySet::Ranks(vec![3, 1, 9])
        );
        assert_eq!(parse_lab_config("queries = huque\n").unwrap().queries, QuerySet::Huque);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_lab_config("population = 100\nnonsense\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse_lab_config("remedy = both\n").unwrap_err();
        assert!(e.message.contains("unknown remedy"));
        let e = parse_lab_config("queries = top:\n").unwrap_err();
        assert!(e.message.contains("top needs a count"));
        // Trailing fields and an unparsable shuffle seed are rejected, not
        // dropped or defaulted.
        for (queries, message) in [
            ("top:5:junk", "malformed query set"),
            ("huque:x", "malformed query set"),
            ("ranks:1,2:3", "malformed query set"),
            ("shuffled:100:7:junk", "malformed query set"),
            ("shuffled:100:x", "shuffled seed must be an integer"),
        ] {
            let e = parse_lab_config(&format!("seed = 3\nqueries = {queries}\n")).unwrap_err();
            assert_eq!(e.line, 2, "{queries}");
            assert!(e.message.contains(message), "{queries}: {}", e.message);
        }
        let missing_seed = parse_lab_config("queries = shuffled:100\n").unwrap().queries;
        assert_eq!(missing_seed, QuerySet::Shuffled { n: 100, seed: 1 });
    }

    #[test]
    fn population_must_cover_queries() {
        let e = parse_lab_config("population = 50\nqueries = top:100\n").unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.message.contains("smaller"));
    }

    #[test]
    fn unknown_keys_rejected() {
        let e = parse_lab_config("colour = blue\n").unwrap_err();
        assert!(e.message.contains("unknown key"));
    }
}
