//! Fingerprints pinned per seed (`pins.txt`, compiled in).
//!
//! One line per pin: `<workload> <seed> <kind> key=value ...`, where kind
//! is `run` (the untraced fingerprint) or `trace` (the traced run's exact
//! work counts). Regenerate with `perfbench --pin-seeds A-B`.

use crate::scenario::Print;

const PINS: &str = include_str!("../pins.txt");

/// The pinned values for `(workload, seed, kind)`, if any.
pub fn lookup(workload: &str, seed: u64, kind: &str) -> Option<Print> {
    PINS.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        let head = (fields.next()?, fields.next()?.parse::<u64>().ok()?, fields.next()?);
        if head != (workload, seed, kind) {
            return None;
        }
        fields
            .map(|kv| {
                let (k, v) = kv.split_once('=')?;
                Some((k.to_string(), v.parse().ok()?))
            })
            .collect()
    })
}

/// One pin line.
pub fn line(workload: &str, seed: u64, kind: &str, print: &Print) -> String {
    let body: Vec<String> = print.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{workload} {seed} {kind} {}", body.join(" "))
}

/// Differences between a pinned and a measured fingerprint.
pub fn diff(pinned: &Print, actual: &Print) -> Vec<String> {
    if pinned.len() != actual.len() || pinned.iter().zip(actual).any(|(p, a)| p.0 != a.0) {
        return vec!["pinned fingerprint has different fields".to_string()];
    }
    pinned
        .iter()
        .zip(actual)
        .filter(|(p, a)| p.1 != a.1)
        .map(|(p, a)| format!("{}: pinned {}, measured {}", p.0, p.1, a.1))
        .collect()
}
