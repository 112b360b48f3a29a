//! Known-bad fixture: an environment read in a library crate.
//! Scanned as if it lived at `crates/engine/src/bad_env.rs`; run options
//! belong to the binary that parses them, not to the engine.

pub fn jobs_from_env() -> usize {
    std::env::var("JOBS").ok().and_then(|v| v.parse().ok()).unwrap_or(1)
}
