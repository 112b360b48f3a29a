//! §6.2.4 dictionary-attack cost: how fast an adversary can hash candidate
//! names, and what that implies for the 350M-name space the paper argues
//! makes the attack impractical.
//!
//! Hashes the same 1000 ranked candidates `ROUNDS` times on one thread and
//! prints the cost per name and the single-core time to hash the whole
//! space. Run with `cargo bench -p lookaside-bench --bench dictionary`.

use std::hint::black_box;
use std::time::Instant;

use lookaside_crypto::hashed_dlv_label;
use lookaside_workload::{DomainPopulation, PopulationParams};

/// Passes over the candidate list in the timed window.
const ROUNDS: usize = 200;
/// The Internet-scale name space of §6.2.4.
const NAME_SPACE: f64 = 350e6;

fn main() {
    let pop =
        DomainPopulation::new(PopulationParams { size: 100_000, ..PopulationParams::default() });
    let candidates: Vec<_> = (1..=1000).map(|r| pop.domain(r)).collect();
    let hash_all = || {
        for name in &candidates {
            black_box(hashed_dlv_label(black_box(name)));
        }
    };

    hash_all(); // warm-up
    let started = Instant::now();
    for _ in 0..ROUNDS {
        hash_all();
    }
    let seconds = started.elapsed().as_secs_f64();
    let names = (ROUNDS * candidates.len()) as f64;
    let ns_per_name = seconds * 1e9 / names;
    let space_seconds = ns_per_name * NAME_SPACE / 1e9;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "bench dictionary/hashed_dlv_label: {ns_per_name:.0} ns/name over {names:.0} hashes \
         (1 thread, nproc {nproc})"
    );
    println!(
        "bench dictionary/350M-names: {space_seconds:.0} s ({:.1} min) to hash the whole space \
         on one core",
        space_seconds / 60.0
    );
}
