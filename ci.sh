#!/usr/bin/env bash
# Full CI gate: build, tests, lints, formatting, and the parallel-engine
# determinism check. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
mkdir -p target/ci

# Tier-1 tests. No library crate reads the environment, so one run
# covers every worker count the tests pick: each sweep has its own
# `--jobs 1 == --jobs N` test (tests/engine_determinism.rs and friends),
# and the golden, Byzantine and lifecycle gates below diff `repro` at
# --jobs 1 and --jobs 4. The suite includes the wire-layer proptests
# (compact-Name codec round-trips, canonical-order reference model) and
# the same-run oracle that classifies a capture and compares it with the
# per-packet LeakSink fold of the same packets
# (tests/stream_equivalence.rs).
cargo test -q

# `redundant_clone` is denied on top of the default set: the PR-3 memory
# model makes clones cheap but the hot path is supposed to not need them
# at all. `--all-targets` lints the tests, examples and every bench too,
# not only the two benches the gates below happen to build.
cargo clippy --workspace --all-targets -- -D warnings -D clippy::redundant_clone
cargo fmt --check

# Allocation-regression gate: the alloc_sweep bench counts every heap
# allocation of a deterministic fig8_9 run, so allocations/query is an
# exact number, not a timing. Fail if it creeps >10% above the recorded
# baseline (PR-3 set 619, see BENCH_pr3.json; PR-9's `resolve_into` +
# RRset scratch pool lowered it to 453; re-measured at 453 once fig8_9
# stopped recording a capture).
ALLOC_BASELINE=453
cargo bench --bench alloc_sweep | tee target/ci/alloc_sweep.txt
ALLOCS_PER_QUERY=$(awk '/allocs\/query/ { print $3; exit }' target/ci/alloc_sweep.txt)
if [ -z "${ALLOCS_PER_QUERY}" ]; then
    echo "ci: FAIL — alloc_sweep did not report allocs/query" >&2
    exit 1
fi
if awk -v got="${ALLOCS_PER_QUERY}" -v base="${ALLOC_BASELINE}" \
    'BEGIN { exit !(got > base * 1.10) }'; then
    echo "ci: FAIL — ${ALLOCS_PER_QUERY} allocs/query exceeds baseline ${ALLOC_BASELINE} by >10%" >&2
    exit 1
fi

# Streaming-regression gate: the stream_sweep bench measures the
# steady-state allocations/query of the capture-less observer path (hard
# ceiling, see BENCH_pr8.json) and the Fig. 12 replay rate in cache-model
# samples/sec — Zipf draws plus bitmap probes, not resolutions (floor set
# ~10x under the recorded 4-worker figure, so it only trips on
# order-of-magnitude regressions, not machine noise; recorded 6.9–7.6M
# on 2 vCPUs with the guide-table sampler and one shared Zipf table,
# hence 690000). The warm query
# path is allocation-free since `resolve_into` + the resolver's RRset
# scratch pool (PR 9); the ceiling of 2 leaves headroom for residual
# cold-path traffic without letting a per-query allocation back in.
STREAM_ALLOC_CEILING=2
STREAM_SAMPLES_FLOOR=690000
cargo bench --bench stream_sweep | tee target/ci/stream_sweep.txt
STREAM_ALLOCS=$(awk '/steady_state:.*allocs\/query/ { print $3; exit }' target/ci/stream_sweep.txt)
STREAM_SAMPLES=$(awk '/cache-model samples\/sec/ { print $3; exit }' target/ci/stream_sweep.txt)
if [ -z "${STREAM_ALLOCS}" ] || [ -z "${STREAM_SAMPLES}" ]; then
    echo "ci: FAIL — stream_sweep did not report allocs/query and cache-model samples/sec" >&2
    exit 1
fi
if [ "${STREAM_ALLOCS}" -ge "${STREAM_ALLOC_CEILING}" ]; then
    echo "ci: FAIL — ${STREAM_ALLOCS} steady-state allocs/query breaches the <${STREAM_ALLOC_CEILING} ceiling" >&2
    exit 1
fi
if [ "${STREAM_SAMPLES}" -lt "${STREAM_SAMPLES_FLOOR}" ]; then
    echo "ci: FAIL — ${STREAM_SAMPLES} cache-model samples/sec is under the ${STREAM_SAMPLES_FLOOR} floor" >&2
    exit 1
fi

# Golden gates: `repro fig9`, `fig12` and `farm` must print exactly the
# bytes in tests/golden/, at --jobs 1 and at --jobs 4. The goldens were
# written by the capture-then-classify pipeline the per-packet fold
# replaced, so these gates pin every worker count to that oracle's
# bytes; fig9, fig12 and the farm cover the three reduction shapes
# (ranked merge, ordered prefix-sum fold, set union).
golden_gate() {
    section=$1
    for jobs in 1 4; do
        out="target/ci/${section}.jobs${jobs}.txt"
        ./target/release/repro "${section}" --jobs "${jobs}" > "${out}"
        if ! diff -u "tests/golden/${section}.txt" "${out}"; then
            echo "ci: FAIL — repro ${section} --jobs ${jobs} diverges from tests/golden/${section}.txt" >&2
            exit 1
        fi
    done
}
golden_gate fig9
golden_gate fig12

# Supervised checkpoint/resume gate: SIGKILL a mid-flight full-scale
# fig12 run that is journalling to --checkpoint, resume it from the same
# journal, and demand the resumed output byte-match an uninterrupted
# run. The journal is polled and the kill sent as soon as it holds one
# complete window record past its header, so it lands mid-journal on any
# machine speed. If the run exits before a record is seen, the gate says
# so and the resume replays whatever the run left; either outcome must
# survive the same hard byte-diff.
CKPT=target/ci/fig12.ckpt
rm -f "${CKPT}"
./target/release/repro fig12 --full --jobs 4 > target/ci/fig12.full.clean.txt
./target/release/repro fig12 --full --jobs 4 --checkpoint "${CKPT}" \
    > target/ci/fig12.full.killed.txt 2>/dev/null &
REPRO_PID=$!
# Journal layout (crates/engine/src/checkpoint.rs): an 18-byte header,
# then records of shard_id u64 | payload_len u32 | payload | crc32.
journal_holds_a_record() {
    [ -f "${CKPT}" ] || return 1
    local size len
    size=$(wc -c < "${CKPT}")
    [ "${size}" -ge 30 ] || return 1
    len=$(od -An -tu4 -j 26 -N 4 "${CKPT}" | tr -d ' ')
    [ "${size}" -ge $((30 + len + 4)) ]
}
KILL_CASE="the run exited before a record was journalled"
while kill -0 "${REPRO_PID}" 2>/dev/null; do
    if journal_holds_a_record; then
        if kill -9 "${REPRO_PID}" 2>/dev/null; then
            KILL_CASE="SIGKILL landed mid-journal"
        else
            KILL_CASE="the run exited just before the SIGKILL"
        fi
        break
    fi
    sleep 0.02
done
wait "${REPRO_PID}" 2>/dev/null || true
echo "ci: checkpoint gate: ${KILL_CASE}; journal holds $(wc -c < "${CKPT}" 2>/dev/null || echo 0) bytes"
./target/release/repro fig12 --full --jobs 4 --resume "${CKPT}" \
    > target/ci/fig12.full.resumed.txt
if ! diff -u target/ci/fig12.full.clean.txt target/ci/fig12.full.resumed.txt; then
    echo "ci: FAIL — resumed fig12 --full diverges from the uninterrupted run" >&2
    exit 1
fi

# Deterministic variant of the same gate, independent of machine speed:
# the resumed run above left a complete journal; shear it to 60% (tearing
# whatever record straddles the cut) and resume again. The torn record
# must be dropped, the journalled prefix folded from disk, the sheared
# suffix recomputed — and the bytes must still match.
FULL_BYTES=$(wc -c < "${CKPT}")
KEEP=$((FULL_BYTES * 60 / 100))
head -c "${KEEP}" "${CKPT}" > "${CKPT}.sheared" && mv "${CKPT}.sheared" "${CKPT}"
./target/release/repro fig12 --full --jobs 4 --resume "${CKPT}" \
    > target/ci/fig12.full.sheared.txt
if ! diff -u target/ci/fig12.full.clean.txt target/ci/fig12.full.sheared.txt; then
    echo "ci: FAIL — fig12 resumed from a sheared journal diverges from the clean run" >&2
    exit 1
fi
rm -f "${CKPT}"

# Same contract for the Byzantine sweep: seeded faults (bit-flips,
# truncation, forged payloads) must not perturb worker-count
# determinism.
./target/release/repro byzantine --jobs 1 > target/ci/byzantine.jobs1.txt
./target/release/repro byzantine --jobs 4 > target/ci/byzantine.jobs4.txt
if ! diff -u target/ci/byzantine.jobs1.txt target/ci/byzantine.jobs4.txt; then
    echo "ci: FAIL — repro byzantine output diverges between --jobs 1 and --jobs 4" >&2
    exit 1
fi

# And for the key-lifecycle sweep: simulated-time rollovers, expiry
# storms, and RFC 5011 tracking shard scenario-per-worker, so the event
# tables must be byte-identical at every worker count.
./target/release/repro lifecycle --jobs 1 > target/ci/lifecycle.jobs1.txt
./target/release/repro lifecycle --jobs 4 > target/ci/lifecycle.jobs4.txt
if ! diff -u target/ci/lifecycle.jobs1.txt target/ci/lifecycle.jobs4.txt; then
    echo "ci: FAIL — repro lifecycle output diverges between --jobs 1 and --jobs 4" >&2
    exit 1
fi

# And for the resolver farm: one million hashed-cohort stub clients
# against every cache topology. The reduction is a set union plus a
# min-merge, so worker count (and cohort count — the farm proptests pin
# that one) must never show up in the bytes.
golden_gate farm

# Corruption robustness gate: 10k fixed-seed mutated packets through the
# wire decoder — typed WireError or success, never a panic. Backed by a
# panic/unwrap lint wall on the wire crate, extended in PR-5 to the
# engine and resolver hot paths (typed errors replaced the old expects),
# and to the network simulator and the servers every exchange dispatches
# into.
cargo test -q -p lookaside-wire --release --test properties corruption_fuzz_fixed_seed_10k
for crate in wire engine resolver netsim server; do
    cargo clippy -p "lookaside-${crate}" -- -D warnings -D clippy::panic -D clippy::unwrap_used
done

# Static-invariant gate: the workspace lint (crates/lint) walks every .rs
# file, runs the lexical rules (hash-ordered collections, wall-clock
# reads, ambient entropy, env reads in library crates, panics on hot
# paths, unsafe code), then builds the workspace call graph
# and runs the three semantic dataflow passes: panic-reachability from
# tagged hot-path entries, determinism taint into tagged sinks, and the
# std::{fs,io,net} purity wall. Zero unsuppressed findings and zero stale
# allows required; the byte-stable JSON report and the call-graph DOT are
# archived with the other CI artifacts. The run is also held to a
# wall-time budget so the semantic passes can't quietly turn into the
# slowest stage of CI.
LINT_BUDGET_SECS=30
LINT_START=$(date +%s)
./target/release/lookaside-lint \
    --json target/ci/lint_report.json --dot target/ci/call_graph.dot
LINT_ELAPSED=$(( $(date +%s) - LINT_START ))
if [ "${LINT_ELAPSED}" -gt "${LINT_BUDGET_SECS}" ]; then
    echo "ci: FAIL — lint took ${LINT_ELAPSED}s (budget ${LINT_BUDGET_SECS}s)" >&2
    exit 1
fi

# Canaries: prove each gate actually bites. Drop a known-bad fixture into
# a scanned crate, expect the lint to fail *on the expected rule*, then
# remove it. One canary per semantic pass (the panic one places its
# unwrap two calls below the tagged entry, so only a transitive pass can
# see it) plus two lexical ones: the original hash-collection canary and
# an environment read dropped into the engine, where no file is exempt.
# The trap guarantees cleanup even if an expectation itself fails.
CANARIES="crates/core/src/__lint_canary.rs \
    crates/workload/src/__lint_canary_panic.rs \
    crates/wire/src/__lint_canary_taint.rs \
    crates/netsim/src/__lint_canary_purity.rs \
    crates/engine/src/__lint_canary_env.rs"
# shellcheck disable=SC2064
trap "rm -f ${CANARIES}" EXIT
lint_canary() {
    fixture="crates/lint/tests/fixtures/$1"
    dest=$2
    rule=$3
    cp "${fixture}" "${dest}"
    out=""
    if out=$(./target/release/lookaside-lint --no-json --no-dot 2>&1); then
        echo "ci: FAIL — canary $1 not detected; the ${rule} gate is toothless" >&2
        exit 1
    fi
    if ! printf '%s' "${out}" | grep -q "${rule}"; then
        echo "ci: FAIL — canary $1 tripped, but not via ${rule}:" >&2
        printf '%s\n' "${out}" >&2
        exit 1
    fi
    rm -f "${dest}"
}
lint_canary bad_hashmap.rs crates/core/src/__lint_canary.rs determinism::hash-collection
lint_canary sem_panic_bad.rs crates/workload/src/__lint_canary_panic.rs semantic::panic-reachable
lint_canary sem_taint_bad.rs crates/wire/src/__lint_canary_taint.rs semantic::taint-flow
lint_canary sem_purity_bad.rs crates/netsim/src/__lint_canary_purity.rs semantic::purity-wall
lint_canary bad_env.rs crates/engine/src/__lint_canary_env.rs determinism::env-read
trap - EXIT

echo "ci: all green"
