#!/usr/bin/env bash
# Full local quality gate: everything CI runs, in the same order.
#
#   scripts/check.sh            # build + test + fmt + clippy + doc
#   scripts/check.sh --quick    # skip the release build (fastest loop)
#
# The workspace builds fully offline: every external dependency is a
# vendored stub under vendor/ (see vendor/README.md), so no step here
# needs the crates registry.

set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

step() {
    echo
    echo "==> $*"
    "$@"
}

if [[ $quick -eq 0 ]]; then
    step cargo build --workspace --release
fi
step cargo test -q --workspace

# Chaos smoke: a real 3-server TCP cluster under the fixed-seed fault
# schedule (seeds 7/21/1999 inside the test) must converge with no
# document lost. Named explicitly so a chaos regression is visible as
# its own step, and reproducible from the printed seed
# (docs/RESILIENCE.md).
step cargo test -q -p dcws-net --test chaos_tests seeded_chaos_no_document_lost

# Allocation probe: a warm keep-alive GET must cost the reactor zero
# heap allocations and exactly one read + one writev, on both poller
# backends. It runs inside the workspace tests too; named here so a
# regression on the hot path shows as its own step.
step cargo test -q -p dcws-net --test alloc_probe

# Stream route: once primed, every plain-client shape of a request for a
# large object (GET, HEAD, Range, If-Modified-Since, pipelined, slow
# reader) is answered on the reactor, byte for byte as the exclusive
# path would, with no engine lock, no worker and no leaked descriptor —
# both pollers, DiskStore and MemStore. Named for the same reason.
step cargo test -q -p dcws-net --test stream_route_tests

# Event core: the simulator's queue pops exactly what a sorted model of
# it pops — payloads included, through slot reuse, growth and drains —
# and neither a bare queue nor a whole fault scenario allocates on a pop.
# A debug build, so the per-pop assert in `run_loop` is armed. Both run
# inside the workspace tests too; named so that a queue regression shows
# as its own step. No timing gate: the behaviour gate below runs the
# exact sim-lod configuration. The same alloc_probe caps what a whole
# 16-server run allocates per handled event.
step cargo test -q -p dcws-sim --test alloc_probe --test queue_proptest

# Message cost: exact allocation counts for what the exclusive path
# builds — a gossiped message, a ping answer, an idle tick, a warm home
# 200, a 304, a 503, a co-op serve — flat in the group size. Constant
# header names and values, shared rows and dates and the borrowed
# request path cost nothing; a count that rises fails here.
step cargo test -q -p dcws-core --test cost_probe

# HTML scanner equivalence: extract_links and rewrite_links against the
# tokenizer pipeline they replaced, kept verbatim as the oracle — every
# HTML page of the four datasets, HTML soup and seeded mutants agree on
# every link, every output byte, every count and every value passed to
# the mapping; a page of unclosed tags stays linear.
step cargo test -q -p dcws-html

# One Algorithm 2: the walker's rules (back-off ladder, redirect budget,
# cache hits, image 503s, stale tokens, refused connections) on scripted
# replies, then the simulator's adapter and the blocking driver dcws-walk
# runs, each on the same seed, fetching the same sequence from the same
# site. Both run inside the workspace tests too; named so that a client
# that drifts between substrates shows as its own step.
one_algorithm_2() {
    cargo test -q -p dcws-net walker
    cargo test -q -p dcws-sim --test walker_equivalence
}
step one_algorithm_2

# Behaviour gate: the simulator on the benchmark's sim-lod configuration
# (64 servers, 1,024 clients, 100 virtual s) must reproduce, event for
# event, the digests this configuration has had since PR 15 — a perf
# change to the engine or the simulator that moves either has changed a
# protocol decision, whatever its tests say. ~0.7 s a seed.
if [[ $quick -eq 0 ]]; then
    sim_digest() {
        cargo run --release -q -p dcws-sim --example probe -- 64 1024 100000 1 lod "$1" \
            | grep -F "digest: $2"
    }
    step sim_digest 1999 "completed=95476 bytes=228397946 drops=133225 redirects=365 failures=0 sessions=1192 migrations=10 revocations=0 regenerations=9 events=659527 samples=10 latencies=95476 p99_us=131071 engine_events=37"
    step sim_digest 2024 "completed=95439 bytes=229420215 drops=134602 redirects=342 failures=0 sessions=1143 migrations=10 revocations=0 regenerations=9 events=661575 samples=10 latencies=95439 p99_us=131071 engine_events=37"
fi

# The benchmark is a workspace of its own, so nothing above compiles
# it: a break of the public API it uses would otherwise surface only
# when the benchmark pipeline runs.
if [[ $quick -eq 0 ]]; then
    step cargo build --release --offline --manifest-path benchmark/Cargo.toml
fi
step cargo test --offline --manifest-path benchmark/Cargo.toml

step cargo fmt --all --check
step cargo clippy --workspace --all-targets -- -D warnings
step env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Bench-binary smoke: the figure harnesses, the cache-pressure sweep,
# and the press bins must run end to end and emit their CSVs (quick
# mode keeps this fast). Every smoke writes under target/bench-smoke
# (DCWS_BENCH_OUT), never over the committed full-run artifacts in
# bench_results/ — the closing `git diff` fails the gate if one did.
# c10kpress --quick holds 1k keep-alive clients against the reactor and
# exits nonzero unless served concurrency beats the worker count with
# zero accept errors, so an event-loop regression fails here;
# scalepress --quick runs the simulator at 240 servers / 3,000 clients
# and exits nonzero unless every arm clears 10^5 sessions inside the
# wall-clock bound and the shared-bandwidth re-run reproduces its digest
# exactly, so an event-core scale or determinism regression fails the
# gate (docs/SIMULATION.md).
if [[ $quick -eq 0 ]]; then
    smoke=target/bench-smoke
    export DCWS_BENCH_OUT=$smoke
    step cargo run --release -q -p dcws-bench --bin fig6 -- --quick --status-dump
    step cargo run --release -q -p dcws-bench --bin cachepress -- --quick --status-dump
    step cargo run --release -q -p dcws-bench --bin c10kpress -- --quick
    step cargo run --release -q -p dcws-bench --bin scalepress -- --quick
    test -s $smoke/fig6.csv
    test -s $smoke/cachepress.csv
    test -s $smoke/c10kpress.csv
    test -s $smoke/BENCH_c10kpress.json
    test -s $smoke/scalepress.csv
    test -s $smoke/BENCH_scalepress.json
    step git diff --exit-code -- bench_results
fi

echo
echo "All checks passed."
