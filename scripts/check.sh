#!/usr/bin/env bash
# Full local quality gate: everything CI runs, in the same order. The
# verify skill (.claude/skills/verify/SKILL.md) lists the same commands,
# and the "Gate drift" step below fails when the three lists differ. A
# step's name is CI's; its rationale is the comment above it here.
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

# Allocation probe: a warm keep-alive GET — of a home document and of a
# co-op copy — must cost the reactor zero heap allocations and exactly
# one read + one writev, on both poller backends. It runs inside the workspace tests too; named here so a
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
# 200, a 304, a 503, a co-op serve — flat in the group size, and for
# gossip received (a known peer's row costs nothing). Constant header
# names and values, shared rows and dates and the borrowed request path
# cost nothing; a count that rises fails here. gossip_equivalence holds
# a row merged from the text `peek` read to what `decode` would merge.
step cargo test -q -p dcws-core --test cost_probe --test gossip_equivalence

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

# One front: what a server does with a request its read path declined,
# and with a peer's reply to any call it made, is one sans-IO policy
# (dcws_core::Front) both hosts drive — pull coalescing, the settle step
# that answers every waiter from the copy its pull brought in, the
# degradation ladder, and the one door every reply goes through
# (Front::answered). Its own suite, the door's cases among it: unreachable
# pings declare a peer dead and recall its documents
# (unreachable_pings_declare_the_peer_dead_and_recall_its_documents), any
# ping reply merges its rows and proves the peer alive
# (a_ping_reply_merges_its_piggybacked_rows), an unreachable validation
# marks the copy stale and a 304 clears it
# (an_unreachable_validation_marks_the_copy_stale_and_a_304_clears_it), a
# push reply changes nothing (a_push_reply_changes_nothing), a tick sends
# pings, then validations, then pushes
# (a_tick_sends_pings_then_validations_then_pushes), and every request the
# engine builds — each tick call and the pull — carries its load rows
# beside another X-DCWS- header, so the read path declines it
# (every_built_request_carries_its_rows_beside_another_dcws_header).
# Beside it: a ranged GET carrying a load row gets the same answer primed
# or cold (ranged_get_with_a_load_report_is_answered_alike_primed_or_cold:
# no load row is answered on the read path); eight
# concurrent misses over TCP making one pull; a follower that parks its
# job instead of a worker; every waiter of a pull whose copy the co-op
# cache refuses answered 200, over TCP and in the simulator; a garbled
# pull that degrades to a 503 and installs nothing; and a crashed home
# whose co-ops record their failed pulls in the simulator. All run
# inside the workspace tests too; named so that the two hosts drifting
# apart shows as its own step.
one_front() {
    cargo test -q -p dcws-core --test front_tests
    cargo test -q -p dcws-core --test readpath_tests ranged_get_with_a_load_report_is_answered_alike_primed_or_cold
    cargo test -q -p dcws-net --test tcp_integration concurrent_misses_coalesce_to_one_pull_over_tcp
    cargo test -q -p dcws-net --test tcp_integration a_parked_miss_holds_no_worker
    cargo test -q -p dcws-net --test tcp_integration every_waiter_of_an_uncacheable_pull_is_answered_over_tcp
    cargo test -q -p dcws-sim --test sim_tests an_uncacheable_copy_fails_no_client
    cargo test -q -p dcws-net --test chaos_tests garbled_pull_never_installs_corrupt_copy
    cargo test -q -p dcws-sim --test sim_tests crashed_home_pull_failures_are_recorded
}
step one_front

# One store: a server keeps its served bytes in both roles — the home
# side's primed routes and regenerated variants, the co-op side's copies
# — in one store (dcws_core::ServeTable) under one budget. With a slice
# that fits three routes, a page the read path keeps answering outlives
# a stream of cold routes, each overflow evicting one entry
# (a_hot_route_outlives_a_stream_of_cold_ones). The one_store pins hold
# what every digest's regeneration count relies on: a rewritten page
# that is migrated and revoked comes home with no regeneration, two
# co-ops pulling one version cost one, and a republish or a dirty settle
# drops both variants. They also hold the co-op role's entry: a copy is
# found under any spelling of its `~migrate` path and never pulled again
# while held, the two roles' counters add up to the store's and a copy's
# eviction is a store eviction, a copy as large as a stream is held only
# without a budget, and the T_val scan sends its validations in key
# order. The budget property test drives installs, hits, route-only and
# whole-entry drops and re-budgets through an engine and holds every
# shard within its slice, and the stream routes counted to the ones the
# read path answers from; the naming property test pins the store key:
# decode_migrate_path inverts migrate_url and never panics on seeded
# mutants. "Message cost" pins a repeat pull's and a co-op serve's
# allocations, "Allocation probe" a warm co-op GET's, "Stream route" the
# descriptors evictions release.
one_store() {
    cargo test -q -p dcws-core --test readpath_tests a_hot_route_outlives_a_stream_of_cold_ones
    cargo test -q -p dcws-core --test engine_tests one_store
    cargo test -q -p dcws-core --test store_proptest
    cargo test -q -p dcws-core --test naming_proptest
}
step one_store

# Doc drift: every backticked `dcws_<crate>::…::Item` in docs/*.md and
# README.md names an item defined in that crate's sources, and every
# backticked `*.rs` file name there a tracked file (scripts/drift.sh).
step bash scripts/drift.sh docs

# Gate drift: CI, this script and the verify skill's gate list run the
# same commands in the same order, and every CI step name fits in 80
# characters (scripts/drift.sh).
step bash scripts/drift.sh gates

# Behaviour gate: the simulator on the benchmark's sim-lod configuration
# (64 servers, 1,024 clients, 100 virtual s) must reproduce, event for
# event, the digests this configuration has had since PR 15 — a perf
# change to the engine or the simulator that moves either has changed a
# protocol decision, whatever its tests say. ~0.3 s a seed. The third
# line is the same site on 256 servers and 2,048 clients, where the
# control plane (pings, gossip) is most of the work. ~1.2 s.
if [[ $quick -eq 0 ]]; then
    behaviour_gate() {
        probe() { cargo run --release -q -p dcws-sim --example probe -- "$1" "$2" 100000 1 lod "$3"; }
        probe 64 1024 1999 | grep -F "digest: completed=95476 bytes=228397946 drops=133225 redirects=365 failures=0 sessions=1192 migrations=10 revocations=0 regenerations=9 events=659527 samples=10 latencies=95476 p99_us=131071 engine_events=37"
        probe 64 1024 2024 | grep -F "digest: completed=95439 bytes=229420215 drops=134602 redirects=342 failures=0 sessions=1143 migrations=10 revocations=0 regenerations=9 events=661575 samples=10 latencies=95439 p99_us=131071 engine_events=37"
        probe 256 2048 1999 | grep -F "digest: completed=95620 bytes=221298784 drops=179651 redirects=520 failures=0 sessions=1417 migrations=10 revocations=0 regenerations=9 events=1425788 samples=10 latencies=95620 p99_us=131071 engine_events=37"
    }
    step behaviour_gate
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

# Bench-binary smoke: the §5 reproduction, the cache-pressure sweep,
# and the press bins must run end to end and emit their CSVs (quick
# mode keeps this fast). reproduce --quick runs every cell of the §5
# table on seed 42 at reduced size and exits nonzero if a cell completes
# no fetch or a CSV is missing (its checks gate only a full run). Every
# smoke writes under target/bench-smoke (DCWS_BENCH_OUT), never over the
# committed full-run artifacts in bench_results/ — the closing `git diff`
# fails the gate if one did.
# c10kpress --quick holds 1k keep-alive clients against the reactor and
# exits nonzero unless served concurrency beats the worker count with
# zero accept errors, so an event-loop regression fails here;
# cachepress --quick exits nonzero if any row records a client failure
# (the sweep crashes no server, so a failure is a defect);
# scalepress --quick runs the simulator at 240 servers / 3,000 clients
# and exits nonzero unless every arm clears 10^5 sessions inside the
# wall-clock bound and the shared-bandwidth re-run reproduces its digest
# exactly, so an event-core scale or determinism regression fails the
# gate (docs/SIMULATION.md).
if [[ $quick -eq 0 ]]; then
    export DCWS_BENCH_OUT=target/bench-smoke
    step cargo run --release -q -p dcws-bench --bin reproduce -- --quick --status-dump
    step cargo run --release -q -p dcws-bench --bin cachepress -- --quick --status-dump
    test -s target/bench-smoke/fig6.csv
    test -s target/bench-smoke/fig7.csv
    test -s target/bench-smoke/fig8.csv
    test -s target/bench-smoke/table2.csv
    test -s target/bench-smoke/overhead.csv
    test -s target/bench-smoke/ablation.csv
    test -s target/bench-smoke/checks.csv
    test -s target/bench-smoke/cachepress.csv
    step cargo run --release -q -p dcws-bench --bin c10kpress -- --quick
    test -s target/bench-smoke/c10kpress.csv
    test -s target/bench-smoke/BENCH_c10kpress.json
    step cargo run --release -q -p dcws-bench --bin scalepress -- --quick
    test -s target/bench-smoke/scalepress.csv
    test -s target/bench-smoke/BENCH_scalepress.json
    step git diff --exit-code -- bench_results
fi

echo
echo "All checks passed."
