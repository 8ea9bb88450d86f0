#!/usr/bin/env bash
# Repo-wide quality gate. Offline-safe: every cargo invocation passes
# --offline so the gate works without network access (the workspace has no
# crates.io dependencies; shims/ vendors the bench/test scaffolding).
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --offline --release

echo "==> cargo test -q"
cargo test --offline -q --workspace

# The paper-shape assertions compare timing ratios and are ignored in debug
# builds (cfg_attr(debug_assertions, ignore)); without this release run they
# would never execute anywhere.
echo "==> cargo test --release --test paper_shapes"
cargo test --offline --release -q --test paper_shapes

# Shadow-heap sanitizer battery: broken-mock detection plus a clean churn
# run of every evaluated manager, in release so the full set stays fast.
echo "==> cargo test --release --test sanitizer"
cargo test --offline --release -q --test sanitizer

# Executor suite in release: includes the timing-fidelity test asserting a
# pooled empty-kernel launch reports <10% of the spawn-per-launch baseline
# (ignored in debug builds where the ratio is meaningless).
echo "==> cargo test --release -p gpu-sim"
cargo test --offline --release -q -p gpu-sim

# Single-worker determinism: the conformance battery must also hold when the
# pool is forced to one worker (inline sequential execution, no interleaving).
echo "==> GMS_WORKERS=1 cargo test --release --test conformance"
GMS_WORKERS=1 cargo test --offline --release -q --test conformance

# Heap-backend conformance: the cross-backend battery (RAM/mmap/NUMA heap
# contract, per-manager runs, ram-vs-mmap byte identity) plus the env-gated
# 8 GiB MAP_NORESERVE smoke, then the full allocator conformance battery
# re-run with every heap swapped to the mmap backend via GMS_HEAP_BACKEND.
echo "==> HUGE_HEAP=1 cargo test --release --test heap_backends"
HUGE_HEAP=1 cargo test --offline --release -q --test heap_backends
echo "==> GMS_HEAP_BACKEND=mmap cargo test --release --test conformance"
GMS_HEAP_BACKEND=mmap cargo test --offline --release -q --test conformance

# End-to-end full-scale smoke: Fig. 9 at the paper's 8 GiB heap over the
# mmap backend, trimmed to one manager/few cells so the gate stays fast.
echo "==> repro perf --heap-backend mmap (8 GiB smoke)"
cargo run --offline --release -q -p gpumem-bench --bin repro -- \
    perf --heap-backend mmap -t s --num 1000 --iter 1 --out target/perf-smoke
grep -q 'heap_backend=mmap' target/perf-smoke/alloc_thread_1000_TITANV.csv

# Repro-matrix smoke gate: regenerate every smoke-tier scenario into a
# scratch dir, then compare against the committed BENCH_*.json anchors with
# the per-scenario tolerances in gates.toml. Exits nonzero on regression,
# exact-metric drift, or a missing/damaged anchor. GMS_WORKERS is pinned so
# throughput anchors are comparable across machines; re-baseline with
# `repro matrix --smoke` (see gates.toml header) after intentional changes.
echo "==> repro matrix --smoke + gate"
rm -rf target/matrix-smoke
GMS_WORKERS="${GMS_WORKERS:-4}" cargo run --offline --release -q -p gpumem-bench --bin repro -- \
    matrix --smoke --anchors target/matrix-smoke
GMS_WORKERS="${GMS_WORKERS:-4}" cargo run --offline --release -q -p gpumem-bench --bin repro -- \
    gate --smoke --candidate target/matrix-smoke

# Magazine-cache smoke: regenerate just the cached twin scenarios and gate
# them against their committed anchors. Redundant with the full matrix run
# above by construction, but isolates a cache regression in its own stage
# (and exercises the --scenario selection + @cached plumbing end to end).
echo "==> repro matrix --smoke (cached scenarios) + gate"
rm -rf target/matrix-cached
GMS_WORKERS="${GMS_WORKERS:-4}" cargo run --offline --release -q -p gpumem-bench --bin repro -- \
    matrix --smoke --scenario perf_thread_cached --scenario mixed_cached \
    --anchors target/matrix-cached
GMS_WORKERS="${GMS_WORKERS:-4}" cargo run --offline --release -q -p gpumem-bench --bin repro -- \
    gate --smoke --scenario perf_thread_cached --scenario mixed_cached \
    --candidate target/matrix-cached

# Event-tracing smoke: a traced run must produce a Perfetto-loadable Chrome
# trace (the binary validates it before writing) plus a latency-percentile
# CSV with data rows. Cheap end-to-end coverage of recorder → exporters.
echo "==> repro trace smoke"
rm -rf target/trace-smoke
cargo run --offline --release -q -p gpumem-bench --bin repro -- \
    trace -m scatter --num 2048 --out target/trace-smoke
test -s target/trace-smoke/trace_scatter.json
grep -q '"ph"' target/trace-smoke/trace_scatter.json
grep -q '^ScatterAlloc,malloc,' target/trace-smoke/trace_latency_2048_TITANV.csv

# Benchmark build check: gmsbench is a package of its own outside the
# workspace, so nothing above compiles it. Its contract test needs no
# timing: it checks the printed metric names against BENCHMARK.json and
# runs one real traced warp_small_traced round through the trace recorder.
echo "==> cargo test --release --manifest-path gmsbench/Cargo.toml --test contract"
cargo test --release --offline -q --manifest-path gmsbench/Cargo.toml --test contract

# Live-telemetry smoke: a watched run must produce a schema-versioned JSON
# time-series with at least 10 sample windows, a parse-validated OpenMetrics
# exposition, and a per-window CSV the summarizer can read (DESIGN.md §15).
echo "==> repro watch smoke"
rm -rf target/watch-smoke
GMS_WORKERS="${GMS_WORKERS:-4}" cargo run --offline --release -q -p gpumem-bench --bin repro -- \
    watch -m scatter --scenario mixed --out target/watch-smoke
grep -q '"schema": 1' target/watch-smoke/telemetry_mixed.json
grep -q '"kind": "gms-telemetry"' target/watch-smoke/telemetry_mixed.json
grep -q '# EOF' target/watch-smoke/telemetry_mixed.prom
grep -q '^seq,' target/watch-smoke/telemetry_mixed.csv
test "$(($(wc -l < target/watch-smoke/telemetry_mixed.csv) - 2))" -ge 10

# Heap-safety static analysis: the full pass set (atomics ordering, offset
# arithmetic, hot-path panics/allocation, lock ordering, decorator
# forwarding) over the workspace. Any non-allowlisted finding fails the
# gate; every allowlist entry must carry a written reason.
echo "==> memlint --deny (all passes)"
cargo run --offline -q -p memlint -- --deny .

# The audit CLI consumes the same report: per-pass rollup table plus an
# audit.csv with a pass column, exit 2 on standing findings.
echo "==> repro audit smoke"
rm -rf target/audit-smoke
cargo run --offline --release -q -p gpumem-bench --bin repro -- \
    audit --out target/audit-smoke > /dev/null
head -2 target/audit-smoke/audit.csv | grep -q '^crate,pass,rule,standing,allowlisted'

# Loom model checking: the same allocator protocols, compiled against the
# cooperative-scheduling shim (--cfg loom) and exhaustively interleaved at
# small bounds. Separate target dir so the flag flip doesn't thrash the
# main incremental cache.
echo "==> loom model checks (--cfg loom)"
for crate in loom gpumem-core alloc-atomic alloc-scatter alloc-ouroboros \
    alloc-xmalloc alloc-regeff alloc-halloc gpu-sim; do
    echo "    -> $crate"
    RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom \
        cargo test --offline --release -q -p "$crate" --lib loom_
done

# Miri smoke (opt-in: MIRI=1). Interprets the ouroboros queue + regeff
# header units under the UB checker; skipped gracefully where the miri
# component isn't installed (e.g. offline containers).
if [[ "${MIRI:-0}" == "1" ]]; then
    if cargo miri --version >/dev/null 2>&1; then
        echo "==> cargo miri test (smoke)"
        cargo miri test --offline -q -p alloc-ouroboros --lib queues
        cargo miri test --offline -q -p alloc-regeff --lib header
    else
        echo "==> MIRI=1 set but 'cargo miri' is unavailable; skipping"
    fi
fi

echo "==> cargo clippy -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "All checks passed."
