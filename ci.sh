#!/usr/bin/env bash
# Local CI gate: format, build, test, lint. Run from the repository root.
#
# The clippy step denies warnings on the crates that carry the
# panic-free contract (`nncell-obs`, `nncell-lp`, `nncell-core`,
# including the `vfs`/`wal`/`durable`/`memtable` modules and the fold
# machinery in `shard`, and `nncell-cells`); their crate-level `#![warn(clippy::unwrap_used)]`
# is promoted to an error here, so an `unwrap()` in library code fails
# the gate while tests stay exempt. A second clippy step denies every
# other warning in every target of the workspace (tests, benches, examples
# and binaries included), and a rustdoc step denies every doc warning.
#
# The crash-injection suite runs under a pinned fault-schedule seed so a
# red CI run is reproducible locally; override with e.g.
#   NNCELL_FAULT_SEED=12345 ./ci.sh
# to sweep a different tear pattern.
set -euo pipefail
cd "$(dirname "$0")"

echo "== format =="
# Every workspace member is rustfmt-clean; perfbench/ is not a member.
cargo fmt --all -- --check

echo "== build (release) =="
cargo build --release --workspace

echo "== tests =="
cargo test -q --workspace

echo "== crash injection (kill-at-every-syscall, seed ${NNCELL_FAULT_SEED:=424242}) =="
NNCELL_FAULT_SEED="$NNCELL_FAULT_SEED" cargo test -q --test crash_recovery

echo "== server robustness E2E (storm/shed, kill -9 recovery, SIGTERM drain) =="
# Subprocess tests against the real binary: admission control sheds a
# 2x-capacity storm with 429s, SIGKILL mid-write-storm recovers every
# acked insert bit-identically, SIGTERM drains and checkpoints leaving
# zero WAL replay debt. (Also run by `cargo test -q --workspace` above;
# repeated here so a red run names the failing robustness claim directly.)
cargo test -q -p nncell-cli --test server_e2e
cargo test -q -p nncell-server

echo "== clippy (panic-free library crates) =="
cargo clippy -p nncell-obs -p nncell-lp -p nncell-core -p nncell-cells -p nncell-server -p nncell-index --lib -- -D warnings -D clippy::unwrap_used

echo "== serving dependency gate (the server and the CLI do not link nncell-cells) =="
# The paper's NN-cells are a structure for experiments: the figure
# benches, the examples and the tests build them on demand. Nothing on
# the serving path may depend on them.
for pkg in nncell-server nncell-cli; do
    deps=$(cargo tree --offline -e normal -p "$pkg")
    if grep -q "nncell-cells" <<<"$deps"; then
        echo "serving dependency gate: $pkg depends on nncell-cells" >&2
        exit 1
    fi
    echo "$pkg: no nncell-cells dependency"
done

echo "== clippy (every workspace target: tests, benches, examples, binaries) =="
# Every target of every member, warnings denied; `unwrap()` stays allowed
# outside the library code the step above gates.
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (every workspace crate, warnings denied) =="
# A broken, private or ambiguous intra-doc link fails here, so a doc
# comment cannot keep pointing at an item that was renamed or deleted.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== query-engine bench smoke (fixed seed; writes BENCH_query_engine.json) =="
# Sequential vs parallel batch QPS on one fixed-seed workload; the bench
# itself asserts the parallel pass is bit-identical to the sequential one.
# Each timed pass is best-of-two, and the metrics A/B interleaves its
# control and instrumented arms, so the reported `metrics_overhead` is a
# real instrumentation tax (single-digit percent; the obs microbenches
# put it at tens of nanoseconds per record), not a one-off scheduler
# stall or allocator drift landing in one arm's numerator.
# CI runs a smoke scale that finishes in seconds on a small box; unset the
# overrides to run the bench's full default workload (100k points, d=16,
# 10k queries) on real hardware.
NNCELL_N="${NNCELL_N:-8000}" NNCELL_DIM="${NNCELL_DIM:-8}" \
    NNCELL_QUERIES="${NNCELL_QUERIES:-5000}" \
    cargo bench -p nncell-bench --bench query_engine

echo "== decomposition ablation smoke (pieces sweep; writes BENCH_ablation_decompose.json) =="
# Decomposition depth vs build cost vs candidates — the experiment behind
# the cost-model default of leaving `decompose_pieces` unset. The bench
# asserts every decomposed build answers bit-identically to the
# undecomposed one. CI shrinks the sweep so the deepest build stays fast;
# unset the overrides for the committed full sweep {1,2,4,8}.
NNCELL_N="${NNCELL_ABLATION_N:-1000}" NNCELL_DIM="${NNCELL_ABLATION_DIM:-8}" \
    NNCELL_QUERIES="${NNCELL_ABLATION_QUERIES:-500}" \
    NNCELL_PIECES_SWEEP="${NNCELL_PIECES_SWEEP:-1,4}" \
    NNCELL_BENCH_OUT="${NNCELL_ABLATION_OUT:-$PWD/target/BENCH_ablation_decompose.json}" \
    cargo bench -p nncell-bench --bench ablation_decompose

echo "== sharded bench smoke (S=1,2,4; writes BENCH_sharded.json) =="
# Build + batch QPS (median/min/max of 5 passes) and the mean
# evaluations and pages per query at several shard counts; the bench
# asserts every sharded pass is bit-identical to the S=1 pass, so this
# doubles as an end-to-end exactness check of the one-forest fan-out
# (every shard's tree in one MINDIST queue under one global k-best).
# Same smoke-scale philosophy as the query-engine bench above.
NNCELL_N="${NNCELL_SHARD_N:-8000}" NNCELL_DIM="${NNCELL_SHARD_DIM:-8}" \
    NNCELL_QUERIES="${NNCELL_SHARD_QUERIES:-2000}" \
    cargo bench -p nncell-bench --bench sharded

echo "== server bench smoke (HTTP QPS/p99/shed rate; writes BENCH_server.json) =="
# End-to-end serving throughput over real sockets plus overload behaviour
# at 2x capacity; the bench asserts every refused request is a clean
# `429 Retry-After`, never a dropped connection. Same smoke-scale
# philosophy as the benches above.
NNCELL_N="${NNCELL_SERVER_N:-4000}" NNCELL_DIM="${NNCELL_SERVER_DIM:-8}" \
    NNCELL_QUERIES="${NNCELL_SERVER_QUERIES:-800}" \
    NNCELL_SERVER_OVERLOAD_MS="${NNCELL_SERVER_OVERLOAD_MS:-800}" \
    cargo bench -p nncell-bench --bench server

echo "== repository benchmark smoke (perfbench knn_http + knn_inproc + ingest, 1 s each) =="
# Runs every workload of the repository benchmark (BENCHMARK.json)
# briefly and fails unless the result line reports every checked answer
# correct and no failed operation. `ingest` is the one workload that
# inserts, so it also drives the insert's duplicate probe; its setup
# builds 40 streams, so it takes 10–20 s rather than 1. `--trace 0`
# prints the end-to-end metrics only and writes nothing under
# perfbench/out/.
for workload in knn_http knn_inproc ingest; do
    result=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
    echo "$workload: $result"
    case "$result" in
        *'"correct":true'*'"failed":0,'*) ;;
        *)
            echo "perfbench smoke: FAIL — $workload did not finish correct with 0 failed" >&2
            exit 1
            ;;
    esac
done

echo "== build-scaling bench smoke (pooled vs exhaustive NN-cell construction) =="
# Times NnCells::build, the paper's structure, which is off the serving
# path (a serving build is an STR bulk load of milliseconds). Exercises
# the sub-quadratic pooled cell build end to end (approximate-kNN
# constraint pools, degeneracy fallback) and parity-checks every pooled
# build against a linear scan. CI runs a seconds-long smoke
# ladder and writes the JSON to target/ so it never clobbers the committed
# full-scale BENCH_build_scaling.json; to regenerate that file, run the
# bench with all overrides unset (defaults: n ∈ {8k, 32k, 128k}, d=8 —
# ~10 minutes on one core):
#   cargo bench -p nncell-bench --bench build_scaling
NNCELL_BUILD_NS="${NNCELL_BUILD_NS:-1000,2000}" \
    NNCELL_EXHAUSTIVE_CAP="${NNCELL_EXHAUSTIVE_CAP:-2000}" \
    NNCELL_ALLPAIRS_NS="${NNCELL_ALLPAIRS_NS:-300,600}" \
    NNCELL_BENCH_OUT="${NNCELL_BUILD_SCALING_OUT:-$PWD/target/BENCH_build_scaling.json}" \
    cargo bench -p nncell-bench --bench build_scaling

echo "== mixed read/write bench (O(1) ack vs index size; writes BENCH_mixed.json) =="
# The LSM write-path contract, asserted by the bench itself: memtable
# insert/remove ack p99 must stay flat across n ∈ {2k, 8k, 32k} (within
# 10x of the smallest size, 50 µs noise floor), and tail-merged answers
# must be bit-identical to the folded answers. Runs the full default
# sizes (seconds: a build is an STR bulk load) so the committed JSON
# proves the headline claim; NNCELL_MIXED_NS=500,2000 gives a quick
# local smoke.
cargo bench -p nncell-bench --bench mixed

echo "== public API surface gate =="
# tests/api_surface.rs dumps every `pub` item and compares against the
# committed snapshot; regenerate deliberately with
#   NNCELL_BLESS=1 cargo test --test api_surface
cargo test -q --test api_surface

# baseline_gate LABEL FILE FIELD floor|ceiling FACTOR REASON
# Compares the first FIELD value of the fresh FILE with the one in the
# last committed FILE: a floor gate fails when the fresh value is under
# FACTOR x baseline, a ceiling gate when it is over it, and REASON names
# the regression. Skipped when there is no committed baseline; a value
# missing from either file fails the gate.
baseline_gate() {
    local label=$1 file=$2 field=$3 kind=$4 factor=$5 reason=$6
    local baseline_json old cur
    if ! baseline_json=$(git show "HEAD:$file" 2>/dev/null); then
        echo "$label: no committed $file baseline; skipping"
        return 0
    fi
    # `|| true`: a file without the field yields no match, which the
    # parse check below reports.
    old=$(printf '%s' "$baseline_json" | grep -o "\"$field\": *[0-9.]*" | tr -dc '0-9.\n' | head -n1 || true)
    cur=$(grep -o "\"$field\": *[0-9.]*" "$file" | tr -dc '0-9.\n' | head -n1 || true)
    if [ -z "$old" ] || [ -z "$cur" ]; then
        echo "$label: could not parse $field (old='$old' cur='$cur')" >&2
        exit 1
    fi
    awk -v old="$old" -v cur="$cur" -v factor="$factor" -v kind="$kind" \
        -v label="$label" -v field="$field" -v reason="$reason" 'BEGIN {
        bound = factor * old;
        printf "%s: %s %.2f vs baseline %.2f (%s %.2f)\n", label, field, cur, old, kind, bound;
        if ((kind == "floor" && cur < bound) || (kind == "ceiling" && cur > bound)) {
            printf "%s: FAIL — %s\n", label, reason;
            exit 1;
        }
    }'
}

echo "== bench regression gate (sequential QPS vs committed baseline) =="
# Compare the fresh run against the last committed BENCH_query_engine.json.
# A drop of more than 25% in sequential QPS fails the gate; smaller swings
# are treated as machine noise. Skipped when there is no committed baseline
# (first run on a new checkout or the file was never committed).
baseline_gate "bench gate" BENCH_query_engine.json seq_qps floor 0.75 \
    "sequential QPS dropped more than 25%"

echo "== candidate-count gate (mean_candidates vs committed baseline) =="
# The MINDIST traversal's headline claim is how few streamed points lie
# within the running k-th-best bound (`mean_candidates`). The fresh smoke
# run's mean_candidates may exceed the committed baseline by at most 10%;
# a bigger jump means the pruning bounds or the traversal order regressed
# even if QPS happens to hide it. Skipped without a committed baseline.
baseline_gate "candidate gate" BENCH_query_engine.json mean_candidates ceiling 1.10 \
    "candidate count regressed more than 10%"

echo "== high-dimension evaluation-count gate (d=16/32 mean_examined vs committed baseline) =="
# BENCH_query_engine.json also measures the paper's regime: the same
# points at d = 16 and d = 32 (its `high_d` rows, one per line, after the
# main row, so the parsers above still read the main row's fields). The
# tree prunes little there, so the points a query evaluates are the work:
# for each high_d row of the fresh file, mean_examined may exceed the
# committed row of the same d by at most 10%. The count does not depend
# on the host. Skipped for a d the committed file has no row for.
if baseline_json=$(git show HEAD:BENCH_query_engine.json 2>/dev/null); then
    extract_high_d() {
        grep -o '"dim": *[0-9]*, *"seq_qps": *[0-9.]*, *"mean_examined": *[0-9.]*' |
            sed -E 's/"dim": *([0-9]+), *"seq_qps": *[0-9.]+, *"mean_examined": *([0-9.]+)/\1,\2/'
    }
    # `|| true`: a file without high_d rows yields no match, not a failure.
    old_rows=$(printf '%s' "$baseline_json" | extract_high_d || true)
    cur_rows=$(extract_high_d < BENCH_query_engine.json || true)
    if [ -z "$cur_rows" ]; then
        echo "high-d count gate: could not parse the high_d rows of BENCH_query_engine.json" >&2
        exit 1
    fi
    printf '%s\n' "$cur_rows" | awk -F, -v old="$old_rows" 'BEGIN {
        n = split(old, rows, "\n");
        for (i = 1; i <= n; i++) { if (split(rows[i], f, ",") == 2) base[f[1]] = f[2]; }
    }
    {
        if (!($1 in base)) {
            printf "high-d count gate: d=%d has no committed baseline; skipping it\n", $1;
            next;
        }
        ceil = 1.10 * base[$1];
        printf "high-d count gate: d=%d mean_examined %.2f vs baseline %.2f (ceiling %.2f)\n", $1, $2, base[$1], ceil;
        if ($2 > ceil) { failed = 1; }
    }
    END {
        if (failed) {
            printf "high-d count gate: FAIL — evaluations per high-dimension query regressed more than 10%%\n";
            exit 1;
        }
    }'
else
    echo "high-d count gate: no committed BENCH_query_engine.json baseline; skipping"
fi

echo "== sharded evaluation-count gate (S>1 mean_examined vs committed baseline) =="
# The one-forest fan-out's claim is how few points a sharded query
# evaluates: every shard is pruned by the global k-th distance. For each
# S > 1 row of the fresh BENCH_sharded.json, mean_examined may exceed the
# committed row for the same S by at most 10%; a bigger jump means the
# shards are searched apart again, or the shared bound stopped pruning.
# The count does not depend on the host. Skipped without a committed
# baseline.
if baseline_json=$(git show HEAD:BENCH_sharded.json 2>/dev/null); then
    extract_examined() { grep -o '"shards": *[0-9]*, *"mean_examined": *[0-9.]*' | tr -dc '0-9.,\n'; }
    old_rows=$(printf '%s' "$baseline_json" | extract_examined || true)
    cur_rows=$(extract_examined < BENCH_sharded.json || true)
    if [ -z "$cur_rows" ]; then
        echo "sharded count gate: could not parse mean_examined from BENCH_sharded.json" >&2
        exit 1
    fi
    if [ -z "$old_rows" ]; then
        echo "sharded count gate: committed BENCH_sharded.json records no mean_examined; skipping"
    else
        printf '%s\n' "$cur_rows" | awk -F, -v old="$old_rows" 'BEGIN {
            n = split(old, rows, "\n");
            for (i = 1; i <= n; i++) { split(rows[i], f, ","); base[f[1]] = f[2]; }
        }
        $1 > 1 {
            if (!($1 in base)) {
                printf "sharded count gate: S=%d has no committed baseline; skipping it\n", $1;
                next;
            }
            ceil = 1.10 * base[$1];
            printf "sharded count gate: S=%d mean_examined %.2f vs baseline %.2f (ceiling %.2f)\n", $1, $2, base[$1], ceil;
            if ($2 > ceil) { failed = 1; }
        }
        END {
            if (failed) {
                printf "sharded count gate: FAIL — evaluations per sharded query regressed more than 10%%\n";
                exit 1;
            }
        }'
    fi
else
    echo "sharded count gate: no committed BENCH_sharded.json baseline; skipping"
fi

echo "== tail-read candidate gate (BENCH_mixed tail-merged mean_candidates vs committed baseline) =="
# The memtable read path's claim is how few tail inserts a read offers to
# its k-best: the tail is scanned after the walk, under the walk's k-th
# bound. For each size row of the fresh BENCH_mixed.json, the storm's
# tail_read_mean_candidates may exceed the committed row for the same n
# by at most 10%; a bigger jump means the tail is offered ahead of the
# walk again, or its bound stopped pruning. The count does not depend on
# the host. Skipped when the committed file records no such field.
if baseline_json=$(git show HEAD:BENCH_mixed.json 2>/dev/null); then
    extract_tail() { grep -o '"n": *[0-9]*, *"tail_read_mean_candidates": *[0-9.]*' | tr -dc '0-9.,\n'; }
    old_rows=$(printf '%s' "$baseline_json" | extract_tail || true)
    cur_rows=$(extract_tail < BENCH_mixed.json || true)
    if [ -z "$cur_rows" ]; then
        echo "tail-read count gate: could not parse tail_read_mean_candidates from BENCH_mixed.json" >&2
        exit 1
    fi
    if [ -z "$old_rows" ]; then
        echo "tail-read count gate: committed BENCH_mixed.json records no tail_read_mean_candidates; skipping"
    else
        printf '%s\n' "$cur_rows" | awk -F, -v old="$old_rows" 'BEGIN {
            n = split(old, rows, "\n");
            for (i = 1; i <= n; i++) { split(rows[i], f, ","); base[f[1]] = f[2]; }
        }
        {
            if (!($1 in base)) {
                printf "tail-read count gate: n=%d has no committed baseline; skipping it\n", $1;
                next;
            }
            ceil = 1.10 * base[$1];
            printf "tail-read count gate: n=%d tail_read_mean_candidates %.2f vs baseline %.2f (ceiling %.2f)\n", $1, $2, base[$1], ceil;
            if ($2 > ceil) { failed = 1; }
        }
        END {
            if (failed) {
                printf "tail-read count gate: FAIL — candidates per tail-merged read regressed more than 10%%\n";
                exit 1;
            }
        }'
    fi
else
    echo "tail-read count gate: no committed BENCH_mixed.json baseline; skipping"
fi

echo "== tracing-overhead gate (sampling-off QPS within 2% of committed baseline) =="
# The tracing hot path with sampling off is one thread-local flag read
# per span site (plus one relaxed atomic load per request root) — cheap
# enough that sequential QPS must stay within 2% of the committed
# baseline, a far tighter bar than the 25% regression floor above. The
# committed BENCH_query_engine.json was blessed with the instrumentation
# in place, so a failure here means someone made the *disabled* path
# expensive (an allocation, a lock, a syscall), not that tracing exists.
baseline_gate "tracing gate" BENCH_query_engine.json seq_qps floor 0.98 \
    "sampling-off QPS more than 2% under baseline"

echo "== cell-construction gate (cell_build_seconds vs committed baseline) =="
# The pooled NN-cell construction path (NnCells::build) builds the
# paper's structure, which is off the serving path; this gate guards that
# structure's build speed the same way as query throughput, not the
# serving build.
# The serving index's own build_seconds is an STR bulk load of
# milliseconds, so the gate reads cell_build_seconds, which the bench
# times on the same points and configuration. The fresh smoke run may
# exceed the committed baseline by at most 25%. Skipped when there is no
# committed baseline.
baseline_gate "build gate" BENCH_query_engine.json cell_build_seconds ceiling 1.25 \
    "cell construction time regressed more than 25%"

echo "== server bench gate (HTTP QPS vs committed baseline) =="
# Same idea as above for the serving layer, with a looser 50% floor: the
# end-to-end number includes connection setup, JSON parsing, and thread
# scheduling, so it is noisier than the in-process QPS gate.
baseline_gate "server bench gate" BENCH_server.json qps floor 0.50 \
    "HTTP QPS dropped more than 50%"

echo "ci: all green"
