#!/usr/bin/env bash
# The full local CI gate: build, test (serial and parallel), formatting,
# lints, and an experiment smoke run.
# Run from anywhere; operates on the workspace containing this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --workspace --release

# Workspace invariant lints + schedule-exhaustive interleaving models
# (crates/analysis): engine twin/parity coverage, budget-bypass, relaxed
# atomics, no-panic, error provenance — and an exhaustive check of every
# 2-3-worker interleaving of the SearchControl and Budget fork/cancel
# protocols. Runs early: it is fast and catches structural drift before
# the expensive test passes.
echo "==> pscds-lint (invariant lints + interleaving models)"
SECONDS=0
cargo run -q -p pscds-analysis --bin pscds-lint
echo "    lint + interleave pass: ${SECONDS}s"

# The JSON report must validate against its own schema and be
# byte-identical across two independent runs — the same determinism
# contract the engines are held to, applied to the lint tool itself.
echo "==> pscds-lint --format json (schema validation, byte-determinism)"
lint() { cargo run -q -p pscds-analysis --bin pscds-lint -- "$@"; }
lint --format json --no-interleave > target/lint-report.json
lint --format json --no-interleave > target/lint-report-rerun.json
cmp target/lint-report.json target/lint-report-rerun.json || {
    echo "lint JSON report is not byte-deterministic across runs" >&2
    exit 1
}
lint --validate-json target/lint-report.json

# The suppression census must match the checked-in baseline exactly:
# every added or removed lint-allow is a reviewed, deliberate diff, and
# the count is meant to ratchet down, never silently up.
echo "==> lint suppression baseline diff"
lint --suppressions > target/lint-suppressions.txt
diff -u scripts/lint_suppressions.baseline target/lint-suppressions.txt || {
    echo "suppression census drifted from scripts/lint_suppressions.baseline:" >&2
    echo "review the lint-allow changes, then update the baseline file" >&2
    exit 1
}

# The parallel execution layer promises bit-identical results for every
# thread count, so the suite runs twice: once pinned to the serial legacy
# path, once at the environment default (all available cores). Both
# passes deliberately use the debug profile: the DP and signature engines
# guard their invariants with debug_assert!, which only executes here —
# the release build above checks optimized compilation, these check
# semantics.
echo "==> cargo test (PSCDS_THREADS=1: serial legacy path, debug profile)"
PSCDS_THREADS=1 cargo test --workspace -q

echo "==> cargo test (default thread count, debug profile)"
cargo test --workspace -q

# The benchmark (crates/bench/src/bin/pscds-bench) is a package of its
# own, outside the workspace, so `cargo test --workspace` never sees its
# unit tests. They drive DeltaSession, count_dp_observed and
# compile_circuit end to end; run them against the shared target/.
echo "==> cargo test (pscds-bench package)"
CARGO_TARGET_DIR=target cargo test -q \
    --manifest-path crates/bench/src/bin/pscds-bench/Cargo.toml

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Smoke-run the E1 experiment binary: cross-checks the closed forms and
# the serial/parallel counters end to end, and asserts internally. The
# `--dp-scale-max 4` bench smoke runs the scaled Example 5.1 family at
# m ≤ 4 under both the exact DFS and the memoized DP — the binary
# asserts bit-identical totals and per-tuple confidences, so any DP
# divergence fails this step. It also emits BENCH_confidence.json and
# appends BENCH_history.jsonl in the single schema of
# `pscds_bench::schema` (engine, m, wall-ns, cache statistics); the
# smoke runs work in a scratch directory so the committed full-ladder
# numbers survive.
#
# The smoke run doubles as the observability determinism gate: the E1.6
# DP pass runs twice — serial and at 4 threads — each streaming a
# `--trace-out` JSONL trace, and the merged counter totals extracted
# from the two traces must be byte-identical (gauges are scheduling
# diagnostics and are excluded; see DESIGN.md §3.11).
echo "==> e1_example51 smoke run (DP parity at m <= 4, traced at 1 and 4 threads)"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
(cd "$smoke_dir" && cargo run \
    --manifest-path "$OLDPWD/Cargo.toml" \
    -p pscds-bench --release --bin e1_example51 -- \
    --dp-scale-max 4 --threads 1 --trace-out trace-serial.jsonl >/dev/null)
(cd "$smoke_dir" && cargo run \
    --manifest-path "$OLDPWD/Cargo.toml" \
    -p pscds-bench --release --bin e1_example51 -- \
    --dp-scale-max 4 --threads 4 --trace-out trace-par4.jsonl >/dev/null)
[ -s "$smoke_dir/BENCH_confidence.json" ] || {
    echo "bench smoke did not produce BENCH_confidence.json" >&2
    exit 1
}
grep -q '"engine": "dp"' "$smoke_dir/BENCH_confidence.json" || {
    echo "BENCH_confidence.json is missing DP engine records" >&2
    exit 1
}

echo "==> bench_validate (schema + trace validation, counter determinism diff)"
bench_validate() {
    cargo run -q --manifest-path "$OLDPWD/Cargo.toml" \
        -p pscds-bench --release --bin bench_validate -- "$@"
}
(cd "$smoke_dir" \
    && bench_validate BENCH_confidence.json \
    && bench_validate --history BENCH_history.jsonl \
    && bench_validate --jsonl trace-serial.jsonl \
    && bench_validate --jsonl trace-par4.jsonl \
    && bench_validate --counters trace-serial.jsonl > counters-serial.txt \
    && bench_validate --counters trace-par4.jsonl > counters-par4.txt)
[ -s "$smoke_dir/counters-serial.txt" ] || {
    echo "serial trace produced no counter totals" >&2
    exit 1
}
diff -u "$smoke_dir/counters-serial.txt" "$smoke_dir/counters-par4.txt" || {
    echo "counter totals differ between --threads 1 and --threads 4" >&2
    exit 1
}

# Step-attribution profiler gate (DESIGN.md §3.16): the summary must
# show the attribution invariant holding (span self-steps == the
# budget.ticks counter), and `pscds-trace diff` between the serial and
# 4-thread traces must see zero drift at threshold 0 — counters and
# histogram count/sum pairs are part of the determinism contract.
echo "==> pscds-trace (step-attribution summary + zero cross-thread drift)"
pscds_trace() {
    cargo run -q --manifest-path "$OLDPWD/Cargo.toml" \
        -p pscds-bench --release --bin pscds-trace -- "$@"
}
(cd "$smoke_dir" \
    && pscds_trace summary trace-serial.jsonl > profile-serial.txt \
    && pscds_trace critical-path trace-serial.jsonl > critical-serial.txt \
    && pscds_trace diff trace-serial.jsonl trace-par4.jsonl > trace-drift.txt)
attrib=$(awk '/^attributed steps:/ { print ($3 == $7) ? "ok" : "bad" }' \
    "$smoke_dir/profile-serial.txt")
[ "$attrib" = "ok" ] || {
    echo "step attribution broken: span self-steps != budget.ticks" >&2
    cat "$smoke_dir/profile-serial.txt" >&2
    exit 1
}
[ -s "$smoke_dir/critical-serial.txt" ] || {
    echo "pscds-trace critical-path produced no output" >&2
    exit 1
}
grep -q '(no differences)' "$smoke_dir/trace-drift.txt" || {
    echo "pscds-trace diff found cross-thread drift:" >&2
    cat "$smoke_dir/trace-drift.txt" >&2
    exit 1
}

# Wall-clock regression gate: the committed history has one record per
# benchmark id (trivially green — it documents the format); the smoke
# history accumulates a threads-1 and a threads-4 record per id, so the
# newest-vs-previous comparison really runs. The 900% headroom keeps a
# shared CI box from flaking while still catching order-of-magnitude
# regressions.
echo "==> bench_validate --regress (wall-clock history gate)"
cargo run -q -p pscds-bench --release --bin bench_validate -- \
    --regress BENCH_history.jsonl
(cd "$smoke_dir" && bench_validate --regress BENCH_history.jsonl 900)

# Fault suite: the robustness stack (DESIGN.md §3.12) end to end on the
# Example 5.1 catalog under two fault seeds. Seed A is a transient blip
# healed by the retry path — the answer must be byte-identical to a
# fault-free run (only the attempt counts differ, so the source-access
# banner is stripped before the diff). Seed B is a hard outage of S2:
# without --partial the run must exit 2, with --partial it must exit 4
# and emit interval brackets whose counters prove containment
# (interval.point_contained == interval.tuples) — and the whole traced
# replay must be byte-identical between --threads 1 and --threads 4.
echo "==> fault suite (replay determinism, retry convergence, interval containment)"
pscds_cli() { "$OLDPWD/target/release/pscds" "$@"; }
cat > "$smoke_dir/example51.pscds" <<'EOT'
source S1 {
  view: V1(x) <- R(x)
  completeness: 1/2
  soundness: 1/2
  extension: V1(a). V1(b).
}
source S2 {
  view: V2(x) <- R(x)
  completeness: 1/2
  soundness: 1/2
  extension: V2(b). V2(c).
}
EOT
printf 'seed: 7\ndefault { down: 0..1 }\n' > "$smoke_dir/transient.plan"
printf 'seed: 99\ndefault { fail: 1/8 }\nsource S2 { down: 0..100 }\n' \
    > "$smoke_dir/outage.plan"
(
    cd "$smoke_dir"
    pscds_cli confidence example51.pscds --padding 1 > plain.txt
    pscds_cli confidence example51.pscds --padding 1 \
        --fault-plan transient.plan --retries 2 > transient.txt
    # Strip the access block (the banner plus its indented status
    # lines): retried fetches differ only in attempt counts.
    awk '/^source access:$/ { skip = 1; next }
         skip && /^  / { next }
         { skip = 0; print }' transient.txt > transient-answer.txt
    diff -u plain.txt transient-answer.txt || {
        echo "retry-then-success answer differs from the fault-free run" >&2
        exit 1
    }

    status=0
    pscds_cli confidence example51.pscds --padding 1 \
        --fault-plan outage.plan > /dev/null 2> outage-err.txt || status=$?
    [ "$status" -eq 2 ] || {
        echo "hard outage without --partial must exit 2 (got $status)" >&2
        exit 1
    }
    grep -q "S2 unavailable" outage-err.txt

    for threads in 1 4; do
        status=0
        pscds_cli confidence example51.pscds --padding 1 \
            --fault-plan outage.plan --partial --threads "$threads" \
            --trace-out "fault-t$threads.jsonl" > "partial-t$threads.txt" \
            || status=$?
        [ "$status" -eq 4 ] || {
            echo "--partial under a hard outage must exit 4 (got $status)" >&2
            exit 1
        }
    done
    diff -u partial-t1.txt partial-t4.txt || {
        echo "partial answers differ between --threads 1 and --threads 4" >&2
        exit 1
    }
    bench_validate --counters fault-t1.jsonl > fault-counters-t1.txt
    bench_validate --counters fault-t4.jsonl > fault-counters-t4.txt
    diff -u fault-counters-t1.txt fault-counters-t4.txt || {
        echo "fault-replay counter totals differ across thread counts" >&2
        exit 1
    }
    tuples=$(awk '$1 == "interval.tuples" { print $2 }' fault-counters-t1.txt)
    contained=$(awk '$1 == "interval.point_contained" { print $2 }' fault-counters-t1.txt)
    [ -n "$tuples" ] && [ "$tuples" -gt 0 ] || {
        echo "partial run recorded no interval.tuples" >&2
        exit 1
    }
    [ "$tuples" = "$contained" ] || {
        echo "interval containment violated: $contained of $tuples brackets hold the point" >&2
        exit 1
    }
)

# Circuit gate (DESIGN.md §3.13): the compiled shared-node circuit must
# answer byte-identically to the DP engine on the Example 5.1 catalog at
# two thread counts (after stripping the engine banner and compile-stats
# lines, the only intentional difference), the metamorphic suite must
# hold end to end, and the E11 compile-once/query-many run must append a
# schema-valid "circuit" record to BENCH_history.jsonl — the binary
# itself asserts bit-identical answers and the ≥5× amortized speedup.
echo "==> circuit gate (DP parity at 2 thread counts, metamorphic suite, E11 amortization)"
cargo test -q --release --test circuit_metamorphic
(
    cd "$smoke_dir"
    for threads in 1 4; do
        pscds_cli confidence example51.pscds --padding 1 \
            --engine circuit --threads "$threads" > "circuit-t$threads.txt"
    done
    diff -u circuit-t1.txt circuit-t4.txt || {
        echo "circuit answers differ between --threads 1 and --threads 4" >&2
        exit 1
    }
    grep -q '^compile stats:' circuit-t1.txt || {
        echo "--engine circuit printed no compile stats" >&2
        exit 1
    }
    pscds_cli confidence example51.pscds --padding 1 --engine dp > dp.txt
    grep -v -e '^engine:' -e '^compile stats:' circuit-t1.txt > circuit-answer.txt
    grep -v '^engine:' dp.txt > dp-answer.txt
    diff -u circuit-answer.txt dp-answer.txt || {
        echo "circuit answer differs from the dp engine" >&2
        exit 1
    }
    cargo run -q --manifest-path "$OLDPWD/Cargo.toml" \
        -p pscds-bench --release --bin e11_circuit -- --queries 120 > e11.txt
    grep -q '"engine": "circuit"' BENCH_history.jsonl || {
        echo "E11 left no circuit record in BENCH_history.jsonl" >&2
        exit 1
    }
    bench_validate --history BENCH_history.jsonl > /dev/null
)

# Ladder gate (DESIGN.md §3.10): a catalog whose DFS rung trips a step
# cap and whose DP rung rescues it, traced at two thread counts. Eight
# sources with nine disjoint tuples each, completeness 0 and soundness
# 1/4 give ~7^8 feasible count vectors; the DP collapses them to a few
# hundred residual states. The answers and the counter totals must match
# across thread counts, `pscds-trace diff` must see zero drift, and the
# trace must record exactly one trip and one degradation.
echo "==> ladder gate (traced DFS -> DP rescue at 2 thread counts)"
cat > "$smoke_dir/wide.pscds" <<'EOT'
source S0 {
  view: V0(x) <- R(x)
  completeness: 0
  soundness: 1/4
  extension: V0(x0_0). V0(x0_1). V0(x0_2). V0(x0_3). V0(x0_4). V0(x0_5). V0(x0_6). V0(x0_7). V0(x0_8).
}
source S1 {
  view: V1(x) <- R(x)
  completeness: 0
  soundness: 1/4
  extension: V1(x1_0). V1(x1_1). V1(x1_2). V1(x1_3). V1(x1_4). V1(x1_5). V1(x1_6). V1(x1_7). V1(x1_8).
}
source S2 {
  view: V2(x) <- R(x)
  completeness: 0
  soundness: 1/4
  extension: V2(x2_0). V2(x2_1). V2(x2_2). V2(x2_3). V2(x2_4). V2(x2_5). V2(x2_6). V2(x2_7). V2(x2_8).
}
source S3 {
  view: V3(x) <- R(x)
  completeness: 0
  soundness: 1/4
  extension: V3(x3_0). V3(x3_1). V3(x3_2). V3(x3_3). V3(x3_4). V3(x3_5). V3(x3_6). V3(x3_7). V3(x3_8).
}
source S4 {
  view: V4(x) <- R(x)
  completeness: 0
  soundness: 1/4
  extension: V4(x4_0). V4(x4_1). V4(x4_2). V4(x4_3). V4(x4_4). V4(x4_5). V4(x4_6). V4(x4_7). V4(x4_8).
}
source S5 {
  view: V5(x) <- R(x)
  completeness: 0
  soundness: 1/4
  extension: V5(x5_0). V5(x5_1). V5(x5_2). V5(x5_3). V5(x5_4). V5(x5_5). V5(x5_6). V5(x5_7). V5(x5_8).
}
source S6 {
  view: V6(x) <- R(x)
  completeness: 0
  soundness: 1/4
  extension: V6(x6_0). V6(x6_1). V6(x6_2). V6(x6_3). V6(x6_4). V6(x6_5). V6(x6_6). V6(x6_7). V6(x6_8).
}
source S7 {
  view: V7(x) <- R(x)
  completeness: 0
  soundness: 1/4
  extension: V7(x7_0). V7(x7_1). V7(x7_2). V7(x7_3). V7(x7_4). V7(x7_5). V7(x7_6). V7(x7_7). V7(x7_8).
}
EOT
(
    cd "$smoke_dir"
    for threads in 1 4; do
        pscds_cli confidence wide.pscds --max-steps 100000 --threads "$threads" \
            --trace-out "ladder-t$threads.jsonl" > "ladder-t$threads.txt"
    done
    grep -q '^engine: dp' ladder-t1.txt || {
        echo "the DP rung did not rescue the tripped DFS rung" >&2
        exit 1
    }
    diff -u ladder-t1.txt ladder-t4.txt || {
        echo "ladder answers differ between --threads 1 and --threads 4" >&2
        exit 1
    }
    bench_validate --counters ladder-t1.jsonl > ladder-counters-t1.txt
    bench_validate --counters ladder-t4.jsonl > ladder-counters-t4.txt
    diff -u ladder-counters-t1.txt ladder-counters-t4.txt || {
        echo "ladder counter totals differ across thread counts" >&2
        exit 1
    }
    pscds_trace diff ladder-t1.jsonl ladder-t4.jsonl --threshold 0 > ladder-drift.txt || {
        echo "pscds-trace diff found ladder drift across thread counts:" >&2
        cat ladder-drift.txt >&2
        exit 1
    }
    grep -q '(no differences)' ladder-drift.txt
    for counter in budget.trips ladder.degradations; do
        value=$(awk -v c="$counter" '$1 == c { print $2 }' ladder-counters-t1.txt)
        [ "${value:-0}" -eq 1 ] || {
            echo "ladder trace recorded ${value:-no} $counter, expected 1" >&2
            exit 1
        }
    done
)

# Delta gate (DESIGN.md §3.14): replay a seeded update stream through
# the incremental maintenance session at two thread counts — the full
# rendered replay (epoch lines, final confidence table, maintenance
# summary) must be byte-identical, and the traced counter totals
# (including the delta.* maintenance counters) must match. The E10
# smoke run then checks the incremental route against per-epoch
# recompute (the binary asserts bit-identical verdicts, world counts,
# and confidences at every epoch) and must append schema-valid
# "incremental" records to BENCH_history.jsonl.
echo "==> delta gate (replay determinism at 2 thread counts, E10 smoke)"
cat > "$smoke_dir/stream.deltas" <<'EOT'
batch {
  source S1 {
    insert: V1(c).
  }
}
batch {
  source S1 {
    delete: V1(a).
  }
  source S2 {
    delete: V2(c).
  }
}
batch {
  source S1 {
    insert: V1(a).
  }
}
EOT
(
    cd "$smoke_dir"
    for threads in 1 4; do
        pscds_cli confidence example51.pscds --padding 1 \
            --deltas stream.deltas --threads "$threads" \
            --trace-out "delta-t$threads.jsonl" > "delta-t$threads.txt"
    done
    diff -u delta-t1.txt delta-t4.txt || {
        echo "delta replays differ between --threads 1 and --threads 4" >&2
        exit 1
    }
    grep -q '^delta maintenance:' delta-t1.txt || {
        echo "delta replay printed no maintenance summary" >&2
        exit 1
    }
    bench_validate --counters delta-t1.jsonl > delta-counters-t1.txt
    bench_validate --counters delta-t4.jsonl > delta-counters-t4.txt
    diff -u delta-counters-t1.txt delta-counters-t4.txt || {
        echo "delta-replay counter totals differ across thread counts" >&2
        exit 1
    }
    applied=$(awk '$1 == "delta.batches_applied" { print $2 }' delta-counters-t1.txt)
    [ -n "$applied" ] && [ "$applied" -eq 4 ] || {
        echo "delta replay recorded ${applied:-no} applied batches, expected 4" >&2
        exit 1
    }
    cargo run -q --manifest-path "$OLDPWD/Cargo.toml" \
        -p pscds-bench --release --bin e10_deltas -- --batches 6 > e10.txt
    grep -q '"engine": "incremental"' BENCH_history.jsonl || {
        echo "E10 left no incremental record in BENCH_history.jsonl" >&2
        exit 1
    }
    bench_validate --history BENCH_history.jsonl > /dev/null
)

echo "==> CI green"
