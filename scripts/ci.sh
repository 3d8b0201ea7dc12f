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
echo "==> circuit gate (DP parity at 2 thread counts, metamorphic suite, warm-query allocations, E11 amortization)"
cargo test -q --release --test circuit_metamorphic
# The benchmark runs release builds: a warm circuit query must allocate
# the same at every catalog size under that profile too.
cargo test -q --release -p pscds-core --test query_alloc
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
    # The compile structure of Example 5.1 at padding 1 is pinned: a
    # change in any of these sizes is a compile regression even when
    # every confidence still comes out right.
    stats_line='compile stats: 9 nodes (11 exact residual states, 2 shared), 16 edges'
    grep -qx "$stats_line" circuit-t1.txt || {
        echo "--engine circuit did not print '$stats_line'" >&2
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

# Catalog table gate (DESIGN.md §3.2): a generated 4-source catalog of
# ~2.3k distinct R/2 tuples (3.5k extension tuples), whose table has
# ~2k rows tied at confidence 1 and three classes below it. The output
# must be byte-identical at 1 and 4 threads and hash to the value the
# per-tuple table printed before the per-class ranking replaced it.
echo "==> catalog table gate (generated 4-source catalog, pinned sha256)"
seq 0 2999 | awk '
    function member(i, k) {
        if (i == 1) return k % 2 == 0
        if (i == 2) return k % 3 == 0
        if (i == 3) return k % 5 == 0
        return k % 7 == 0
    }
    function src(i, c, s,    k) {
        printf "source S%d {\n  view: V%d(x, y) <- R(x, y)\n", i, i
        printf "  completeness: %s\n  soundness: %s\n  extension:", c, s
        for (k = 0; k < n; k++) if (member(i, k)) printf " V%d(n%d, %d).", i, k, k % 10
        printf "\n}\n"
    }
    { n++ }
    END {
        src(1, "0", "1")
        src(2, "0", "1")
        src(3, "1/10", "597/600")
        src(4, "1/8", "427/429")
    }' > "$smoke_dir/catalog.pscds"
(
    cd "$smoke_dir"
    for threads in 1 4; do
        pscds_cli confidence catalog.pscds --padding 4 --threads "$threads" \
            > "catalog-t$threads.txt"
    done
    diff -u catalog-t1.txt catalog-t4.txt || {
        echo "catalog tables differ between --threads 1 and --threads 4" >&2
        exit 1
    }
    pinned=535d698fba851e6b66074c4678e0be34c3a2a5e0dcf3f800792fd0f35ba37218
    actual=$(sha256sum catalog-t1.txt | cut -d' ' -f1)
    [ "$actual" = "$pinned" ] || {
        echo "catalog table hash $actual differs from the pinned $pinned" >&2
        exit 1
    }
)

# Catalog parse gate (DESIGN.md §3.2): quoted constants may hold `#`,
# `'` and `//` beside real comments. Such a catalog must keep every
# constant through `pscds info` (8 extension tuples) and print the same
# table at 1 and 4 threads with the quoted symbols intact. A malformed
# extension on line 5 must exit 2 and name its line and column.
echo "==> catalog parse gate (quoted comment characters, positioned errors)"
cat > "$smoke_dir/quoted.pscds" <<'EOT'
# Constants that hold comment characters and quotes.
source S1 {   // a comment
  view: V1(x) <- R(x)   % a comment
  completeness: 1/4     # a comment
  soundness: 1/2
  extension: V1('a#b'). V1("it's"). V1('c//d'). # a comment
  extension: V1('50%'). V1(plain). // a comment
}
source S2 {
  view: V2(x) <- R(x)
  soundness: 1
  extension: V2('a#b'). V2("it's"). V2(other).
}
EOT
printf 'source S {\n  view: V(x) <- R(x)\n  soundness: 1\n  # the next line is malformed\n  extension: V(a). V(b.\n}\n' \
    > "$smoke_dir/malformed.pscds"
(
    cd "$smoke_dir"
    pscds_cli info quoted.pscds > quoted-info.txt
    grep -qx 'Σ|v_i| = 8' quoted-info.txt || {
        echo "pscds info lost constants of quoted.pscds:" >&2
        cat quoted-info.txt >&2
        exit 1
    }
    for threads in 1 4; do
        pscds_cli confidence quoted.pscds --padding 1 --threads "$threads" \
            > "quoted-t$threads.txt"
    done
    diff -u quoted-t1.txt quoted-t4.txt || {
        echo "quoted-constant tables differ between --threads 1 and --threads 4" >&2
        exit 1
    }
    for row in 'R(a#b)  1' "R(it's)  1" 'R(c//d)  4/7' 'R(50%)  4/7'; do
        grep -qF "  $row  " quoted-t1.txt || {
            echo "quoted-constant table lacks the row '$row'" >&2
            exit 1
        }
    done
    status=0
    pscds_cli confidence malformed.pscds > /dev/null 2> malformed-err.txt || status=$?
    [ "$status" -eq 2 ] || {
        echo "a malformed catalog must exit 2 (got $status)" >&2
        exit 1
    }
    grep -q 'line 5, column' malformed-err.txt || {
        echo "the malformed catalog's error names no line and column:" >&2
        cat malformed-err.txt >&2
        exit 1
    }
)

# Ladder gate (DESIGN.md §3.10): a catalog whose planned exact rung
# picks the DP, traced at two thread counts. Eight sources with nine
# disjoint tuples each, completeness 0 and soundness 1/4 give ~7^8
# feasible count vectors, 9,608,001 DFS steps under a 100k-step cap; the
# DP collapses them to eight residual states. The answers and the
# counter totals must match across thread counts, `pscds-trace diff`
# must see zero drift, the trace must record no trip, no degradation and
# the plan event with the DFS's exact predicted steps, and the DP's
# state count must be the untraced serial one.
echo "==> ladder gate (traced planned DP at 2 thread counts)"
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
    grep -q '^engine: dp — the plan predicted' ladder-t1.txt || {
        echo "the planned rung did not pick the DP" >&2
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
        [ "${value:-0}" -eq 0 ] || {
            echo "ladder trace recorded ${value:-no} $counter, expected 0" >&2
            exit 1
        }
    done
    for threads in 1 4; do
        grep -q '"name":"ladder.plan".*"dfs_steps":"9608001".*"engine":"dp"' \
            "ladder-t$threads.jsonl" || {
            echo "ladder trace at --threads $threads lacks the plan event predicting" \
                "9608001 DFS steps" >&2
            exit 1
        }
    done
    # The DP does the serial work at every thread count, traced or not:
    # both traces must report the residual-state count that an untraced
    # serial count_dp_observed run reports for this catalog.
    serial_misses=8
    for threads in 1 4; do
        misses=$(awk '$1 == "dp.cache_misses" { print $2 }' "ladder-counters-t$threads.txt")
        [ "${misses:-none}" = "$serial_misses" ] || {
            echo "ladder DP at --threads $threads evaluated ${misses:-no} residual states," \
                "the untraced serial run $serial_misses" >&2
            exit 1
        }
    done
)

# Second ladder gate catalog: scaled Example 5.1 at r = 8 (padding 8),
# where the plan picks the DFS (2,185 predicted steps against 2,926 DP
# folds). The prediction must be exact: the plain DFS finishes under
# exactly that step cap and trips one step below it, and the planned
# answer matches the DFS's table at both thread counts.
echo "==> ladder gate (planned DFS with an exact step prediction)"
{
    printf 'source S1 {\n  view: V1(x) <- R(x)\n  completeness: 1/2\n  soundness: 1/2\n  extension:'
    for i in 1 2 3 4 5 6 7 8; do printf ' V1(a%d).' "$i"; done
    for i in 1 2 3 4 5 6 7 8; do printf ' V1(b%d).' "$i"; done
    printf '\n}\nsource S2 {\n  view: V2(x) <- R(x)\n  completeness: 1/2\n  soundness: 1/2\n  extension:'
    for i in 1 2 3 4 5 6 7 8; do printf ' V2(b%d).' "$i"; done
    for i in 1 2 3 4 5 6 7 8; do printf ' V2(c%d).' "$i"; done
    printf '\n}\n'
} > "$smoke_dir/scaled8.pscds"
(
    cd "$smoke_dir"
    for threads in 1 4; do
        pscds_cli confidence scaled8.pscds --padding 8 --threads "$threads" \
            --trace-out "plan-t$threads.jsonl" > "plan-t$threads.txt"
    done
    diff -u plan-t1.txt plan-t4.txt || {
        echo "planned answers differ between --threads 1 and --threads 4" >&2
        exit 1
    }
    pscds_trace diff plan-t1.jsonl plan-t4.jsonl --threshold 0 > plan-drift.txt || {
        echo "pscds-trace diff found planned-rung drift across thread counts:" >&2
        cat plan-drift.txt >&2
        exit 1
    }
    grep -q '(no differences)' plan-drift.txt
    predicted=$(grep -o '"name":"ladder.plan".*"dfs_steps":"[0-9]*".*"engine":"exact"' \
        plan-t1.jsonl | grep -o '"dfs_steps":"[0-9]*"' | grep -o '[0-9]*')
    [ "${predicted:-none}" = 2185 ] || {
        echo "the plan predicted ${predicted:-no} DFS steps for the DFS, expected 2185" >&2
        exit 1
    }
    pscds_cli confidence scaled8.pscds --padding 8 --threads 1 --engine signature \
        --max-steps "$predicted" > plan-dfs.txt
    diff -u plan-t1.txt <(tail -n +2 plan-dfs.txt) || {
        echo "the planned DFS answer differs from the plain DFS's" >&2
        exit 1
    }
    status=0
    pscds_cli confidence scaled8.pscds --padding 8 --threads 1 --engine signature \
        --max-steps "$((predicted - 1))" > /dev/null 2>&1 || status=$?
    [ "$status" -eq 3 ] || {
        echo "the DFS finished under $((predicted - 1)) steps: the prediction is not exact" >&2
        exit 1
    }
)

# Delta gate (DESIGN.md §3.14): replay a seeded update stream through
# the incremental maintenance session at two thread counts — the full
# rendered replay (epoch lines, final confidence table, maintenance
# summary) must be byte-identical, and the traced counter totals
# (including the delta.* maintenance counters) must match. A second
# stream patches: two sources whose soundness claims sit on a ceiling
# plateau, and one batch moving a1 from S1 to S2, which changes two
# class sizes but no bound. Its replay must patch nodes without a
# recompile, match at two thread counts, and end on the table the
# circuit engine prints for the hand-applied catalog. A third stream
# gives S1 a fresh a4: its ceiling stays at 2, but the session's fixed
# universe shrinks the padding (the last class) from 3 to 2, so the
# batch must recompile with no node patched and end on the circuit
# engine's table at padding 2. The E10
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

    plateau() {
        printf 'source S1 {\n  view: V1(x) <- R(x)\n  completeness: 1/2\n'
        printf '  soundness: 1/4\n  extension:%s\n}\n' "$1"
        printf 'source S2 {\n  view: V2(x) <- R(x)\n  completeness: 1/2\n'
        printf '  soundness: 1/4\n  extension:%s\n}\n' "$2"
    }
    plateau ' V1(a1). V1(a2). V1(a3). V1(b1). V1(b2). V1(b3).' \
        ' V2(b1). V2(b2). V2(b3). V2(c1). V2(c2). V2(c3).' > plateau.pscds
    plateau ' V1(a2). V1(a3). V1(b1). V1(b2). V1(b3).' \
        ' V2(a1). V2(b1). V2(b2). V2(b3). V2(c1). V2(c2). V2(c3).' > plateau-moved.pscds
    printf 'batch {\n  source S1 {\n    delete: V1(a1).\n  }\n' > move.deltas
    printf '  source S2 {\n    insert: V2(a1).\n  }\n}\n' >> move.deltas
    for threads in 1 4; do
        pscds_cli confidence plateau.pscds --padding 3 \
            --deltas move.deltas --threads "$threads" > "patch-t$threads.txt"
    done
    diff -u patch-t1.txt patch-t4.txt || {
        echo "patching delta replays differ between --threads 1 and --threads 4" >&2
        exit 1
    }
    summary=$(grep '^delta maintenance:' patch-t1.txt)
    patched=$(echo "$summary" | grep -o '[0-9]* node(s) patched' | grep -o '^[0-9]*')
    [ "${patched:-0}" -gt 0 ] && echo "$summary" | grep -q ' 0 recompile(s)' || {
        echo "the plateau stream did not patch without a recompile: $summary" >&2
        exit 1
    }
    pscds_cli confidence plateau-moved.pscds --padding 3 --engine circuit > moved.txt
    grep -v -e '^delta replay:' -e '^epoch ' -e '^delta maintenance:' patch-t1.txt \
        > patch-answer.txt
    grep -v -e '^engine:' -e '^compile stats:' moved.txt > moved-answer.txt
    diff -u patch-answer.txt moved-answer.txt || {
        echo "the patched table differs from the circuit engine's on the moved catalog" >&2
        exit 1
    }

    printf 'batch {\n  source S1 {\n    insert: V1(a4).\n  }\n}\n' > grow.deltas
    for threads in 1 4; do
        pscds_cli confidence plateau.pscds --padding 3 \
            --deltas grow.deltas --threads "$threads" > "grow-t$threads.txt"
    done
    diff -u grow-t1.txt grow-t4.txt || {
        echo "growing delta replays differ between --threads 1 and --threads 4" >&2
        exit 1
    }
    summary=$(grep '^delta maintenance:' grow-t1.txt)
    echo "$summary" | grep -q ' 0 node(s) patched' \
        && echo "$summary" | grep -q ' 1 recompile(s)' || {
        echo "the last-class batch did not recompile without patching: $summary" >&2
        exit 1
    }
    plateau ' V1(a1). V1(a2). V1(a3). V1(a4). V1(b1). V1(b2). V1(b3).' \
        ' V2(b1). V2(b2). V2(b3). V2(c1). V2(c2). V2(c3).' > plateau-grown.pscds
    pscds_cli confidence plateau-grown.pscds --padding 2 --engine circuit > grown.txt
    grep -v -e '^delta replay:' -e '^epoch ' -e '^delta maintenance:' grow-t1.txt \
        > grow-answer.txt
    grep -v -e '^engine:' -e '^compile stats:' grown.txt > grown-answer.txt
    diff -u grow-answer.txt grown-answer.txt || {
        echo "the recompiled table differs from the circuit engine's on the grown catalog" >&2
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
