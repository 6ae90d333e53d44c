#!/bin/sh
# bench-json: run the hot-path benchmarks and write the raw
# `go test -bench` output as machine-readable JSON — BENCH_cf.json for
# the dataset + CF learner suites (root package and internal/learn/cf),
# BENCH_core.json for the engine suite (internal/core),
# BENCH_learn.json for the tree/forest fit suite (internal/learn/tree
# and internal/learn/forest), and BENCH_serve.json for auricd's
# full-handler POST /v1/recommend suite (cmd/auricd). The JSON files
# are committed so EXPERIMENTS.md numbers stay reproducible and
# successive PRs can diff ns/op, B/op and allocs/op without re-reading
# prose.
#
# Usage: scripts/bench_json.sh [cf-out.json [core-out.json [learn-out.json [serve-out.json]]]]
# Env:   BENCHTIME (default 1s), COUNT (default 3; repeated runs per
#        benchmark let benchcompare fold mean±spread and gate regressions
#        statistically), SHORT=1 to skip the near-paper "large" scale,
#        SUITES (default "cf core learn serve") to regenerate a subset of the
#        baselines without re-measuring the others.
#
# Every go test run gets -timeout=60m: the root package's suite takes
# about 16 minutes at COUNT=3, past go test's default 10m.
set -eu

cf_out=${1:-BENCH_cf.json}
core_out=${2:-BENCH_core.json}
learn_out=${3:-BENCH_learn.json}
serve_out=${4:-BENCH_serve.json}
benchtime=${BENCHTIME:-1s}
count=${COUNT:-3}
suites=${SUITES:-"cf core learn serve"}
shortflag=""
[ "${SHORT:-0}" = "1" ] && shortflag="-short"

has_suite() { case " $suites " in *" $1 "*) return 0 ;; *) return 1 ;; esac }

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

# fold_json <raw-bench-output> <out.json>: one JSON record per Benchmark
# line with name, iterations, and every "value unit" metric pair. A failed
# go test run (a benchmark's b.Fatal, or the timeout) writes nothing, so a
# truncated result never replaces a baseline.
fold_json() {
    if grep -q '^FAIL' "$1"; then
        echo "bench-json: go test failed; $2 not written" >&2
        exit 1
    fi
    awk -v benchtime="$benchtime" -v count="$count" '
    BEGIN { printf "{\n  \"benchtime\": \"%s\",\n  \"count\": %s,\n  \"results\": [\n", benchtime, count }
    /^goos:/    { goos = $2 }
    /^goarch:/  { goarch = $2 }
    /^cpu:/     { sub(/^cpu: /, ""); cpu = $0 }
    /^Benchmark/ {
        if (n++) printf ",\n"
        printf "    {\"name\": \"%s\", \"iterations\": %s", $1, $2
        for (i = 3; i + 1 <= NF; i += 2)
            printf ", \"%s\": %s", $(i + 1), $i
        printf "}"
    }
    END {
        printf "\n  ],\n  \"goos\": \"%s\",\n  \"goarch\": \"%s\",\n  \"cpu\": \"%s\"\n}\n", goos, goarch, cpu
    }' "$1" >"$2"
    echo "bench-json: wrote $2 ($(grep -c '"name"' "$2") benchmarks)"
}

if has_suite cf; then
    echo "bench-json: running dataset + CF benchmarks (benchtime=$benchtime count=$count short=${SHORT:-0})"
    go test -run=NONE -bench=. -benchmem -benchtime="$benchtime" -count="$count" -timeout=60m $shortflag \
        . ./internal/learn/cf/ | tee "$tmp"
    fold_json "$tmp" "$cf_out"
fi

if has_suite core; then
    echo "bench-json: running engine benchmarks"
    go test -run=NONE -bench=. -benchmem -benchtime="$benchtime" -count="$count" -timeout=60m $shortflag \
        ./internal/core/ | tee "$tmp"
    fold_json "$tmp" "$core_out"
fi

if has_suite learn; then
    echo "bench-json: running tree/forest learner benchmarks"
    go test -run=NONE -bench=. -benchmem -benchtime="$benchtime" -count="$count" -timeout=60m $shortflag \
        ./internal/learn/tree/ ./internal/learn/forest/ | tee "$tmp"
    fold_json "$tmp" "$learn_out"
fi

if has_suite serve; then
    echo "bench-json: running auricd serve benchmarks"
    go test -run=NONE -bench=. -benchmem -benchtime="$benchtime" -count="$count" -timeout=60m $shortflag \
        ./cmd/auricd/ | tee "$tmp"
    fold_json "$tmp" "$serve_out"
fi
