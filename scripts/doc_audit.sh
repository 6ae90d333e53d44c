#!/bin/sh
# doc-audit (flags + routes + metrics + baselines): every auricd
# command-line flag, HTTP route, and registered auric_* metric must be
# documented in OPERATIONS.md, every row of its Flags table must name a
# registered flag, and every benchmark a BENCH_*.json baseline names must
# still exist. The flag and route lists are extracted from
# cmd/auricd/main.go, the metric list from every non-test Go source in
# the repo — the registration calls are the single source of truth — so
# adding a flag, route, or metric without touching the runbook fails
# `make check`, not a reviewer's memory.
set -eu

src=cmd/auricd/main.go
ops=OPERATIONS.md
fail=0

# Flags: every flag.Type("name", ...) registration.
flags=$(sed -n 's/.*flag\.[A-Za-z0-9]*("\([^"]*\)".*/\1/p' "$src" | sort -u)
[ -n "$flags" ] || { echo "doc-audit: extracted no flags from $src (extraction broken?)"; exit 1; }
for f in $flags; do
    grep -q -- "-$f" "$ops" || {
        echo "doc-audit: auricd flag -$f is not documented in $ops"; fail=1; }
done

# And the reverse: every | `-flag` | row of the $ops Flags table must be
# a flag auricd registers, so a removed flag cannot leave its row behind.
docflags=$(sed -n '/^## Flags/,/^## /s/^| `-\([^`]*\)`.*/\1/p' "$ops" | sort -u)
[ -n "$docflags" ] || { echo "doc-audit: extracted no flag rows from $ops (extraction broken?)"; exit 1; }
for f in $docflags; do
    echo "$flags" | grep -qxF -- "$f" || {
        echo "doc-audit: $ops documents flag -$f, which auricd does not register"; fail=1; }
done

# Routes: every route(...)/handle(...) registration plus the direct
# method-qualified mux.Handle patterns (/metrics, /debug/traces).
routes=$( {
    sed -n 's/.*route("[A-Z]*", "\([^"]*\)".*/\1/p' "$src"
    sed -n 's/.*handle("[A-Z]*", "\([^"]*\)".*/\1/p' "$src"
    sed -n 's/.*mux\.Handle("[A-Z][A-Z]* \([^"]*\)".*/\1/p' "$src"
} | sort -u)
[ -n "$routes" ] || { echo "doc-audit: extracted no routes from $src (extraction broken?)"; exit 1; }
for r in $routes; do
    grep -qF "$r" "$ops" || {
        echo "doc-audit: auricd route $r is not documented in $ops"; fail=1; }
done

# Metrics: every "auric_..." name registered anywhere in non-test code.
# Test files are excluded by file path (a test registering a throwaway
# series is not part of the operational surface), and the auricload_*
# harness-internal histograms are out of scope by the name filter.
metrics=$(grep -rho --include='*.go' --exclude='*_test.go' '"auric_[a-z0-9_]*"' . \
    | tr -d '"' | sort -u)
[ -n "$metrics" ] || { echo "doc-audit: extracted no auric_* metrics (extraction broken?)"; exit 1; }
for m in $metrics; do
    grep -q -- "$m" "$ops" || {
        echo "doc-audit: metric $m is not listed in the $ops metrics catalogue"; fail=1; }
done

# Benchmark baselines: every benchmark a committed BENCH_*.json names must
# still be declared by some _test.go, so a deleted or renamed benchmark
# cannot leave rows behind that bench-compare then silently skips.
benchfuncs=$(grep -rhoE --include='*_test.go' '^func Benchmark[A-Za-z0-9_]*' . \
    | sed 's/^func //' | sort -u)
[ -n "$benchfuncs" ] || { echo "doc-audit: extracted no Benchmark functions (extraction broken?)"; exit 1; }
nbench=0
for f in BENCH_*.json; do
    [ -e "$f" ] || continue
    names=$(sed -n 's/.*"name": *"\(Benchmark[A-Za-z0-9_]*\).*/\1/p' "$f" | sort -u)
    [ -n "$names" ] || { echo "doc-audit: extracted no benchmark names from $f (extraction broken?)"; exit 1; }
    for b in $names; do
        nbench=$((nbench + 1))
        echo "$benchfuncs" | grep -qxF -- "$b" || {
            echo "doc-audit: $f has rows for $b, which no _test.go declares"; fail=1; }
    done
done

[ "$fail" -eq 0 ] || exit 1
nflags=$(echo "$flags" | wc -l | tr -d ' ')
ndocflags=$(echo "$docflags" | wc -l | tr -d ' ')
nroutes=$(echo "$routes" | wc -l | tr -d ' ')
nmetrics=$(echo "$metrics" | wc -l | tr -d ' ')
echo "doc-audit: every auricd flag ($nflags), route ($nroutes), and auric_* metric ($nmetrics) documented in $ops; its $ndocflags flag rows all registered; all $nbench baseline benchmarks declared"
