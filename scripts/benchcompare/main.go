// Command benchcompare prints a benchstat-style comparison of two
// bench-json files (the machine-readable output of scripts/bench_json.sh):
// for every benchmark present in both files, each shared numeric metric is
// shown as old -> new with its relative delta, negative deltas being
// improvements for cost metrics (ns/op, B/op, allocs/op). A benchmark the
// old file has and the new one lacks gets a "gone" line; it never fails
// the gate.
//
// When a file holds repeated runs of the same benchmark (bench_json.sh
// with COUNT>1), the runs are folded into mean ± spread, where spread is
// the half-range (max-min)/2 — a cheap stand-in for a confidence interval
// that needs no distribution assumptions at the tiny sample sizes
// benchmarks use.
//
// Usage:
//
//	benchcompare [-max-regress PCT] [-max-alloc-regress PCT] old.json new.json
//
// With -max-regress N (the default in `make check` via MAX_REGRESS), an
// ns/op regression fails the run only when it is both large and
// resolvable: the mean delta exceeds N percent AND the spread intervals
// [mean-spread, mean+spread] of old and new do not overlap. A wobble on a
// noisy benchmark widens its interval and is reported but never fatal;
// with COUNT=1 there is no spread and the gate degenerates to the plain
// percentage check. -max-regress 0 is report-only.
//
// -max-alloc-regress applies the same large-and-resolvable rule to
// allocs/op (MAX_ALLOC_REGRESS in `make check`); a gated metric whose
// baseline is zero fails as soon as the new interval lies above zero. Allocation counts are
// nearly deterministic — their spread is usually zero — so this gate can
// sit much tighter than the timing one: it exists to catch a hot-path
// change that quietly reintroduces per-request garbage even when ns/op
// noise would hide it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

type benchFile struct {
	Benchtime string           `json:"benchtime"`
	Count     int              `json:"count"`
	Results   []map[string]any `json:"results"`
}

// stat is one metric of one benchmark folded across repeated runs.
type stat struct {
	Mean   float64
	Spread float64 // half-range: (max-min)/2, 0 for a single run
	N      int
}

// metricOrder lists the well-known metrics first; anything else a
// benchmark reports (rows, acc-%, carrier-us, ...) follows alphabetically.
var metricOrder = map[string]int{"ns/op": 0, "B/op": 1, "allocs/op": 2}

func main() {
	maxRegress := flag.Float64("max-regress", 0,
		"fail when any ns/op regression exceeds this percentage with non-overlapping spreads (0 = report only)")
	maxAllocRegress := flag.Float64("max-alloc-regress", 0,
		"fail when any allocs/op regression exceeds this percentage with non-overlapping spreads (0 = report only)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcompare [-max-regress PCT] [-max-alloc-regress PCT] old.json new.json")
		os.Exit(2)
	}
	oldF, err := load(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	newF, err := load(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("benchcompare: %s (benchtime=%s) -> %s (benchtime=%s)\n",
		flag.Arg(0), oldF.Benchtime, flag.Arg(1), newF.Benchtime)
	if compare(os.Stdout, oldF, newF, *maxRegress, *maxAllocRegress) {
		fmt.Fprintf(os.Stderr, "benchcompare: cost-metric regression above the gate (ns/op %.1f%%, allocs/op %.1f%%) with non-overlapping spreads\n",
			*maxRegress, *maxAllocRegress)
		os.Exit(1)
	}
}

// gateFor maps a metric to its regression threshold; metrics without a
// gate (B/op, custom metrics) are report-only.
func gateFor(metric string, maxRegress, maxAllocRegress float64) float64 {
	switch metric {
	case "ns/op":
		return maxRegress
	case "allocs/op":
		return maxAllocRegress
	}
	return 0
}

// compare writes the per-benchmark report to w and reports whether any
// gated metric (ns/op vs maxRegress, allocs/op vs maxAllocRegress) trips
// its regression gate.
func compare(w io.Writer, oldF, newF *benchFile, maxRegress, maxAllocRegress float64) bool {
	oldBy, oldOrder := aggregate(oldF)
	newBy, order := aggregate(newF)
	var failed bool
	matched := 0
	for _, name := range order {
		or, ok := oldBy[name]
		if !ok {
			continue
		}
		nr := newBy[name]
		matched++
		for _, metric := range sharedMetrics(or, nr) {
			ov, nv := or[metric], nr[metric]
			delta := "~"
			if ov.Mean != 0 {
				delta = fmt.Sprintf("%+.1f%%", (nv.Mean-ov.Mean)/ov.Mean*100)
			}
			if regression(ov, nv, gateFor(metric, maxRegress, maxAllocRegress)) {
				delta += " REGRESSION"
				failed = true
			}
			fmt.Fprintf(w, "  %-52s %-10s %20s -> %-20s %s\n",
				name, metric, formatStat(ov), formatStat(nv), delta)
		}
	}
	for _, name := range oldOrder {
		if _, ok := newBy[name]; !ok {
			fmt.Fprintf(w, "  %-52s gone: in the old file only\n", name)
		}
	}
	if matched == 0 {
		fmt.Fprintln(w, "  (no benchmarks in common)")
	}
	return failed
}

// regression reports whether new is a gate-tripping regression over old
// for one metric: mean delta above gate percent and the two spread
// intervals disjoint, so measurement noise wide enough to explain the
// delta suppresses the failure. A zero baseline (an allocation-free hot
// path) has no relative delta: any rise whose interval clears zero trips
// the gate.
func regression(old, new stat, gate float64) bool {
	if gate <= 0 {
		return false
	}
	if old.Mean == 0 {
		return new.Mean-new.Spread > 0
	}
	pct := (new.Mean - old.Mean) / old.Mean * 100
	return pct > gate && new.Mean-new.Spread > old.Mean+old.Spread
}

func load(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// aggregate folds repeated runs of each benchmark into per-metric stats,
// returning the stats by name plus the names in first-appearance order.
func aggregate(f *benchFile) (map[string]map[string]stat, []string) {
	samples := make(map[string]map[string][]float64)
	var order []string
	for _, r := range f.Results {
		name, ok := r["name"].(string)
		if !ok {
			continue
		}
		m, seen := samples[name]
		if !seen {
			m = make(map[string][]float64)
			samples[name] = m
			order = append(order, name)
		}
		for k, v := range r {
			if k == "name" || k == "iterations" {
				continue
			}
			if x, isNum := v.(float64); isNum {
				m[k] = append(m[k], x)
			}
		}
	}
	out := make(map[string]map[string]stat, len(samples))
	for name, metrics := range samples {
		st := make(map[string]stat, len(metrics))
		for k, xs := range metrics {
			st[k] = fold(xs)
		}
		out[name] = st
	}
	return out, order
}

func fold(xs []float64) stat {
	sum, lo, hi := 0.0, xs[0], xs[0]
	for _, x := range xs {
		sum += x
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return stat{Mean: sum / float64(len(xs)), Spread: (hi - lo) / 2, N: len(xs)}
}

// sharedMetrics lists the metrics present in both benchmarks, well-known
// cost metrics first.
func sharedMetrics(or, nr map[string]stat) []string {
	var out []string
	for k := range nr {
		if _, inOld := or[k]; inOld {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		oi, iOK := metricOrder[out[i]]
		oj, jOK := metricOrder[out[j]]
		switch {
		case iOK && jOK:
			return oi < oj
		case iOK:
			return true
		case jOK:
			return false
		default:
			return out[i] < out[j]
		}
	})
	return out
}

func formatStat(s stat) string {
	if s.N <= 1 || s.Mean == 0 {
		return formatNum(s.Mean)
	}
	return fmt.Sprintf("%s ±%.0f%%", formatNum(s.Mean), s.Spread/s.Mean*100)
}

func formatNum(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcompare:", err)
	os.Exit(1)
}
