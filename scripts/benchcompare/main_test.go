package main

import (
	"strings"
	"testing"
)

func bf(results ...map[string]any) *benchFile {
	return &benchFile{Benchtime: "1s", Count: len(results), Results: results}
}

func run(name string, nsop float64) map[string]any {
	return map[string]any{"name": name, "iterations": float64(100), "ns/op": nsop}
}

func TestAggregateFoldsRepeatedRuns(t *testing.T) {
	f := bf(run("BenchmarkX-1", 100), run("BenchmarkX-1", 120), run("BenchmarkX-1", 110))
	by, order := aggregate(f)
	if len(order) != 1 || order[0] != "BenchmarkX-1" {
		t.Fatalf("order = %v, want [BenchmarkX-1]", order)
	}
	st := by["BenchmarkX-1"]["ns/op"]
	if st.N != 3 {
		t.Fatalf("N = %d, want 3", st.N)
	}
	if st.Mean != 110 {
		t.Errorf("mean = %v, want 110", st.Mean)
	}
	if st.Spread != 10 {
		t.Errorf("spread = %v, want 10 (half-range of [100,120])", st.Spread)
	}
}

func TestAggregateSingleRunHasZeroSpread(t *testing.T) {
	by, _ := aggregate(bf(run("BenchmarkY-1", 50)))
	st := by["BenchmarkY-1"]["ns/op"]
	if st.N != 1 || st.Spread != 0 || st.Mean != 50 {
		t.Fatalf("stat = %+v, want {Mean:50 Spread:0 N:1}", st)
	}
}

func TestRegressionGate(t *testing.T) {
	cases := []struct {
		name     string
		old, new stat
		max      float64
		want     bool
	}{
		{"below threshold", stat{Mean: 100}, stat{Mean: 120}, 50, false},
		{"above threshold, no spread", stat{Mean: 100}, stat{Mean: 200}, 50, true},
		{"above threshold but spreads overlap",
			stat{Mean: 100, Spread: 40, N: 3}, stat{Mean: 200, Spread: 70, N: 3}, 50, false},
		{"above threshold, spreads disjoint",
			stat{Mean: 100, Spread: 5, N: 3}, stat{Mean: 200, Spread: 5, N: 3}, 50, true},
		{"report-only mode never fails", stat{Mean: 100}, stat{Mean: 1000}, 0, false},
		{"improvement never fails", stat{Mean: 200}, stat{Mean: 100}, 10, false},
		{"zero baseline, new above zero", stat{}, stat{Mean: 1, N: 3}, 30, true},
		{"zero baseline, new interval reaches zero", stat{}, stat{Mean: 1, Spread: 1, N: 3}, 30, false},
		{"zero baseline stays zero", stat{N: 3}, stat{N: 3}, 30, false},
		{"zero baseline, report-only", stat{}, stat{Mean: 5}, 0, false},
	}
	for _, c := range cases {
		if got := regression(c.old, c.new, c.max); got != c.want {
			t.Errorf("%s: regression = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestCompareReportsAndGates(t *testing.T) {
	oldF := bf(run("BenchmarkA-1", 100), run("BenchmarkA-1", 102),
		run("BenchmarkB-1", 100), run("BenchmarkB-1", 102))
	newF := bf(run("BenchmarkA-1", 300), run("BenchmarkA-1", 302), // clean 3x regression
		run("BenchmarkB-1", 101), run("BenchmarkB-1", 99)) // flat
	var out strings.Builder
	if failed := compare(&out, oldF, newF, 60, 0); !failed {
		t.Fatalf("compare did not fail on a 3x disjoint regression:\n%s", out.String())
	}
	report := out.String()
	if !strings.Contains(report, "REGRESSION") {
		t.Errorf("report lacks REGRESSION marker:\n%s", report)
	}
	if !strings.Contains(report, "±") {
		t.Errorf("report lacks mean±spread rendering:\n%s", report)
	}

	out.Reset()
	if failed := compare(&out, oldF, oldF, 60, 30); failed {
		t.Fatalf("self-comparison failed the gate:\n%s", out.String())
	}
}

func allocRun(name string, nsop, allocs float64) map[string]any {
	return map[string]any{"name": name, "iterations": float64(100), "ns/op": nsop, "allocs/op": allocs}
}

// TestAllocRegressionGate pins the allocs/op gate: a clean allocation
// regression fails even when ns/op is flat, and only when the alloc gate
// is armed.
func TestAllocRegressionGate(t *testing.T) {
	oldF := bf(allocRun("BenchmarkA-1", 100, 50), allocRun("BenchmarkA-1", 102, 50))
	newF := bf(allocRun("BenchmarkA-1", 101, 80), allocRun("BenchmarkA-1", 99, 80)) // +60% allocs, flat ns/op

	var out strings.Builder
	if failed := compare(&out, oldF, newF, 60, 30); !failed {
		t.Fatalf("compare did not fail on a +60%% alloc regression:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "allocs/op") || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("report lacks an allocs/op REGRESSION marker:\n%s", out.String())
	}

	out.Reset()
	if failed := compare(&out, oldF, newF, 60, 0); failed {
		t.Fatalf("disarmed alloc gate still failed:\n%s", out.String())
	}

	// Fewer allocations is an improvement, never a failure.
	out.Reset()
	if failed := compare(&out, newF, oldF, 60, 30); failed {
		t.Fatalf("alloc improvement failed the gate:\n%s", out.String())
	}
}

// TestZeroAllocBaselineGated pins the gate on an allocation-free
// benchmark: a zero allocs/op baseline that starts allocating fails.
func TestZeroAllocBaselineGated(t *testing.T) {
	oldF := bf(allocRun("BenchmarkHit-1", 300, 0), allocRun("BenchmarkHit-1", 310, 0))
	newF := bf(allocRun("BenchmarkHit-1", 305, 1), allocRun("BenchmarkHit-1", 300, 1))
	var out strings.Builder
	if failed := compare(&out, oldF, newF, 60, 30); !failed {
		t.Fatalf("compare did not fail when a 0 allocs/op baseline grew to 1:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("report lacks a REGRESSION marker:\n%s", out.String())
	}
	out.Reset()
	if failed := compare(&out, oldF, oldF, 60, 30); failed {
		t.Fatalf("zero baseline against itself failed the gate:\n%s", out.String())
	}
}

func TestCompareNoCommonBenchmarks(t *testing.T) {
	var out strings.Builder
	if failed := compare(&out, bf(run("BenchmarkA-1", 1)), bf(run("BenchmarkZ-1", 1)), 60, 30); failed {
		t.Fatal("disjoint files failed the gate")
	}
	if !strings.Contains(out.String(), "no benchmarks in common") {
		t.Errorf("report = %q, want no-benchmarks notice", out.String())
	}
}

// TestCompareReportsGoneBenchmarks pins the report for a baseline
// benchmark the new file lacks: one "gone" line, and no gate failure.
func TestCompareReportsGoneBenchmarks(t *testing.T) {
	oldF := bf(run("BenchmarkA-1", 100), run("BenchmarkGone-1", 100))
	newF := bf(run("BenchmarkA-1", 100))
	var out strings.Builder
	if failed := compare(&out, oldF, newF, 60, 30); failed {
		t.Fatalf("a vanished benchmark failed the gate:\n%s", out.String())
	}
	var gone []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "gone") {
			gone = append(gone, strings.TrimSpace(line))
		}
	}
	if len(gone) != 1 || !strings.HasPrefix(gone[0], "BenchmarkGone-1 ") {
		t.Errorf("gone lines = %q, want one for BenchmarkGone-1:\n%s", gone, out.String())
	}
}

// TestRetainedHeapGated pins the retained-heap gate: retained-KB/carrier is
// a lower-is-better cost metric gated at the alloc threshold, so a clean
// rise fails with ns/op and allocs/op flat, a fall passes, and a disarmed
// alloc gate only reports it.
func TestRetainedHeapGated(t *testing.T) {
	run := func(kb float64) map[string]any {
		return map[string]any{"name": "BenchmarkLoadWorld-1", "iterations": float64(1),
			"ns/op": float64(1e9), "allocs/op": float64(7e5), "retained-KB/carrier": kb}
	}
	oldF := bf(run(19.5), run(19.6))
	newF := bf(run(30.1), run(30.0)) // +54%

	var out strings.Builder
	if failed := compare(&out, oldF, newF, 60, 30); !failed {
		t.Fatalf("compare did not fail on a +54%% retained-heap regression:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "retained-KB/carrier") || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("report lacks a retained-KB/carrier REGRESSION marker:\n%s", out.String())
	}
	out.Reset()
	if failed := compare(&out, newF, oldF, 60, 30); failed {
		t.Fatalf("a retained-heap improvement failed the gate:\n%s", out.String())
	}
	out.Reset()
	if failed := compare(&out, oldF, newF, 60, 0); failed {
		t.Fatalf("disarmed alloc gate still failed on retained heap:\n%s", out.String())
	}
}
