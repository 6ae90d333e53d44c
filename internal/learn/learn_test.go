package learn_test

import (
	"slices"
	"testing"

	"auric/internal/learn"
	_ "auric/internal/learn/cf"
	_ "auric/internal/learn/forest"
	_ "auric/internal/learn/knn"
	_ "auric/internal/learn/lasso"
	_ "auric/internal/learn/mlp"
	_ "auric/internal/learn/tree"
	"auric/internal/lte"
	"auric/internal/rng"
)

func TestRegistryHasAllLearners(t *testing.T) {
	want := []string{
		"collaborative-filtering",
		"decision-tree",
		"deep-neural-network",
		"k-nearest-neighbors",
		"lasso-regression",
		"random-forest",
	}
	got := learn.Names()
	if len(got) != len(want) {
		t.Fatalf("registry has %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	for _, n := range want {
		l, err := learn.New(n)
		if err != nil {
			t.Fatalf("New(%q): %v", n, err)
		}
		if l.Name() != n {
			t.Errorf("learner %q reports name %q", n, l.Name())
		}
	}
}

func TestNewUnknownLearner(t *testing.T) {
	if _, err := learn.New("gradient-boosting"); err == nil {
		t.Error("unknown learner did not error")
	}
}

func TestMajorityLabel(t *testing.T) {
	label, share := learn.MajorityLabel([]string{"a", "b", "a", "a"})
	if label != "a" || share != 0.75 {
		t.Errorf("MajorityLabel = %q/%v, want a/0.75", label, share)
	}
	// Ties break lexicographically for determinism.
	label, _ = learn.MajorityLabel([]string{"b", "a"})
	if label != "a" {
		t.Errorf("tie broke to %q, want a", label)
	}
	label, share = learn.MajorityLabel(nil)
	if label != "" || share != 0 {
		t.Error("empty input should yield empty label")
	}
}

// TestScopeAdmitsMatchesIDs pins the hashed membership test to the scope's
// sorted id list over empty, dense, sparse and far-apart id sets (ingest
// appends ids past the trained range), with duplicates and negative ids
// in the input.
func TestScopeAdmitsMatchesIDs(t *testing.T) {
	r := rng.New(7)
	sets := [][]lte.CarrierID{nil, {0}, {-3, 5, 5, 2}, {1 << 30, 0, 7}}
	for k := 0; k < 50; k++ {
		ids := make([]lte.CarrierID, r.Intn(200))
		span := 1 + r.Intn(5000)
		for i := range ids {
			ids[i] = lte.CarrierID(r.Intn(span))
		}
		sets = append(sets, ids)
	}
	for _, ids := range sets {
		sc := learn.NewScope(ids)
		got := sc.IDs()
		if !slices.IsSorted(got) || len(slices.Compact(slices.Clone(got))) != len(got) {
			t.Fatalf("IDs() = %v, want ascending and distinct", got)
		}
		for _, id := range ids {
			if want := id >= 0; sc.Admits(id) != want {
				t.Errorf("scope of %v: Admits(%d) = %v, want %v", ids, id, !want, want)
			}
		}
		for probe := lte.CarrierID(-2); probe < 5100; probe++ {
			_, want := slices.BinarySearch(got, probe)
			if sc.Admits(probe) != want {
				t.Fatalf("scope of %v: Admits(%d) = %v, want %v", ids, probe, !want, want)
			}
		}
	}
}
