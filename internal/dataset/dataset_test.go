package dataset

import (
	"testing"

	"auric/internal/lte"
	"auric/internal/netsim"
	"auric/internal/paramspec"
)

func world() *netsim.World {
	return netsim.Generate(netsim.Options{Seed: 5, Markets: 2, ENodeBsPerMarket: 16})
}

func TestBuildSingular(t *testing.T) {
	w := world()
	pi := w.Schema.IndexOf("capacityThreshold")
	tb := Build(w.Net, w.X2, w.Current, pi, nil)
	if tb.Len() != len(w.Net.Carriers) {
		t.Fatalf("table has %d rows, want one per carrier (%d)", tb.Len(), len(w.Net.Carriers))
	}
	if len(tb.ColNames) != int(lte.NumAttributes) {
		t.Fatalf("column count %d", len(tb.ColNames))
	}
	for i, s := range tb.Sites {
		if s.To != -1 {
			t.Fatal("singular site has a neighbor")
		}
		if got := w.Current.Get(s.From, pi); got != tb.Values[i] {
			t.Fatalf("row %d value %v != config %v", i, tb.Values[i], got)
		}
		if tb.Labels[i] != tb.Spec.Format(tb.Values[i]) {
			t.Fatalf("row %d label %q mismatch", i, tb.Labels[i])
		}
	}
}

func TestBuildPairWise(t *testing.T) {
	w := world()
	pi := w.Schema.IndexOf("hysA3Offset")
	tb := Build(w.Net, w.X2, w.Current, pi, nil)
	if tb.Len() == 0 {
		t.Fatal("empty pair-wise table")
	}
	wantCols := 2 * int(lte.NumAttributes)
	if len(tb.ColNames) != wantCols {
		t.Fatalf("column count %d, want %d", len(tb.ColNames), wantCols)
	}
	edges := 0
	for ci := range w.Net.Carriers {
		edges += len(w.X2.CarrierNeighbors(lte.CarrierID(ci)))
	}
	if tb.Len() != edges {
		t.Fatalf("table rows %d, want %d (one per directed relation)", tb.Len(), edges)
	}
	for i, s := range tb.Sites {
		if s.To < 0 {
			t.Fatal("pair-wise site missing neighbor")
		}
		v, ok := w.Current.GetPair(s.From, s.To, pi)
		if !ok || v != tb.Values[i] {
			t.Fatalf("row %d value mismatch", i)
		}
	}
}

func TestMarketFilter(t *testing.T) {
	w := world()
	pi := w.Schema.IndexOf("pMax")
	tb := Build(w.Net, w.X2, w.Current, pi, MarketFilter(w.Net, 0))
	if tb.Len() == 0 || tb.Len() >= len(w.Net.Carriers) {
		t.Fatalf("market filter kept %d of %d rows", tb.Len(), len(w.Net.Carriers))
	}
	for _, s := range tb.Sites {
		if w.Net.Carriers[s.From].Market != 0 {
			t.Fatal("filter leaked another market")
		}
	}
}

func TestFoldsPartition(t *testing.T) {
	w := world()
	pi := w.Schema.IndexOf("pMax")
	tb := Build(w.Net, w.X2, w.Current, pi, nil)
	folds := tb.GroupedFolds(5, 42)
	if len(folds) != 5 {
		t.Fatalf("folds = %d", len(folds))
	}
	seen := make([]bool, tb.Len())
	total := 0
	for _, f := range folds {
		total += len(f)
		for _, i := range f {
			if seen[i] {
				t.Fatalf("row %d appears in two folds", i)
			}
			seen[i] = true
		}
	}
	if total != tb.Len() {
		t.Fatalf("folds cover %d of %d rows", total, tb.Len())
	}
	// Near-equal sizes: pMax is singular, one row per carrier.
	for _, f := range folds {
		if len(f) < tb.Len()/5-1 || len(f) > tb.Len()/5+1 {
			t.Fatalf("unbalanced fold size %d", len(f))
		}
	}
	// Deterministic for equal seeds.
	again := tb.GroupedFolds(5, 42)
	for i := range folds {
		for j := range folds[i] {
			if folds[i][j] != again[i][j] {
				t.Fatal("folds not deterministic")
			}
		}
	}
}

func TestTrainTest(t *testing.T) {
	w := world()
	pi := w.Schema.IndexOf("pMax")
	tb := Build(w.Net, w.X2, w.Current, pi, nil)
	folds := tb.GroupedFolds(4, 1)
	train, test := TrainTest(folds, 2)
	if len(train)+len(test) != tb.Len() {
		t.Fatal("train+test != all")
	}
	inTest := map[int]bool{}
	for _, i := range test {
		inTest[i] = true
	}
	for _, i := range train {
		if inTest[i] {
			t.Fatal("train and test overlap")
		}
	}
}

func TestSubsetAndSample(t *testing.T) {
	w := world()
	pi := w.Schema.IndexOf("pMax")
	tb := Build(w.Net, w.X2, w.Current, pi, nil)
	sub := tb.Subset([]int{0, 2, 4})
	if sub.Len() != 3 || sub.Values[1] != tb.Values[2] {
		t.Fatal("Subset mis-selected rows")
	}
	s := tb.Sample(10, 7)
	if s.Len() != 10 {
		t.Fatalf("Sample returned %d rows", s.Len())
	}
	if got := tb.Sample(1<<30, 7); got.Len() != tb.Len() {
		t.Fatal("oversized Sample should return the full table")
	}
}

func TestDistinctLabels(t *testing.T) {
	tb := &Table{Spec: paramspec.Param{Name: "x", Min: 0, Max: 10, Step: 1}}
	tb.Labels = []string{"1", "2", "2", "3"}
	if got := tb.DistinctLabels(); got != 3 {
		t.Fatalf("DistinctLabels = %d", got)
	}
}

func TestFoldsPanicsOnBadK(t *testing.T) {
	tb := &Table{ColNames: []string{"a"}, Labels: make([]string, 3)}
	for i := 0; i < 3; i++ {
		tb.AppendRow([]string{"v"})
		tb.Sites = append(tb.Sites, Site{From: lte.CarrierID(i), To: -1})
	}
	defer func() {
		if recover() == nil {
			t.Error("GroupedFolds(1) did not panic")
		}
	}()
	tb.GroupedFolds(1, 0)
}
