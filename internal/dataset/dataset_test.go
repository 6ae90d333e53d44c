package dataset

import (
	"slices"
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
		if tb.Label(i) != tb.Spec.Format(tb.Values[i]) {
			t.Fatalf("row %d label %q mismatch", i, tb.Label(i))
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
	tb := &Table{ColNames: []string{"a"}, Spec: paramspec.Param{Name: "x", Min: 0, Max: 10, Step: 1}}
	for i, l := range []string{"1", "2", "2", "3"} {
		tb.AppendRow([]string{"v"}, l, 0, Site{From: lte.CarrierID(i), To: -1})
	}
	if got := tb.LabelDict.Len(); got != 3 {
		t.Fatalf("LabelDict.Len() = %d", got)
	}
}

// checkLabels asserts the label-column invariant: LabelDict holds exactly
// the table's labels in first-seen row order, each row's code is its
// label's position there, and each label is the Format of its value.
func checkLabels(t *testing.T, what string, tb *Table) {
	t.Helper()
	var want []string
	pos := map[string]int32{}
	for i := 0; i < tb.Len(); i++ {
		l := tb.Spec.Format(tb.Values[i])
		if got := tb.Label(i); got != l {
			t.Fatalf("%s: row %d label %q, want %q", what, i, got, l)
		}
		c, ok := pos[l]
		if !ok {
			c = int32(len(want))
			pos[l] = c
			want = append(want, l)
		}
		if tb.LabelCodes[i] != c {
			t.Fatalf("%s: row %d code %d, want first-seen %d", what, i, tb.LabelCodes[i], c)
		}
	}
	if got := tb.LabelDict.Strings(); !slices.Equal(got, want) {
		t.Fatalf("%s: LabelDict = %q, want %q", what, got, want)
	}
}

// TestLabelDictFirstSeen pins the label-column invariant for every way a
// table is derived: Labeled (singular and pair-wise), Subset and Sample.
func TestLabelDictFirstSeen(t *testing.T) {
	w := world()
	b := NewBuilder(w.Net, w.X2, MarketFilter(w.Net, 0))
	for _, pi := range []int{w.Schema.IndexOf("pMax"), w.Schema.IndexOf("hysA3Offset")} {
		tb := b.Labeled(w.Current, pi)
		name := w.Schema.At(pi).Name
		if tb.LabelDict.Len() < 2 {
			t.Fatalf("%s: %d distinct labels, want several", name, tb.LabelDict.Len())
		}
		checkLabels(t, name, tb)
		// A reversed subset meets the labels in a different order, so its
		// codes must be renumbered, not copied.
		idx := make([]int, tb.Len())
		for i := range idx {
			idx[i] = tb.Len() - 1 - i
		}
		checkLabels(t, name+" reversed subset", tb.Subset(idx))
		checkLabels(t, name+" sample", tb.Sample(tb.Len()/3, 11))
	}
}

// TestAppendSampleInternsCopyOnWrite pins AppendSample's label interning
// on a rebased table: a known label reuses the shared dictionary, a new
// label clones it without touching the table it was rebased from, and a
// second sample with that label reuses the new code.
func TestAppendSampleInternsCopyOnWrite(t *testing.T) {
	w := world()
	src := NewBuilder(w.Net, w.X2, MarketFilter(w.Net, 0)).Labeled(w.Current, w.Schema.IndexOf("pMax"))
	n, nl := src.Len(), src.LabelDict.Len()
	strs := slices.Clone(src.LabelDict.Strings())
	codes := slices.Clone(src.LabelCodes)

	ext := ExtendBase(src, [][]string{src.Row(0), src.Row(1), src.Row(2)})
	r := ext.Rebase(src)
	r.AppendSample(ext.FirstRow(), src.Label(0), src.Values[0], Site{From: 9001, To: -1})
	if r.LabelDict != src.LabelDict || r.LabelCodes[n] != src.LabelCodes[0] {
		t.Fatal("a known label did not reuse the shared dictionary's code")
	}
	r.AppendSample(ext.FirstRow()+1, "new", -1, Site{From: 9002, To: -1})
	r.AppendSample(ext.FirstRow()+2, "new", -1, Site{From: 9003, To: -1})
	if r.LabelDict == src.LabelDict {
		t.Fatal("a new label was interned into the shared dictionary")
	}
	if r.LabelCodes[n+1] != int32(nl) || r.LabelCodes[n+2] != int32(nl) || r.Label(n+2) != "new" {
		t.Fatalf("new label codes %v, want %d twice", r.LabelCodes[n+1:], nl)
	}
	if r.LabelDict.Len() != nl+1 {
		t.Fatalf("rebased LabelDict.Len() = %d, want %d", r.LabelDict.Len(), nl+1)
	}
	if src.Len() != n || src.LabelDict.Len() != nl || src.LabelDict.Code("new") != -1 ||
		!slices.Equal(src.LabelDict.Strings(), strs) || !slices.Equal(src.LabelCodes, codes) {
		t.Fatal("appending a new label changed the table it was rebased from")
	}
}

func TestFoldsPanicsOnBadK(t *testing.T) {
	tb := &Table{ColNames: []string{"a"}}
	for i := 0; i < 3; i++ {
		tb.AppendRow([]string{"v"}, "", 0, Site{From: lte.CarrierID(i), To: -1})
	}
	defer func() {
		if recover() == nil {
			t.Error("GroupedFolds(1) did not panic")
		}
	}()
	tb.GroupedFolds(1, 0)
}
