package dataset

import (
	"reflect"
	"slices"
	"sync"
	"testing"
)

// TestBuilderMatchesBuild is the builder's correctness contract: for every
// parameter of the schema, Labeled must produce exactly the table Build
// produces — same rows, labels, values, sites, in the same order.
func TestBuilderMatchesBuild(t *testing.T) {
	w := world()
	filters := map[string]Filter{
		"all":     nil,
		"market0": MarketFilter(w.Net, 0),
	}
	for name, keep := range filters {
		b := NewBuilder(w.Net, w.X2, keep)
		for pi := 0; pi < w.Schema.Len(); pi++ {
			got := b.Labeled(w.Current, pi)
			want := Build(w.Net, w.X2, w.Current, pi, keep)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Labeled(%s) differs from Build", name, w.Schema.At(pi).Name)
			}
		}
	}
}

// TestBuilderSharesBase verifies the point of the builder: singular tables
// of different parameters share one attribute base instead of rebuilding
// it per parameter.
func TestBuilderSharesBase(t *testing.T) {
	w := world()
	b := NewBuilder(w.Net, w.X2, nil)
	var sing []*Table
	for pi := 0; pi < w.Schema.Len() && len(sing) < 2; pi++ {
		tb := b.Labeled(w.Current, pi)
		if tb.Sites[0].To == -1 {
			sing = append(sing, tb)
		}
	}
	if len(sing) < 2 {
		t.Fatal("schema has fewer than two singular parameters")
	}
	c0, c1 := sing[0].ColumnCodes(0), sing[1].ColumnCodes(0)
	if len(c0) == 0 || &c0[0] != &c1[0] {
		t.Error("singular tables do not share the attribute base")
	}
	if sing[0].Dict(0) != sing[1].Dict(0) {
		t.Error("singular tables do not share the column dictionaries")
	}
}

// TestBuilderConcurrentLabeled exercises the lazy base construction from
// many goroutines at once (the engine shares one builder across its worker
// pool); run under -race this proves the sync.Once guards suffice.
func TestBuilderConcurrentLabeled(t *testing.T) {
	w := world()
	b := NewBuilder(w.Net, w.X2, nil)
	want := make([]*Table, w.Schema.Len())
	for pi := range want {
		want[pi] = Build(w.Net, w.X2, w.Current, pi, nil)
	}
	var wg sync.WaitGroup
	errs := make(chan string, w.Schema.Len())
	for pi := 0; pi < w.Schema.Len(); pi++ {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			if got := b.Labeled(w.Current, pi); !reflect.DeepEqual(got, want[pi]) {
				errs <- w.Schema.At(pi).Name
			}
		}(pi)
	}
	wg.Wait()
	close(errs)
	for name := range errs {
		t.Errorf("concurrent Labeled(%s) differs from Build", name)
	}
}

func TestBuilderPairWiseRequiresX2(t *testing.T) {
	w := world()
	b := NewBuilder(w.Net, nil, nil)
	if len(w.Schema.PairWise()) == 0 {
		t.Skip("schema has no pair-wise parameters")
	}
	pairPi := w.Schema.PairWise()[0]
	// Singular labeling works without a graph...
	if tb := b.Labeled(w.Current, w.Schema.Singular()[0]); tb.Len() != len(w.Net.Carriers) {
		t.Fatalf("singular table has %d rows", tb.Len())
	}
	// ...pair-wise labeling must panic, exactly like Build.
	defer func() {
		if recover() == nil {
			t.Error("pair-wise Labeled without an X2 graph did not panic")
		}
	}()
	b.Labeled(w.Current, pairPi)
}

// TestSharedRowsCopyOnAppend pins the sharing hazard of Labeled's rows:
// two pair-wise tables with the same configured relations share one
// row-index slice and one Sites slice, and two singular tables share the
// base's Sites. After both tables of a kind are rebased onto an extended
// base, appending a different sample to each must leave the other (and
// the tables they were rebased from) exactly as they were.
func TestSharedRowsCopyOnAppend(t *testing.T) {
	w := world()
	pair, sing := w.Schema.PairWise(), w.Schema.Singular()
	if len(pair) < 2 || len(sing) < 2 {
		t.Skip("schema has fewer than two parameters of a kind")
	}
	b := NewBuilder(w.Net, w.X2, MarketFilter(w.Net, 0))
	for _, pis := range [][]int{pair, sing} {
		t1, t2 := b.Labeled(w.Current, pis[0]), b.Labeled(w.Current, pis[1])
		if t1.RowSet() != t2.RowSet() || &t1.Sites[0] != &t2.Sites[0] {
			t.Fatal("tables with the same rows do not share them")
		}
		n := t1.Len()
		sites := slices.Clone(t2.Sites)
		codes := make([][]int32, t2.NumCols())
		for c := range codes {
			codes[c] = slices.Clone(t2.ColumnCodes(c))
		}

		// An identity (singular) table reads every base row, so both take
		// the one appended row; pair-wise tables take different ones. A
		// table's samples are its Sites (an identity view's Len follows
		// the base).
		rows := [][]string{t1.Row(0), t1.Row(1)}
		if t1.rowIdx == nil {
			rows = rows[:1]
		}
		ext := ExtendBase(t1, rows)
		row1, row2 := ext.FirstRow(), ext.FirstRow()+int32(len(rows)-1)
		r1, r2 := ext.Rebase(t1), ext.Rebase(t2)
		s1 := Site{From: 9001, To: 9002}
		s2 := Site{From: 9003, To: 9004}
		r1.AppendSample(row1, "a", 1, s1)
		if !slices.Equal(r2.Sites, sites) {
			t.Fatalf("appending to one table changed its sibling: %d samples, want %d", len(r2.Sites), n)
		}
		r2.AppendSample(row2, "b", 2, s2)
		if r1.Len() != n+1 || len(r1.Sites) != n+1 || r1.Sites[n] != s1 || r1.Code(n, 0) != ext.neu.codes[0][row1] {
			t.Fatalf("sibling's append overwrote the first table's new sample: %+v", r1.Sites[n])
		}
		if r2.Len() != n+1 || len(r2.Sites) != n+1 || r2.Sites[n] != s2 || r2.Code(n, 0) != ext.neu.codes[0][row2] {
			t.Fatalf("second table's new sample is %+v, want %+v", r2.Sites[n], s2)
		}
		for _, tb := range []*Table{t1, t2} {
			if tb.Len() != n || !slices.Equal(tb.Sites, sites) {
				t.Fatal("an append reached the table it was rebased from")
			}
			for c := range codes {
				if !slices.Equal(tb.ColumnCodes(c), codes[c]) {
					t.Fatalf("column %d codes changed under an append", c)
				}
			}
		}
		for c := range codes {
			if got := r2.ColumnCodes(c)[:n]; !slices.Equal(got, codes[c]) {
				t.Fatalf("column %d: rebased sibling's codes changed", c)
			}
		}
	}
}
