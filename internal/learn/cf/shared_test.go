package cf

import (
	"reflect"
	"sync"
	"testing"

	"auric/internal/dataset"
	"auric/internal/netsim"
)

// assertOneKeyPerGroup requires a freshly built exact index: one map key
// per group and no overlay.
func assertOneKeyPerGroup(t *testing.T, m *Model) {
	t.Helper()
	if len(m.index) != len(m.idxLists) || m.indexAdd != nil {
		t.Fatalf("exact index holds %d keys (+%d overlay) for %d groups", len(m.index), len(m.indexAdd), len(m.idxLists))
	}
}

// clonePost deep-copies a model's posting lists.
func clonePost(post [][][]int32) [][][]int32 {
	out := make([][][]int32, len(post))
	for c, p := range post {
		if p == nil {
			continue
		}
		out[c] = make([][]int32, len(p))
		for v, l := range p {
			out[c][v] = append([]int32(nil), l...)
		}
	}
	return out
}

// TestSharedPostings fits every parameter of a market through one Shared,
// all at once from separate goroutines as the engine's train fan-out does,
// and alone. Models over the same rows must hold the same posting lists
// (one build, shared by reference) and the shared models must keep exactly
// the fitted state of the lone fits. Updating one model must leave every
// list a sibling holds untouched.
func TestSharedPostings(t *testing.T) {
	w := netsim.Generate(netsim.Options{Seed: 5, Markets: 1, ENodeBsPerMarket: 10})
	b := dataset.NewBuilder(w.Net, w.X2, nil)
	sh := NewShared()
	models := make([]*Model, w.Schema.Len())
	errs := make([]error, len(models))
	var wg sync.WaitGroup
	for pi := range models {
		wg.Add(1)
		go func() {
			defer wg.Done()
			models[pi], errs[pi] = sh.Fit(b.Labeled(w.Current, pi), Options{})
		}()
	}
	wg.Wait()
	for pi, ms := range models {
		if errs[pi] != nil {
			t.Fatal(errs[pi])
		}
		tb := ms.t
		ma, err := Fit(tb, Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertOneKeyPerGroup(t, ms)
		if !reflect.DeepEqual(ms.post, ma.post) || !reflect.DeepEqual(ms.index, ma.index) ||
			!reflect.DeepEqual(ms.idxLists, ma.idxLists) {
			t.Fatalf("%s: a shared fit's match structures differ from a lone fit's", w.Schema.At(pi).Name)
		}
		for k := 0; k < tb.Len(); k += 7 {
			row := tb.Row(k)
			if g, want := ms.Predict(row), ma.Predict(row); g != want {
				t.Fatalf("%s row %d: shared fit predicts %+v, lone fit %+v", w.Schema.At(pi).Name, k, g, want)
			}
		}
	}

	// Find two models over the same rows with a dependent column in common.
	var a, c *Model
	col, shared := -1, 0
	for i, mi := range models {
		for _, mj := range models[i+1:] {
			if mi.t.RowSet() != mj.t.RowSet() {
				continue
			}
			for d, p := range mi.post {
				if len(p) > 0 && len(mj.post[d]) > 0 {
					if &p[0] != &mj.post[d][0] {
						t.Fatalf("column %d: models over the same rows hold separate posting lists", d)
					}
					shared++
					if a == nil {
						a, c, col = mi, mj, d
					}
				}
			}
		}
	}
	if a == nil {
		t.Fatal("no two models over the same rows share a dependent column")
	}
	t.Logf("%d (model pair, column) posting lists shared", shared)

	// Update a: append a copy of its first row and tombstone its second
	// row's site. c's lists, table and answers must not move.
	before := clonePost(c.post)
	n := c.t.Len()
	ext := dataset.ExtendBase(a.t, [][]string{a.t.Row(0)})
	t2 := ext.Rebase(a.t)
	t2.AppendSample(ext.FirstRow(), a.t.Label(0), a.t.Values[0], dataset.Site{From: 9001, To: a.t.Sites[0].To})
	a2, _, err := a.Update(t2, []dataset.Site{a.t.Sites[1]})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.post, before) || c.t.Len() != n {
		t.Fatalf("updating one model changed its sibling's posting lists (column %d) or table", col)
	}
	ref := refitReference(t, a2)
	for k := 0; k < t2.Len(); k += 5 {
		row := t2.Row(k)
		if g, want := a2.Predict(row), ref.Predict(row); g != want {
			t.Fatalf("row %d: updated shared model predicts %+v, refit %+v", k, g, want)
		}
	}
}
