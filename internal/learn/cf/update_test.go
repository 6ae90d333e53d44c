package cf

// Tests for incremental Update: the tentpole guarantee is that a model
// patched through any sequence of upserts and tombstones is observably
// indistinguishable — label, confidence, explanation and every Diag field
// byte-identical — from a model refit from scratch over the surviving
// rows. The randomized sequence test below drives both and also hammers
// the retiring generation with concurrent predictions, so `go test -race`
// proves the copy-on-write discipline.

import (
	"fmt"
	"sync"
	"testing"

	"auric/internal/dataset"
	"auric/internal/learn"
	"auric/internal/lte"
	"auric/internal/rng"
)

// extendTable appends labeled singular rows to m's table via the dataset
// copy-on-write extension, returning the rebased table.
func extendTable(m *Model, rows [][]string, labels []string, sites []dataset.Site) *dataset.Table {
	ext := dataset.ExtendBase(m.t, rows)
	t2 := ext.Rebase(m.t)
	for k := range rows {
		t2.AppendSample(ext.FirstRow()+int32(k), labels[k], 0, sites[k])
	}
	return t2
}

// refitReference refits a fresh model over the live rows of t (the state
// an Update must be prediction-equivalent to).
func refitReference(t *testing.T, m *Model) *Model {
	t.Helper()
	idx := make([]int, 0, m.live)
	for i := 0; i < m.t.Len(); i++ {
		if m.isLive(i) {
			idx = append(idx, i)
		}
	}
	fitted, err := (&Learner{Opts: m.opts}).Fit(m.t.Subset(idx))
	if err != nil {
		t.Fatalf("reference refit: %v", err)
	}
	return fitted.(*Model)
}

// assertPredictionEquivalence drives both models over the queries —
// network-wide, and scoped to the even and to the first half of the live
// From carriers — and requires full byte-identity, Diag included.
func assertPredictionEquivalence(t *testing.T, got, want *Model, queries [][]string, ids []lte.CarrierID) {
	t.Helper()
	var even []lte.CarrierID
	for _, id := range ids {
		if id%2 == 0 {
			even = append(even, id)
		}
	}
	for qi, row := range queries {
		if g, w := got.Predict(row), want.Predict(row); g != w {
			t.Fatalf("query %d: Predict\n got %+v\nwant %+v", qi, g, w)
		}
		for _, sub := range [][]lte.CarrierID{even, ids[:len(ids)/2]} {
			g := got.PredictCodes(got.EncodeRow(row), row, got.ScopeFrom(sub))
			w := want.PredictCodes(want.EncodeRow(row), row, want.ScopeFrom(sub))
			if g != w {
				t.Fatalf("query %d: scoped PredictCodes over %d carriers\n got %+v\nwant %+v", qi, len(sub), g, w)
			}
		}
	}
}

// liveIDs returns the distinct From carriers of the model's live rows.
func liveIDs(m *Model) []lte.CarrierID {
	seen := make(map[lte.CarrierID]bool)
	var ids []lte.CarrierID
	for i, s := range m.t.Sites {
		if m.isLive(i) && !seen[s.From] {
			seen[s.From] = true
			ids = append(ids, s.From)
		}
	}
	return ids
}

// TestUpdateEquivalence applies randomized upsert/tombstone sequences and,
// after every step, pins the patched model's predictions byte-identical to
// a from-scratch refit over the surviving rows — while the retiring
// generation serves concurrent predictions (race coverage for the
// copy-on-write discipline). Both Update outcomes (in-place patch and
// structural-change refit) must occur across the sequences.
func TestUpdateEquivalence(t *testing.T) {
	patchedTotal, refitTotal := 0, 0
	for seed := uint64(0); seed < 4; seed++ {
		r := rng.New(9000 + seed)
		tb := randomTable(r, 80+r.Intn(120))
		fitted, err := New().Fit(tb)
		if err != nil {
			t.Fatal(err)
		}
		m := fitted.(*Model)
		nextID := tb.Len()

		for step := 0; step < 12; step++ {
			// Assemble a random delta: 0-3 upserts, 0-2 tombstones.
			var rows [][]string
			var labels []string
			var sites []dataset.Site
			for k := r.Intn(4); k > 0; k-- {
				row := make([]string, len(tb.ColNames))
				for c := range row {
					row[c] = fmt.Sprintf("v%d", r.Intn(7))
				}
				label := "L" + row[0] + row[1]
				if r.Bool(0.15) {
					label = fmt.Sprintf("N%d", r.Intn(5))
				}
				rows = append(rows, row)
				labels = append(labels, label)
				sites = append(sites, dataset.Site{From: lte.CarrierID(nextID), To: -1})
				nextID++
			}
			var removed []dataset.Site
			if ids := liveIDs(m); len(ids) > 10 {
				for k := r.Intn(3); k > 0; k-- {
					removed = append(removed, dataset.Site{From: ids[r.Intn(len(ids))], To: -1})
				}
			}
			t2 := m.t
			if len(rows) > 0 {
				t2 = extendTable(m, rows, labels, sites)
			}

			// Hammer the generation being retired while the writer patches.
			prev := m
			queries := make([][]string, 6)
			for i := range queries {
				queries[i] = randomQuery(r, prev.t)
			}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 20; rep++ {
					for _, q := range queries {
						prev.Predict(q)
						predictWhere(prev, q, func(id lte.CarrierID) bool { return id%3 == 0 })
					}
				}
			}()
			m2, patched, err := m.Update(t2, removed)
			wg.Wait()
			if err != nil {
				t.Fatalf("seed %d step %d: Update: %v", seed, step, err)
			}
			if patched {
				patchedTotal++
			} else {
				refitTotal++
			}
			m = m2

			ref := refitReference(t, m)
			ids := liveIDs(m)
			stepQueries := make([][]string, 8)
			for i := range stepQueries {
				stepQueries[i] = randomQuery(r, m.t)
			}
			assertPredictionEquivalence(t, m, ref, stepQueries, ids)
		}
	}
	if patchedTotal == 0 {
		t.Fatal("no update took the in-place patch path; sequences too volatile")
	}
	if refitTotal == 0 {
		t.Fatal("no update took the structural-refit path; sequences too tame")
	}
	t.Logf("updates: %d patched in place, %d structural refits", patchedTotal, refitTotal)
}

// TestUpdateTombstoneOnly removes rows without adding any and checks the
// dead rows vanish from every prediction surface.
func TestUpdateTombstoneOnly(t *testing.T) {
	r := rng.New(4242)
	tb := randomTable(r, 120)
	fitted, err := New().Fit(tb)
	if err != nil {
		t.Fatal(err)
	}
	m := fitted.(*Model)
	removed := []dataset.Site{
		{From: 3, To: -1}, {From: 57, To: -1}, {From: 99, To: -1},
	}
	m2, _, err := m.Update(m.t, removed)
	if err != nil {
		t.Fatal(err)
	}
	if m2.live != 117 {
		t.Fatalf("live = %d, want 117", m2.live)
	}
	// The old generation is untouched.
	if m.live != 120 || m.dead != nil {
		t.Fatalf("receiver mutated: live=%d dead=%v", m.live, m.dead != nil)
	}
	ref := refitReference(t, m2)
	queries := make([][]string, 10)
	for i := range queries {
		queries[i] = randomQuery(r, m2.t)
	}
	assertPredictionEquivalence(t, m2, ref, queries, liveIDs(m2))
	// A scope holding only tombstoned carriers has no rows.
	if n := m2.ScopeFrom([]lte.CarrierID{3, 57, 99}).NumRows(); n != 0 {
		t.Fatalf("tombstoned scope has %d rows, want 0", n)
	}
}

// TestUpdateNewValuesGrowDictionaries upserts rows carrying attribute
// values and labels never seen at fit time; the grown code spaces must
// behave exactly like a refit that interned them from scratch.
func TestUpdateNewValuesGrowDictionaries(t *testing.T) {
	r := rng.New(777)
	tb := randomTable(r, 100)
	fitted, err := New().Fit(tb)
	if err != nil {
		t.Fatal(err)
	}
	m := fitted.(*Model)
	row := make([]string, len(tb.ColNames))
	for c := range row {
		row[c] = "brand-new-value"
	}
	rows := [][]string{row, row, row}
	labels := []string{"brand-new-label", "brand-new-label", "brand-new-label"}
	sites := []dataset.Site{
		{From: 1000, To: -1}, {From: 1001, To: -1}, {From: 1002, To: -1},
	}
	t2 := extendTable(m, rows, labels, sites)
	m2, _, err := m.Update(t2, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := refitReference(t, m2)
	queries := [][]string{row}
	for i := 0; i < 8; i++ {
		queries = append(queries, randomQuery(r, m2.t))
	}
	assertPredictionEquivalence(t, m2, ref, queries, liveIDs(m2))
	// The old dictionaries must not have seen the new value (copy-on-write).
	for c := 0; c < tb.NumCols(); c++ {
		if m.t.Dict(c).Code("brand-new-value") >= 0 {
			t.Fatalf("column %d: old generation's dictionary mutated", c)
		}
	}
}

// TestUpdatePureRebase rebases a model onto an extended base without
// touching its own samples: all fitted state must carry over and
// predictions must be unchanged.
func TestUpdatePureRebase(t *testing.T) {
	r := rng.New(31337)
	base := randomTable(r, 90)
	idx := make([]int, base.Len())
	for i := range idx {
		idx[i] = i
	}
	tb := base.Subset(idx) // derived view: base can grow past this model's rows
	fitted, err := New().Fit(tb)
	if err != nil {
		t.Fatal(err)
	}
	m := fitted.(*Model)
	ext := dataset.ExtendBase(m.t, [][]string{m.t.Row(0)})
	t2 := ext.Rebase(m.t) // note: no AppendSample — the row is another model's
	m2, patched, err := m.Update(t2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !patched {
		t.Fatal("pure rebase reported a refit")
	}
	for i := 0; i < 10; i++ {
		q := randomQuery(r, tb)
		if g, w := m2.Predict(q), m.Predict(q); g != w {
			t.Fatalf("rebase changed prediction:\n got %+v\nwant %+v", g, w)
		}
	}
}

// TestUpdateEmptiesTable tombstoning every row must fail rather than
// produce a model with no evidence.
func TestUpdateEmptiesTable(t *testing.T) {
	tb := &dataset.Table{ColNames: []string{"a"}}
	for i := 0; i < 3; i++ {
		tb.AppendRow([]string{"x"})
		tb.Labels = append(tb.Labels, "L")
		tb.Values = append(tb.Values, 0)
		tb.Sites = append(tb.Sites, dataset.Site{From: lte.CarrierID(i), To: -1})
	}
	fitted, err := New().Fit(tb)
	if err != nil {
		t.Fatal(err)
	}
	m := fitted.(*Model)
	removed := []dataset.Site{{From: 0, To: -1}, {From: 1, To: -1}, {From: 2, To: -1}}
	if _, _, err := m.Update(m.t, removed); err != learn.ErrEmptyTable {
		t.Fatalf("err = %v, want learn.ErrEmptyTable", err)
	}
}
