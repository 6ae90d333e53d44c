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
	"slices"
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

// choices supplies the random choices of an update sequence: an *rng.RNG
// in the tests, the fuzz input in FuzzUpdateEquivalence.
type choices interface {
	Intn(n int) int
	Bool(p float64) bool
}

// randomStep draws one delta against m — 0-3 upserts of fresh carriers
// (ids from *nextID on) and, once more than 10 carriers are live, 0-2
// tombstones — and applies it through Update, returning the new model and
// Update's report.
func randomStep(t *testing.T, r choices, m *Model, nextID *int) (*Model, bool) {
	t.Helper()
	var rows [][]string
	var labels []string
	var sites []dataset.Site
	for k := r.Intn(4); k > 0; k-- {
		row := make([]string, len(m.t.ColNames))
		for c := range row {
			row[c] = fmt.Sprintf("v%d", r.Intn(7))
		}
		label := "L" + row[0] + row[1]
		if r.Bool(0.15) {
			label = fmt.Sprintf("N%d", r.Intn(5))
		}
		rows = append(rows, row)
		labels = append(labels, label)
		sites = append(sites, dataset.Site{From: lte.CarrierID(*nextID), To: -1})
		*nextID++
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
	m2, sameSet, err := m.Update(t2, removed)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if m2.Table() != t2 {
		t.Fatal("Update returned a model over a table other than the one it was given")
	}
	return m2, sameSet
}

// TestUpdateEquivalence applies randomized upsert/tombstone sequences and,
// after every step, pins the patched model's predictions byte-identical to
// a from-scratch refit over the surviving rows — while the retiring
// generation serves concurrent predictions (race coverage for the
// copy-on-write discipline). Both kinds of dependency shift must occur
// across the sequences: a changed dependent set, and the same set in a new
// Cramér's V order.
func TestUpdateEquivalence(t *testing.T) {
	steps, setShifts, orderShifts := 0, 0, 0
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
			m2, sameSet := randomStep(t, r, m, &nextID)
			wg.Wait()
			steps++
			switch {
			case !sameSet:
				setShifts++
			case !slices.Equal(m2.deps, prev.deps):
				orderShifts++
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
	if setShifts == 0 {
		t.Fatal("no update changed a dependent set; sequences too tame")
	}
	if orderShifts == 0 {
		t.Fatal("no update reordered an unchanged dependent set; sequences too tame")
	}
	t.Logf("updates: %d, of which %d changed the dependent set and %d only its order", steps, setShifts, orderShifts)
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
	// A scope admitting only tombstoned carriers has no local evidence:
	// every answer is the network-wide vote, as in the reference over the
	// surviving rows, which hold none of those carriers.
	gone := []lte.CarrierID{3, 57, 99}
	refm := refFit(ref.t, m2.opts)
	admitsGone := func(s dataset.Site) bool { return slices.Contains(gone, s.From) }
	for qi, row := range queries {
		got := m2.PredictCodes(m2.EncodeRow(row), row, m2.ScopeFrom(gone))
		if want := m2.Predict(row); got != want {
			t.Fatalf("query %d: tombstoned scope\n got %+v\nwant the global vote %+v", qi, got, want)
		}
		if want := refm.predictScoped(row, admitsGone); stripDiag(got) != want {
			t.Fatalf("query %d: tombstoned scope vs reference\n got %+v\nwant %+v", qi, got, want)
		}
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

// pattern is n copies of one labeled row.
type pattern struct {
	row   []string
	label string
	n     int
}

// expand lays patterns out as rows with one fresh From carrier each,
// numbered from firstID.
func expand(pats []pattern, firstID int) (rows [][]string, labels []string, sites []dataset.Site) {
	for _, p := range pats {
		for k := 0; k < p.n; k++ {
			rows = append(rows, p.row)
			labels = append(labels, p.label)
			sites = append(sites, dataset.Site{From: lte.CarrierID(firstID + len(sites)), To: -1})
		}
	}
	return rows, labels, sites
}

// fitPatterns fits a model over a hand-assembled table of patterns.
func fitPatterns(t *testing.T, cols []string, pats []pattern) *Model {
	t.Helper()
	tb := &dataset.Table{ColNames: cols}
	rows, labels, sites := expand(pats, 0)
	for i, row := range rows {
		tb.AppendRow(row)
		tb.Labels = append(tb.Labels, labels[i])
		tb.Values = append(tb.Values, 0)
		tb.Sites = append(tb.Sites, sites[i])
	}
	m, err := Fit(tb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// binaryQueries lists every combination of the values "0" and "1" over
// ncols columns, plus a row of values never seen.
func binaryQueries(ncols int) [][]string {
	var out [][]string
	for bits := 0; bits < 1<<ncols; bits++ {
		row := make([]string, ncols)
		for c := range row {
			row[c] = fmt.Sprint(bits >> c & 1)
		}
		out = append(out, row)
	}
	unseen := make([]string, ncols)
	for c := range unseen {
		unseen[c] = "unseen"
	}
	return append(out, unseen)
}

// TestUpdateOrderOnlyShift appends rows that make column b a better
// predictor than column a while both stay dependent: the dependent set
// keeps its members and only its Cramér's V order flips. Update reports the
// set unchanged, keeps the table it was given, and answers like a refit.
func TestUpdateOrderOnlyShift(t *testing.T) {
	m := fitPatterns(t, []string{"a", "b"}, []pattern{
		{[]string{"0", "0"}, "X", 8},
		{[]string{"1", "1"}, "Y", 8},
		{[]string{"0", "1"}, "X", 2},
		{[]string{"1", "0"}, "Y", 2},
	})
	if !slices.Equal(m.deps, []int{0, 1}) {
		t.Fatalf("fitted deps = %v, want [0 1]", m.deps)
	}
	rows, labels, sites := expand([]pattern{
		{[]string{"1", "0"}, "X", 3},
		{[]string{"0", "1"}, "Y", 3},
	}, m.t.Len())
	t2 := extendTable(m, rows, labels, sites)
	m2, sameSet, err := m.Update(t2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(m2.deps, []int{1, 0}) {
		t.Fatalf("updated deps = %v, want [1 0]", m2.deps)
	}
	if !sameSet {
		t.Fatal("order-only shift reported a changed dependent set")
	}
	if m2.Table() != t2 {
		t.Fatal("Update returned a model over a table other than the one it was given")
	}
	assertPredictionEquivalence(t, m2, refitReference(t, m2), binaryQueries(2), liveIDs(m2))
}

// TestUpdateSetShift tombstones the rows that keep column b independent of
// the label and appends rows that break column c's association: b enters
// the dependent set and c leaves it. Update reports the shift, keeps the
// table it was given (rather than a copy over the surviving rows), and
// answers like a refit.
func TestUpdateSetShift(t *testing.T) {
	m := fitPatterns(t, []string{"a", "b", "c"}, []pattern{
		{[]string{"0", "0", "0"}, "X", 4},
		{[]string{"0", "1", "0"}, "X", 4}, // carriers 4-7
		{[]string{"1", "0", "1"}, "Y", 4}, // carriers 8-11
		{[]string{"1", "1", "1"}, "Y", 4},
	})
	if !slices.Equal(m.deps, []int{0, 2}) {
		t.Fatalf("fitted deps = %v, want [0 2]", m.deps)
	}
	assertOneKeyPerGroup(t, m)
	var removed []dataset.Site
	for id := 4; id < 12; id++ {
		removed = append(removed, dataset.Site{From: lte.CarrierID(id), To: -1})
	}
	rows, labels, sites := expand([]pattern{
		{[]string{"0", "0", "1"}, "X", 4},
		{[]string{"1", "1", "0"}, "Y", 4},
	}, m.t.Len())
	t2 := extendTable(m, rows, labels, sites)
	m2, sameSet, err := m.Update(t2, removed)
	if err != nil {
		t.Fatal(err)
	}
	set := slices.Clone(m2.deps)
	slices.Sort(set)
	if !slices.Equal(set, []int{0, 1}) {
		t.Fatalf("updated dependent set = %v, want [0 1]", set)
	}
	if sameSet {
		t.Fatal("set shift reported an unchanged dependent set")
	}
	if m2.Table() != t2 {
		t.Fatal("Update returned a model over a table other than the one it was given")
	}
	assertOneKeyPerGroup(t, m2)
	assertPredictionEquivalence(t, m2, refitReference(t, m2), binaryQueries(3), liveIDs(m2))
}

// fuzzChoices replays fuzz input as choices: Intn reads one byte modulo n
// and Bool one byte as a fraction of 256. An exhausted input answers 0 and
// false.
type fuzzChoices []byte

func (b *fuzzChoices) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v
}

func (b *fuzzChoices) Intn(n int) int { return b.next() % n }

func (b *fuzzChoices) Bool(p float64) bool { return len(*b) > 0 && float64(b.next())/256 < p }

// FuzzUpdateEquivalence fits a small random table drawn from seed, then
// applies up to 8 upsert/tombstone steps decoded from data. After every
// step the patched model's network-wide and scoped predictions must be
// byte-identical to a refit over the surviving rows. Small tables shift
// their dependent sets often, so this drives both kinds of shift.
func FuzzUpdateEquivalence(f *testing.F) {
	f.Add(uint64(1), []byte{3, 7, 1, 4, 2, 200, 9, 1, 3, 3, 5, 0, 6, 2, 1, 1, 80, 3, 2, 4})
	f.Add(uint64(2), []byte{2, 0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 1, 9, 9})
	f.Add(uint64(3), []byte{1, 5, 5, 5, 5, 5, 30, 2, 2, 7, 7, 7, 7, 7, 100, 2, 9, 9})
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		r := rng.New(seed)
		tb := randomTable(r, 20+r.Intn(60))
		m, err := Fit(tb, Options{})
		if err != nil {
			t.Fatal(err)
		}
		in := fuzzChoices(data)
		nextID := tb.Len()
		for step := 0; step < 8 && len(in) > 0; step++ {
			m, _ = randomStep(t, &in, m, &nextID)
			queries := make([][]string, 6)
			for i := range queries {
				queries[i] = randomQuery(r, m.t)
			}
			assertPredictionEquivalence(t, m, refitReference(t, m), queries, liveIDs(m))
		}
	})
}
