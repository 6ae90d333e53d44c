package cf

// This file pins the tentpole guarantee of the columnar refactor: the
// posting-list/index Model must be observably indistinguishable — labels,
// confidences and explanation strings byte-identical — from the original
// string-matching implementation. refModel below is that original
// implementation, ported verbatim to the Table accessors, and the tests
// drive both over the same tables and queries.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"auric/internal/dataset"
	"auric/internal/learn"
	"auric/internal/lte"
	"auric/internal/netsim"
	"auric/internal/rng"
	"auric/internal/stats"
)

// refModel is the pre-columnar CF implementation: string keys, map-based
// contingency counting, insertion-sorted dependencies and linear-scan
// relaxed matching. It is the byte-for-byte reference the fast Model is
// held to.
type refModel struct {
	t          *dataset.Table
	opts       Options
	deps       []int
	depStats   []float64
	index      map[string][]int32
	valueShare []map[string]float64
	valuePin   []map[string]float64

	globalLabel string
	globalShare float64
}

func refFit(t *dataset.Table, opts Options) *refModel {
	opts = opts.withDefaults()
	type depCol struct {
		col  int
		stat float64
	}
	var deps []depCol
	for c := range t.ColNames {
		ct := stats.NewContingency()
		for i := 0; i < t.Len(); i++ {
			ct.Add(t.At(i, c), t.Labels[i])
		}
		stat, df := ct.ChiSquare()
		if df == 0 {
			continue
		}
		if stat > stats.ChiSquareCritical(df, opts.Alpha) {
			deps = append(deps, depCol{c, ct.CramersV(stat)})
		}
	}
	for i := 1; i < len(deps); i++ {
		for j := i; j > 0 && deps[j].stat > deps[j-1].stat; j-- {
			deps[j], deps[j-1] = deps[j-1], deps[j]
		}
	}
	m := &refModel{t: t, opts: opts}
	for _, d := range deps {
		m.deps = append(m.deps, d.col)
		m.depStats = append(m.depStats, d.stat)
	}
	m.index = make(map[string][]int32, t.Len()/2)
	for i := 0; i < t.Len(); i++ {
		k := refKey(t.Row(i), m.deps)
		m.index[k] = append(m.index[k], int32(i))
	}
	m.globalLabel, m.globalShare = learn.MajorityLabel(t.Labels)
	m.fitValueShares()
	return m
}

func (m *refModel) fitValueShares() {
	m.valueShare = make([]map[string]float64, len(m.t.ColNames))
	m.valuePin = make([]map[string]float64, len(m.t.ColNames))
	n := float64(m.t.Len())
	for _, d := range m.deps {
		counts := make(map[string]map[string]int)
		totals := make(map[string]int)
		for i := 0; i < m.t.Len(); i++ {
			v := m.t.At(i, d)
			c := counts[v]
			if c == nil {
				c = make(map[string]int, 4)
				counts[v] = c
			}
			c[m.t.Labels[i]]++
			totals[v]++
		}
		shares := make(map[string]float64, len(totals))
		pins := make(map[string]float64, len(totals))
		for v, total := range totals {
			shares[v] = float64(total) / n
			best := 0
			for _, c := range counts[v] {
				if c > best {
					best = c
				}
			}
			pins[v] = float64(best) / float64(total)
		}
		m.valueShare[d] = shares
		m.valuePin[d] = pins
	}
}

func (m *refModel) queryDeps(row []string) []int {
	type scored struct {
		col  int
		rare bool
		v    float64
	}
	out := make([]scored, len(m.deps))
	for i, d := range m.deps {
		share, seen := m.valueShare[d][row[d]]
		profile := seen && share < rareValueShare &&
			m.valuePin[d][row[d]] >= m.opts.Support
		out[i] = scored{col: d, rare: profile, v: m.depStats[i]}
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].rare != out[b].rare {
			return out[a].rare
		}
		return out[a].v > out[b].v
	})
	deps := make([]int, len(out))
	for i, s := range out {
		deps[i] = s.col
	}
	return deps
}

func refKey(row []string, deps []int) string {
	var sb strings.Builder
	for _, d := range deps {
		sb.WriteString(row[d])
		sb.WriteByte('\x1f')
	}
	return sb.String()
}

func (m *refModel) predict(row []string) learn.Prediction {
	return m.predictScoped(row, nil)
}

func (m *refModel) predictScoped(row []string, allowed func(dataset.Site) bool) learn.Prediction {
	qdeps := m.queryDeps(row)
	globalP, globalLevel, globalDecisive := m.ladder(row, qdeps, nil)
	if allowed != nil {
		localP, localLevel, localDecisive := m.ladder(row, qdeps, allowed)
		if localDecisive && (!globalDecisive || localLevel <= globalLevel) {
			return localP
		}
	}
	if globalP.Label != "" {
		return globalP
	}
	return learn.Prediction{
		Label:       m.globalLabel,
		Confidence:  m.globalShare * 0.25,
		Explanation: "no matching carriers; falling back to the global majority value",
	}
}

func (m *refModel) ladder(row []string, qdeps []int, allowed func(dataset.Site) bool) (learn.Prediction, int, bool) {
	var (
		fallback      learn.Prediction
		fallbackLevel = -1
	)
	for drop := 0; drop <= len(qdeps); drop++ {
		deps := qdeps[:len(qdeps)-drop]
		p, decisive := m.vote(row, deps, drop == 0, allowed, drop)
		if p.Label == "" {
			continue
		}
		if decisive {
			return p, drop, true
		}
		if fallbackLevel < 0 {
			fallback, fallbackLevel = p, drop
		}
	}
	return fallback, fallbackLevel, false
}

func (m *refModel) vote(row []string, deps []int, full bool, allowed func(dataset.Site) bool, drop int) (learn.Prediction, bool) {
	matches := m.matches(row, deps, full, allowed)
	if len(matches) == 0 {
		return learn.Prediction{}, false
	}
	labels := make([]string, len(matches))
	for i, idx := range matches {
		labels[i] = m.t.Labels[idx]
	}
	label, share := learn.MajorityLabel(labels)
	conf := share
	if len(matches) == 1 {
		conf *= 0.5
	}
	p := learn.Prediction{
		Label:       label,
		Confidence:  conf,
		Explanation: m.explain(row, deps, label, share, len(matches), drop),
	}
	if allowed != nil && p.Explanation != "" {
		p.Explanation = "within the X2 neighborhood: " + p.Explanation
	}
	decisive := len(matches) >= m.opts.MinMatches ||
		(len(matches) >= 2 && share >= m.opts.Support) ||
		(drop == 0 && share == 1)
	return p, decisive
}

func (m *refModel) matches(row []string, deps []int, full bool, allowed func(dataset.Site) bool) []int32 {
	var cands []int32
	if full {
		cands = m.index[refKey(row, m.deps)]
	} else {
		for i := 0; i < m.t.Len(); i++ {
			ok := true
			for _, d := range deps {
				if m.t.At(i, d) != row[d] {
					ok = false
					break
				}
			}
			if ok {
				cands = append(cands, int32(i))
			}
		}
	}
	if allowed == nil {
		return cands
	}
	out := cands[:0:0]
	for _, i := range cands {
		if allowed(m.t.Sites[i]) {
			out = append(out, i)
		}
	}
	return out
}

func (m *refModel) explain(row []string, deps []int, label string, share float64, n, drop int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%.0f%% of %d carriers matching on ", share*100, n)
	if len(deps) == 0 {
		sb.WriteString("(no dependent attributes)")
	}
	const maxShown = 4
	for i, d := range deps {
		if i == maxShown {
			fmt.Fprintf(&sb, " ∧ … (+%d more)", len(deps)-maxShown)
			break
		}
		if i > 0 {
			sb.WriteString(" ∧ ")
		}
		fmt.Fprintf(&sb, "%s=%s", m.t.ColNames[d], row[d])
	}
	fmt.Fprintf(&sb, " hold %s", label)
	if drop > 0 {
		fmt.Fprintf(&sb, " (after relaxing %d weakest dependent attribute(s))", drop)
	}
	if share < m.opts.Support {
		fmt.Fprintf(&sb, " — below the %.0f%% support threshold", m.opts.Support*100)
	}
	return sb.String()
}

// randomTable builds a table whose labels depend on the first two columns
// (plus noise), so fits discover real dependencies, rare profile values and
// ties in every combination the ladder can reach.
func randomTable(r *rng.RNG, n int) *dataset.Table {
	ncols := 3 + r.Intn(3)
	names := make([]string, ncols)
	card := make([]int, ncols)
	for c := range names {
		names[c] = fmt.Sprintf("col%d", c)
		card[c] = 2 + r.Intn(6)
	}
	tb := &dataset.Table{ColNames: names}
	for i := 0; i < n; i++ {
		row := make([]string, ncols)
		for c := range row {
			row[c] = fmt.Sprintf("v%d", r.Intn(card[c]))
		}
		label := "L" + row[0] + row[1]
		if r.Bool(0.1) {
			label = fmt.Sprintf("N%d", r.Intn(4))
		}
		tb.AppendRow(row)
		tb.Labels = append(tb.Labels, label)
		tb.Values = append(tb.Values, 0)
		tb.Sites = append(tb.Sites, dataset.Site{From: lte.CarrierID(i), To: -1})
	}
	return tb
}

// randomQuery perturbs a training row: some attributes swapped for other
// in-dictionary values, some for values never seen in training.
func randomQuery(r *rng.RNG, tb *dataset.Table) []string {
	row := tb.Row(r.Intn(tb.Len()))
	for c := range row {
		switch r.Intn(4) {
		case 0:
			row[c] = fmt.Sprintf("v%d", r.Intn(8))
		case 1:
			row[c] = fmt.Sprintf("unseen%d", r.Intn(3))
		}
	}
	return row
}

// TestMatchesEquivalentToLinearScan is the randomized property test for
// the posting-list intersection: at every relaxation level of every query
// — full set, each partial prefix, the empty set — matches() must return
// exactly the rows the naive linear scan over string values returns, in
// the same (ascending) order, with and without a site filter. The
// unscoped empty set is the exception: vote reads it off the global label
// tally and never asks matches (TestPredictionsMatchReference covers that
// vote). The goroutine fan-out makes the race detector cover the shared
// read-only model state.
func TestMatchesEquivalentToLinearScan(t *testing.T) {
	const tables = 8
	var wg sync.WaitGroup
	for ti := 0; ti < tables; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			r := rng.New(uint64(1000 + ti))
			tb := randomTable(r, 60+r.Intn(200))
			fitted, err := New().Fit(tb)
			if err != nil {
				t.Error(err)
				return
			}
			m := fitted.(*Model)
			scope := func(s dataset.Site) bool { return s.From%3 != 0 }
			// Materialize the predicate as the sorted row list the scoped
			// matches path intersects instead of filtering through.
			var scopeRows []int32
			for i, s := range tb.Sites {
				if scope(s) {
					scopeRows = append(scopeRows, int32(i))
				}
			}
			ps := predictScratchPool.Get().(*predictScratch)
			defer putPredictScratch(ps)
			for q := 0; q < 40; q++ {
				row := randomQuery(r, tb)
				codes := m.encode(ps, row)
				qdeps := append([]int(nil), m.queryDeps(ps, codes)...)
				for drop := 0; drop <= len(qdeps); drop++ {
					deps := qdeps[:len(qdeps)-drop]
					for _, allowed := range []func(dataset.Site) bool{nil, scope} {
						if allowed == nil && len(deps) == 0 {
							continue
						}
						rows := scopeRows
						if allowed == nil {
							rows = nil
						}
						got := m.matches(ps, codes, deps, drop == 0, rows, allowed != nil)
						want := naiveMatches(tb, row, deps, allowed)
						if !equalInt32(got, want) {
							t.Errorf("table %d query %v drop %d (scoped=%v): matches %v, scan %v",
								ti, row, drop, allowed != nil, got, want)
							return
						}
					}
				}
			}
		}(ti)
	}
	wg.Wait()
}

func naiveMatches(tb *dataset.Table, row []string, deps []int, allowed func(dataset.Site) bool) []int32 {
	var out []int32
	for i := 0; i < tb.Len(); i++ {
		ok := true
		for _, d := range deps {
			if tb.At(i, d) != row[d] {
				ok = false
				break
			}
		}
		if ok && (allowed == nil || allowed(tb.Sites[i])) {
			out = append(out, int32(i))
		}
	}
	return out
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// gatherIDs returns the distinct From carriers of a table in first-seen
// order.
func gatherIDs(tb *dataset.Table) []lte.CarrierID {
	seen := make(map[lte.CarrierID]bool)
	var ids []lte.CarrierID
	for _, s := range tb.Sites {
		if !seen[s.From] {
			seen[s.From] = true
			ids = append(ids, s.From)
		}
	}
	return ids
}

// stripDiag clears the Diag diagnostics, which the reference model
// predates; equivalence with it is pinned on the user-visible triple
// (label, confidence, explanation).
func stripDiag(p learn.Prediction) learn.Prediction {
	p.Diag = learn.Diag{}
	return p
}

// TestPredictionsMatchReference drives the fast Model and the original
// implementation over identical tables and queries and requires
// byte-identical predictions — label, confidence and explanation — for
// Predict and for PredictCodes scoped to the even From carriers.
func TestPredictionsMatchReference(t *testing.T) {
	check := func(t *testing.T, tb *dataset.Table, queries [][]string) {
		t.Helper()
		fitted, err := New().Fit(tb)
		if err != nil {
			t.Fatal(err)
		}
		m := fitted.(*Model)
		ref := refFit(tb, Options{})
		pred := func(s dataset.Site) bool { return s.From%2 == 0 }
		var even []lte.CarrierID
		for _, id := range gatherIDs(tb) {
			if id%2 == 0 {
				even = append(even, id)
			}
		}
		sc := m.ScopeFrom(even)
		for _, row := range queries {
			if got, want := stripDiag(m.Predict(row)), ref.predict(row); got != want {
				t.Fatalf("Predict(%v)\n got %+v\nwant %+v", row, got, want)
			}
			got := stripDiag(m.PredictCodes(m.EncodeRow(row), row, sc))
			if want := ref.predictScoped(row, pred); got != want {
				t.Fatalf("scoped PredictCodes(%v)\n got %+v\nwant %+v", row, got, want)
			}
		}
	}

	t.Run("netsim", func(t *testing.T) {
		w := netsim.Generate(netsim.Options{Seed: 21, Markets: 2, ENodeBsPerMarket: 14})
		b := dataset.NewBuilder(w.Net, w.X2, nil)
		for _, name := range []string{"sFreqPrio", "hysA3Offset"} {
			pi := w.Schema.IndexOf(name)
			tb := b.Labeled(w.Current, pi)
			r := rng.New(77)
			var queries [][]string
			for i := 0; i < 40; i++ {
				row := tb.Row(r.Intn(tb.Len()))
				if r.Bool(0.3) {
					row[r.Intn(len(row))] = "never-seen"
				}
				queries = append(queries, row)
			}
			check(t, tb, queries)
		}
	})

	t.Run("random", func(t *testing.T) {
		for seed := uint64(0); seed < 6; seed++ {
			r := rng.New(3000 + seed)
			tb := randomTable(r, 80+r.Intn(150))
			var queries [][]string
			for i := 0; i < 30; i++ {
				queries = append(queries, randomQuery(r, tb))
			}
			check(t, tb, queries)
		}
	})
}

// TestScopeEquivalentToCallback pins the neighborhood-posting-list
// guarantee: PredictCodes over a precomputed ScopeFrom row list must
// equal the reference model's From-membership predicate on label,
// confidence and explanation, and must equal — every Diag field included —
// PredictCodes over the rows that predicate selects, for empty,
// singleton, half, full and duplicate-laden id sets. A nil scope must
// behave exactly like Predict.
func TestScopeEquivalentToCallback(t *testing.T) {
	check := func(t *testing.T, tb *dataset.Table, queries [][]string) {
		t.Helper()
		fitted, err := New().Fit(tb)
		if err != nil {
			t.Fatal(err)
		}
		m := fitted.(*Model)
		ref := refFit(tb, Options{})
		ids := gatherIDs(tb)
		cases := [][]lte.CarrierID{
			nil,                  // empty neighborhood: local ladder matches nothing
			ids[:1],              // single neighbor
			ids[:(len(ids)+1)/2], // half the network
			ids,                  // everyone
			append(append([]lte.CarrierID{}, ids[:2]...), ids[0]), // duplicate ids
		}
		for ci, allow := range cases {
			in := make(map[lte.CarrierID]bool, len(allow))
			for _, id := range allow {
				in[id] = true
			}
			pred := func(s dataset.Site) bool { return in[s.From] }
			var wantRows []int32
			for i, s := range tb.Sites {
				if pred(s) {
					wantRows = append(wantRows, int32(i))
				}
			}
			sc := m.ScopeFrom(allow)
			if got := sc.(*Scope).rows; !equalInt32(got, wantRows) || sc.NumRows() != len(wantRows) {
				t.Fatalf("case %d: scope rows %v (NumRows %d), want %v", ci, got, sc.NumRows(), wantRows)
			}
			byPred := &Scope{m: m, rows: wantRows}
			for _, row := range queries {
				codes := m.EncodeRow(row)
				got := m.PredictCodes(codes, row, sc)
				if want := m.PredictCodes(codes, row, byPred); got != want {
					t.Fatalf("case %d ScopeFrom vs predicate rows (%v)\n got %+v\nwant %+v", ci, row, got, want)
				}
				if want := ref.predictScoped(row, pred); stripDiag(got) != want {
					t.Fatalf("case %d scoped PredictCodes(%v)\n got %+v\nwant %+v", ci, row, got, want)
				}
			}
		}
		for _, row := range queries {
			if got, want := m.PredictCodes(m.EncodeRow(row), row, nil), m.Predict(row); got != want {
				t.Fatalf("PredictCodes(%v, nil)\n got %+v\nwant %+v", row, got, want)
			}
		}
	}

	t.Run("netsim", func(t *testing.T) {
		w := netsim.Generate(netsim.Options{Seed: 31, Markets: 2, ENodeBsPerMarket: 12})
		b := dataset.NewBuilder(w.Net, w.X2, nil)
		for _, name := range []string{"sFreqPrio", "hysA3Offset"} {
			pi := w.Schema.IndexOf(name)
			tb := b.Labeled(w.Current, pi)
			r := rng.New(55)
			var queries [][]string
			for i := 0; i < 25; i++ {
				row := tb.Row(r.Intn(tb.Len()))
				if r.Bool(0.3) {
					row[r.Intn(len(row))] = "never-seen"
				}
				queries = append(queries, row)
			}
			check(t, tb, queries)
		}
	})

	t.Run("random", func(t *testing.T) {
		for seed := uint64(0); seed < 4; seed++ {
			r := rng.New(4000 + seed)
			tb := randomTable(r, 80+r.Intn(120))
			var queries [][]string
			for i := 0; i < 20; i++ {
				queries = append(queries, randomQuery(r, tb))
			}
			check(t, tb, queries)
		}
	})
}

// TestPredictCodesEquivalent pins the batch-encoding guarantee: a row
// encoded once through EncodeRow must predict byte-identically through
// PredictCodes on every model sharing the columnar base — including the
// Diag fields, with and without a scope.
func TestPredictCodesEquivalent(t *testing.T) {
	w := netsim.Generate(netsim.Options{Seed: 41, Markets: 2, ENodeBsPerMarket: 12})
	b := dataset.NewBuilder(w.Net, w.X2, nil)
	tb1 := b.Labeled(w.Current, w.Schema.IndexOf("sFreqPrio"))
	tb2 := b.Labeled(w.Current, w.Schema.IndexOf("qRxLevMin"))
	f1, err := New().Fit(tb1)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := New().Fit(tb2)
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := f1.(*Model), f2.(*Model)
	if !m1.Table().SharesBase(m2.Table()) || !m2.Table().SharesBase(m1.Table()) {
		t.Fatal("models labeled by one Builder must share their columnar base")
	}
	other := randomTable(rng.New(5), 50)
	fo, err := New().Fit(other)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Table().SharesBase(fo.(*Model).Table()) {
		t.Fatal("models over unrelated bases must not share their columnar base")
	}

	ids := gatherIDs(tb1)
	r := rng.New(66)
	for q := 0; q < 30; q++ {
		row := tb1.Row(r.Intn(tb1.Len()))
		if r.Bool(0.3) {
			row[r.Intn(len(row))] = "never-seen"
		}
		codes := m1.EncodeRow(row) // encoded once, reused by both models
		for _, m := range []*Model{m1, m2} {
			if got, want := m.PredictCodes(codes, row, nil), m.Predict(row); got != want {
				t.Fatalf("PredictCodes(%v)\n got %+v\nwant %+v", row, got, want)
			}
			sc := m.ScopeFrom(ids[:len(ids)/2])
			if got, want := m.PredictCodes(codes, row, sc), m.PredictCodes(m.EncodeRow(row), row, sc); got != want {
				t.Fatalf("scoped PredictCodes(%v)\n got %+v\nwant %+v", row, got, want)
			}
		}
	}
}

// TestFitScratchReuseDeterministic pins the arena guarantee: refitting the
// same table through heavily reused pooled scratch — interleaved with fits
// of different shapes that resize and dirty every buffer — must produce
// models with byte-identical predictions, sequentially and concurrently.
func TestFitScratchReuseDeterministic(t *testing.T) {
	r := rng.New(9)
	tb := randomTable(r, 120)
	pollute := randomTable(r, 61) // different shape: forces Reset/regrow paths
	var queries [][]string
	for i := 0; i < 25; i++ {
		queries = append(queries, randomQuery(r, tb))
	}
	baseFit, err := New().Fit(tb)
	if err != nil {
		t.Fatal(err)
	}
	base := make([]learn.Prediction, len(queries))
	for i, q := range queries {
		base[i] = baseFit.Predict(q)
	}
	for round := 0; round < 8; round++ {
		if _, err := New().Fit(pollute); err != nil {
			t.Fatal(err)
		}
		refit, err := New().Fit(tb)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			if got := refit.Predict(q); got != base[i] {
				t.Fatalf("round %d query %v\n got %+v\nwant %+v", round, q, got, base[i])
			}
		}
	}
	// Concurrent fits share the scratch pool; the race detector covers it.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			refit, err := New().Fit(tb)
			if err != nil {
				t.Error(err)
				return
			}
			for i, q := range queries {
				if got := refit.Predict(q); got != base[i] {
					t.Errorf("concurrent refit query %v\n got %+v\nwant %+v", q, got, base[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
