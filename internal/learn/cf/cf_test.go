package cf

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"auric/internal/dataset"
	"auric/internal/learn"
	"auric/internal/learn/internal/learntest"
	"auric/internal/lte"
	"auric/internal/rng"
)

// idsWhere lists the distinct From carriers of m's training rows that
// keep admits, in first-seen order.
func idsWhere(m *Model, keep func(lte.CarrierID) bool) []lte.CarrierID {
	var ids []lte.CarrierID
	for _, id := range gatherIDs(m.t) {
		if keep(id) {
			ids = append(ids, id)
		}
	}
	return ids
}

// predictWhere is the scoped prediction the engine makes: row encoded once
// and the voters restricted to the training rows of the From carriers
// keep admits.
func predictWhere(m *Model, row []string, keep func(lte.CarrierID) bool) learn.Prediction {
	return m.PredictCodes(m.EncodeRow(row), row, m.ScopeFrom(idsWhere(m, keep)))
}

func TestLearnsRule(t *testing.T) {
	tb := learntest.RuleTable(500, 0, 1)
	m, err := New().Fit(tb)
	if err != nil {
		t.Fatal(err)
	}
	acc := learntest.Accuracy(func(row []string) string { return m.Predict(row).Label }, 300, 2)
	if acc < 0.99 {
		t.Errorf("clean-rule accuracy = %v, want ~1.0", acc)
	}
}

func TestDiscoversDependentAttributes(t *testing.T) {
	tb := learntest.RuleTable(600, 0, 3)
	m, _ := New().Fit(tb)
	var deps []string
	for _, c := range m.(*Model).DependentColumns() {
		deps = append(deps, tb.ColNames[c])
	}
	want := map[string]bool{"morphology": true, "freq": true}
	if len(deps) != 2 {
		t.Fatalf("dependent attributes = %v, want exactly morphology+freq", deps)
	}
	for _, d := range deps {
		if !want[d] {
			t.Errorf("spurious dependent attribute %q", d)
		}
	}
}

func TestRobustToLabelNoise(t *testing.T) {
	tb := learntest.RuleTable(600, 0.08, 4)
	m, _ := New().Fit(tb)
	acc := learntest.Accuracy(func(row []string) string { return m.Predict(row).Label }, 400, 5)
	// Voting among exact matches shrugs off 8% noise almost entirely.
	if acc < 0.97 {
		t.Errorf("noisy-rule accuracy = %v, want >= 0.97", acc)
	}
}

func TestRecoversRareValues(t *testing.T) {
	// The Sec 3.2 motivation: a rare attribute combination with few
	// samples must still be predicted exactly.
	tb := learntest.RuleTable(500, 0, 6)
	// Inject 4 rows of a rare combination with a unique value.
	for i := 0; i < 4; i++ {
		tb.AppendRow([]string{"urban", "3500", fmt.Sprint(i), fmt.Sprint(i)}, "99", 99, dataset.Site{From: lte.CarrierID(9000 + i), To: -1})
	}
	m, _ := New().Fit(tb)
	p := m.Predict([]string{"urban", "3500", "42", "42"})
	if p.Label != "99" {
		t.Errorf("rare combination predicted %q, want 99", p.Label)
	}
	if p.Confidence < 0.99 {
		t.Errorf("rare combination confidence = %v", p.Confidence)
	}
}

func TestSupportThreshold(t *testing.T) {
	// 10 matching carriers: 8 hold "1", 2 hold "2" -> 80% support, above
	// the 75% threshold.
	tb := &dataset.Table{Spec: learntest.Spec(), ColNames: []string{"a", "b"}}
	add := func(a, b, label string, site int) {
		tb.AppendRow([]string{a, b}, label, 0, dataset.Site{From: lte.CarrierID(site), To: -1})
	}
	for i := 0; i < 8; i++ {
		add("x", "k", "1", i)
	}
	add("x", "k", "2", 8)
	add("x", "k", "2", 9)
	// A second combination so the chi-square test has signal.
	for i := 0; i < 10; i++ {
		add("y", "k", "5", 10+i)
	}
	m, _ := New().Fit(tb)
	p := m.Predict([]string{"x", "k"})
	if supported := p.Confidence >= DefaultSupport; p.Label != "1" || !supported {
		t.Errorf("80%% case: label=%q supported=%v", p.Label, supported)
	}
	// Make it 6/4: below threshold, still plurality but unsupported.
	tb.LabelCodes[6], tb.LabelCodes[7] = tb.LabelDict.Code("2"), tb.LabelDict.Code("2")
	m, _ = New().Fit(tb)
	p = m.Predict([]string{"x", "k"})
	if supported := p.Confidence >= DefaultSupport; p.Label != "1" || supported {
		t.Errorf("60%% case: label=%q supported=%v, want plurality without support", p.Label, supported)
	}
	if !strings.Contains(p.Explanation, "below the 75% support threshold") {
		t.Errorf("explanation = %q", p.Explanation)
	}
}

func TestRelaxationFallback(t *testing.T) {
	tb := learntest.RuleTable(500, 0, 7)
	m, _ := New().Fit(tb)
	// Unseen freq: no exact match on (morphology, freq); relaxation drops
	// the weaker dependent attribute and still answers from the rest.
	p := m.Predict([]string{"urban", "9999", "1", "2"})
	if p.Label == "" {
		t.Fatal("relaxation failed to produce a prediction")
	}
	if !strings.Contains(p.Explanation, "relaxing") {
		t.Errorf("explanation does not mention relaxation: %q", p.Explanation)
	}
}

func TestPredictScoped(t *testing.T) {
	// Two regions share attributes but hold different locally-tuned
	// values; scoping to the region must recover the local value.
	tb := &dataset.Table{Spec: learntest.Spec(), ColNames: []string{"a", "b"}}
	add := func(a, b, label string, site int) {
		tb.AppendRow([]string{a, b}, label, 0, dataset.Site{From: lte.CarrierID(site), To: -1})
	}
	// Region A: carriers 0..9 hold "10"; region B: carriers 100..119 hold "20".
	for i := 0; i < 10; i++ {
		add("x", "k", "10", i)
	}
	for i := 0; i < 20; i++ {
		add("x", "k", "20", 100+i)
	}
	for i := 0; i < 10; i++ {
		add("y", "k", "5", 200+i)
	}
	m, _ := New().Fit(tb)
	global := m.Predict([]string{"x", "k"})
	if global.Label != "20" {
		t.Fatalf("global vote = %q, want the 2:1 majority 20", global.Label)
	}
	local := predictWhere(m.(*Model), []string{"x", "k"}, func(id lte.CarrierID) bool {
		return id < 50 // region A only
	})
	if local.Label != "10" {
		t.Errorf("scoped vote = %q, want the local value 10", local.Label)
	}
	if local.Confidence != 1 {
		t.Errorf("scoped confidence = %v, want 1", local.Confidence)
	}
}

func TestScopedEmptyFallsBackToGlobal(t *testing.T) {
	tb := learntest.RuleTable(200, 0, 8)
	m, _ := New().Fit(tb)
	p := predictWhere(m.(*Model), tb.Row(0), func(lte.CarrierID) bool { return false })
	if p.Label != tb.Label(0) {
		t.Errorf("empty scope should fall back to the global vote; got %q want %q",
			p.Label, tb.Label(0))
	}
	if strings.Contains(p.Explanation, "X2 neighborhood") {
		t.Errorf("explanation claims local evidence: %q", p.Explanation)
	}
}

func TestNoDependentAttributes(t *testing.T) {
	// Labels independent of every column: CF should find no dependencies
	// and predict the global majority.
	r := rng.New(9)
	tb := &dataset.Table{Spec: learntest.Spec(), ColNames: []string{"a"}}
	for i := 0; i < 300; i++ {
		label := "1"
		if i%3 == 0 {
			label = "2"
		}
		tb.AppendRow([]string{fmt.Sprint(r.Intn(3))}, label, 0, dataset.Site{From: lte.CarrierID(i), To: -1})
	}
	m, _ := New().Fit(tb)
	if deps := m.(*Model).DependentColumns(); len(deps) != 0 {
		t.Skipf("chi-square found accidental dependence (possible at random): %v", deps)
	}
	p := m.Predict([]string{"0"})
	if p.Label != "1" {
		t.Errorf("no-dependency prediction = %q, want global majority 1", p.Label)
	}
}

func TestEmptyTable(t *testing.T) {
	if _, err := New().Fit(&dataset.Table{Spec: learntest.Spec()}); err != learn.ErrEmptyTable {
		t.Errorf("empty table error = %v", err)
	}
}

// TestPredictionDiag pins the machine-readable diagnostics the trace and
// audit layers consume: exact-index hits report level 0 with no dropped
// attributes, and relaxed predictions name what was dropped.
func TestPredictionDiag(t *testing.T) {
	tb := learntest.RuleTable(500, 0, 7)
	m, _ := New().Fit(tb)

	exact := m.Predict(tb.Row(0))
	d := exact.Diag
	if d.Level != 0 || !d.ExactIndex || d.Dropped != "" || d.PostingLists != 0 {
		t.Errorf("exact-match diag = %+v, want level 0 exact-index with nothing dropped", d)
	}
	if d.Candidates <= 0 || d.VoteShare <= 0 {
		t.Errorf("exact-match diag missing evidence counts: %+v", d)
	}
	if d.Scoped {
		t.Errorf("unscoped prediction reported Scoped: %+v", d)
	}

	// Unseen freq forces the ladder to relax; the dropped attribute must
	// be named.
	relaxed := m.Predict([]string{"urban", "9999", "1", "2"})
	d = relaxed.Diag
	if d.Level <= 0 || d.ExactIndex {
		t.Fatalf("relaxed diag = %+v, want level > 0 without exact index", d)
	}
	if d.Dropped == "" {
		t.Errorf("relaxed diag names no dropped attributes: %+v", d)
	}
	for _, name := range strings.Split(d.Dropped, ",") {
		if name != "morphology" && name != "freq" {
			t.Errorf("dropped %q is not a dependent attribute", name)
		}
	}
	if d.PostingLists != len(m.(*Model).deps)-d.Level {
		t.Errorf("posting lists = %d, want %d at level %d",
			d.PostingLists, len(m.(*Model).deps)-d.Level, d.Level)
	}

	// Scoped predictions mark the diag as scoped.
	scoped := predictWhere(m.(*Model), tb.Row(0), func(lte.CarrierID) bool { return true })
	if !scoped.Diag.Scoped {
		t.Errorf("scoped prediction diag = %+v, want Scoped", scoped.Diag)
	}
}

// siteTable builds a table from (attribute row, label, From carrier)
// samples.
func siteTable(cols []string, samples []siteSample) *dataset.Table {
	tb := &dataset.Table{Spec: learntest.Spec(), ColNames: cols}
	for _, s := range samples {
		tb.AppendRow(s.row, s.label, 0, dataset.Site{From: s.from, To: -1})
	}
	return tb
}

type siteSample struct {
	row   []string
	label string
	from  lte.CarrierID
}

// checkScoped requires the scoped prediction of row within ids to equal the
// reference model's From-membership vote and to carry the expected Diag
// level and scoping.
func checkScoped(t *testing.T, m *Model, row []string, ids []lte.CarrierID, wantLevel int, wantScoped bool) learn.Prediction {
	t.Helper()
	got := m.PredictCodes(m.EncodeRow(row), row, m.ScopeFrom(ids))
	in := func(s dataset.Site) bool { return slices.Contains(ids, s.From) }
	if want := refFit(m.t, m.opts).predictScoped(row, in); stripDiag(got) != want {
		t.Fatalf("scoped %v within %v\n got %+v\nwant %+v", row, ids, got, want)
	}
	if got.Diag.Level != wantLevel || got.Diag.Scoped != wantScoped {
		t.Fatalf("scoped %v within %v settled at level %d (scoped %v), want level %d (scoped %v)",
			row, ids, got.Diag.Level, got.Diag.Scoped, wantLevel, wantScoped)
	}
	return got
}

// TestScopedNoDependentColumns covers the scoped vote of a model with no
// dependent columns: level 0 is the empty set, which the local vote reads
// off the per-site row lists. A decisive neighborhood wins; a split or
// empty one leaves the global majority.
func TestScopedNoDependentColumns(t *testing.T) {
	// Both values of a hold the same label mix (7 of 20 rows "2"), so the
	// chi-square statistic is exactly zero.
	var samples []siteSample
	var twos []lte.CarrierID
	for i := 0; i < 40; i++ {
		label := "1"
		if (i/2)%3 == 0 {
			label = "2"
			twos = append(twos, lte.CarrierID(i))
		}
		samples = append(samples, siteSample{[]string{fmt.Sprint(i % 2)}, label, lte.CarrierID(i)})
	}
	fitted, err := New().Fit(siteTable([]string{"a"}, samples))
	if err != nil {
		t.Fatal(err)
	}
	m := fitted.(*Model)
	if len(m.deps) != 0 {
		t.Fatalf("fitted deps %v, want none", m.deps)
	}
	for _, row := range [][]string{{"0"}, {"1"}, {"unseen"}} {
		p := checkScoped(t, m, row, twos, 0, true)
		if p.Label != "2" || p.Diag.Candidates != len(twos) || !p.Diag.ExactIndex {
			t.Fatalf("local vote %+v, want label 2 from %d carriers via the full (empty) set", p, len(twos))
		}
		checkScoped(t, m, row, []lte.CarrierID{0, 1, 2, 3}, 0, false) // 2:2 split
		checkScoped(t, m, row, nil, 0, false)
	}
}

// TestScopedLosesToMoreSpecificGlobal pins the Sec 3.3 rule at the point
// where the scoped walk stops: the network-wide vote is decisive on the
// full dependent set, the neighborhood's vote only after relaxing, so the
// network-wide answer wins although a decisive local answer exists deeper.
func TestScopedLosesToMoreSpecificGlobal(t *testing.T) {
	var samples []siteSample
	add := func(a, b, label string, from ...lte.CarrierID) {
		for _, id := range from {
			samples = append(samples, siteSample{[]string{a, b}, label, id})
		}
	}
	add("x", "y", "A", 0, 1, 2, 3, 10) // network-wide (x,y): 5 A, 1 B
	add("x", "y", "B", 11)
	add("x", "z", "B", 12, 13, 14, 15, 16, 17)
	add("w", "y", "C", 20, 21, 22, 23, 24, 25, 26, 27)
	add("w", "z", "D", 30, 31, 32, 33, 34, 35, 36, 37)
	fitted, err := New().Fit(siteTable([]string{"a", "b"}, samples))
	if err != nil {
		t.Fatal(err)
	}
	m := fitted.(*Model)
	if len(m.deps) != 2 {
		t.Fatalf("fitted deps %v, want both columns", m.deps)
	}
	hood := []lte.CarrierID{10, 11, 12, 13, 14, 15, 16, 17}
	row := []string{"x", "y"}
	ref := refFit(m.t, m.opts)
	qdeps := ref.queryDeps(row)
	if _, lvl, ok := ref.ladder(row, qdeps, nil); !ok || lvl != 0 {
		t.Fatalf("network-wide ladder decisive=%v at level %d, want decisive at 0", ok, lvl)
	}
	in := func(s dataset.Site) bool { return slices.Contains(hood, s.From) }
	if _, lvl, ok := ref.ladder(row, qdeps, in); !ok || lvl == 0 {
		t.Fatalf("local ladder decisive=%v at level %d, want decisive only after relaxing", ok, lvl)
	}
	if p := checkScoped(t, m, row, hood, 0, false); p.Label != "A" {
		t.Fatalf("got %q, want the network-wide A", p.Label)
	}
}

// TestAppendRoundedMatchesStrconv pins the explanation's percent fast path
// to strconv's %.0f rendering for every vote share a pool of up to 5,000
// candidates can produce, for the support threshold, and for the
// round-half-to-even ties.
func TestAppendRoundedMatchesStrconv(t *testing.T) {
	var got, want []byte
	check := func(x float64) {
		got = appendRounded(got[:0], x)
		want = strconv.AppendFloat(want[:0], x, 'f', 0, 64)
		if string(got) != string(want) {
			t.Fatalf("appendRounded(%v) = %q, want %q", x, got, want)
		}
	}
	gcd := func(a, b int) int {
		for b != 0 {
			a, b = b, a%b
		}
		return a
	}
	for n := 1; n <= 5000; n++ {
		for best := 0; best <= n; best++ {
			// Division is correctly rounded, so a share equals the share
			// of its reduced fraction: check each value once.
			if gcd(best, n) == 1 {
				check(float64(best) / float64(n) * 100)
			}
		}
	}
	for _, x := range []float64{DefaultSupport * 100, 0.5, 1.5, 2.5, 0.49999999999999994, 1<<53 - 1, 1 << 53, 1e300, math.Copysign(0, -1), -0.4, -2.5, math.Inf(1), math.NaN()} {
		check(x)
	}
}
