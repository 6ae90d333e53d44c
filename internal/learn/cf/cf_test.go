package cf

import (
	"fmt"
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
		tb.AppendRow([]string{"urban", "3500", fmt.Sprint(i), fmt.Sprint(i)})
		tb.Labels = append(tb.Labels, "99")
		tb.Values = append(tb.Values, 99)
		tb.Sites = append(tb.Sites, dataset.Site{From: lte.CarrierID(9000 + i), To: -1})
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
		tb.AppendRow([]string{a, b})
		tb.Labels = append(tb.Labels, label)
		tb.Values = append(tb.Values, 0)
		tb.Sites = append(tb.Sites, dataset.Site{From: lte.CarrierID(site), To: -1})
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
	tb.Labels[6], tb.Labels[7] = "2", "2"
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
		tb.AppendRow([]string{a, b})
		tb.Labels = append(tb.Labels, label)
		tb.Values = append(tb.Values, 0)
		tb.Sites = append(tb.Sites, dataset.Site{From: lte.CarrierID(site), To: -1})
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
	if p.Label != tb.Labels[0] {
		t.Errorf("empty scope should fall back to the global vote; got %q want %q",
			p.Label, tb.Labels[0])
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
		tb.AppendRow([]string{fmt.Sprint(r.Intn(3))})
		label := "1"
		if i%3 == 0 {
			label = "2"
		}
		tb.Labels = append(tb.Labels, label)
		tb.Values = append(tb.Values, 0)
		tb.Sites = append(tb.Sites, dataset.Site{From: lte.CarrierID(i), To: -1})
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
// attributes, relaxed predictions name what was dropped, and the
// relaxation counters advance.
func TestPredictionDiag(t *testing.T) {
	tb := learntest.RuleTable(500, 0, 7)
	m, _ := New().Fit(tb)

	level0Before := relaxLevelFast[0].Value()
	hitsBefore := exactIndexHits.Value()
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
	if relaxLevelFast[0].Value() != level0Before+1 {
		t.Errorf("level-0 counter did not advance")
	}
	if exactIndexHits.Value() != hitsBefore+1 {
		t.Errorf("exact-index counter did not advance")
	}

	// Unseen freq forces the ladder to relax; the dropped attribute must
	// be named and the level counter for the settled level must advance.
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
