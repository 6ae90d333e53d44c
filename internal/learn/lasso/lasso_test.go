package lasso

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"auric/internal/dataset"
	"auric/internal/learn"
	"auric/internal/learn/internal/learntest"
	"auric/internal/lte"
	"auric/internal/rng"
)

func TestLearnsAdditiveRule(t *testing.T) {
	// A numeric rule that is exactly linear in the one-hot features:
	// value = 20 + 30*(morph==suburban) + 60*(morph==rural) + 5*(freq==1900).
	r := rng.New(1)
	tb := &dataset.Table{Spec: learntest.Spec(), ColNames: []string{"morph", "freq", "noise"}}
	morphs := []string{"urban", "suburban", "rural"}
	freqs := []string{"700", "1900"}
	value := func(m, f string) float64 {
		v := 20.0
		switch m {
		case "suburban":
			v += 30
		case "rural":
			v += 60
		}
		if f == "1900" {
			v += 5
		}
		return v
	}
	for i := 0; i < 500; i++ {
		m := rng.Pick(r, morphs)
		f := rng.Pick(r, freqs)
		v := value(m, f)
		tb.AppendRow([]string{m, f, fmt.Sprint(r.Intn(40))}, fmt.Sprintf("%g", v), v, dataset.Site{From: lte.CarrierID(i), To: -1})
	}
	m, err := (&Learner{Opts: Options{Lambda: 0.01}}).Fit(tb)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i := 0; i < 200; i++ {
		mo := rng.Pick(r, morphs)
		f := rng.Pick(r, freqs)
		p := m.Predict([]string{mo, f, fmt.Sprint(r.Intn(40))})
		if p.Label == fmt.Sprintf("%g", value(mo, f)) {
			hits++
		}
	}
	if acc := float64(hits) / 200; acc < 0.95 {
		t.Errorf("linear-rule accuracy = %v, want >= 0.95", acc)
	}
}

func TestSparsityKillsIrrelevantFeatures(t *testing.T) {
	tb := learntest.RuleTable(600, 0, 2)
	m, _ := (&Learner{Opts: Options{Lambda: 0.05}}).Fit(tb)
	model := m.(*Model)
	if model.NonZero() == 0 {
		t.Fatal("all coefficients zero; lambda too aggressive")
	}
	// The noise columns have ~50 categories each; with L1 they should be
	// mostly zeroed while morphology/freq stay active.
	active := activeFeatures(t, model, tb)
	noisy := 0
	for _, f := range active {
		if strings.HasPrefix(f, "noiseA=") || strings.HasPrefix(f, "noiseB=") {
			noisy++
		}
	}
	if float64(noisy) > 0.3*float64(len(active)) {
		t.Errorf("%d of %d active features are noise; L1 failed to sparsify", noisy, len(active))
	}
	// The strongest features should be the decisive attributes.
	if len(active) > 0 && !strings.HasPrefix(active[0], "morphology=") && !strings.HasPrefix(active[0], "freq=") {
		t.Errorf("strongest feature %q is not a decisive attribute", active[0])
	}
}

func TestLambdaControlsSparsity(t *testing.T) {
	tb := learntest.RuleTable(400, 0, 3)
	loose, _ := (&Learner{Opts: Options{Lambda: 0.001}}).Fit(tb)
	tight, _ := (&Learner{Opts: Options{Lambda: 0.5}}).Fit(tb)
	if tight.(*Model).NonZero() >= loose.(*Model).NonZero() {
		t.Errorf("lambda=0.5 gives %d non-zeros, lambda=0.001 gives %d; expected fewer",
			tight.(*Model).NonZero(), loose.(*Model).NonZero())
	}
}

func TestPredictionsOnGrid(t *testing.T) {
	tb := learntest.RuleTable(300, 0.1, 4)
	m, _ := New().Fit(tb)
	seen := map[string]bool{}
	for i := range tb.LabelCodes {
		seen[tb.Label(i)] = true
	}
	for i := 0; i < 50; i++ {
		p := m.Predict(tb.Row(i))
		if !seen[p.Label] {
			t.Fatalf("prediction %q is not an observed value", p.Label)
		}
		if p.Confidence <= 0 || p.Confidence > 1 {
			t.Fatalf("confidence %v out of range", p.Confidence)
		}
	}
}

func TestRegisteredInRegistry(t *testing.T) {
	l, err := learn.New("lasso-regression")
	if err != nil {
		t.Fatal(err)
	}
	if l.Name() != "lasso-regression" {
		t.Errorf("name = %q", l.Name())
	}
}

func TestConstantTable(t *testing.T) {
	tb := learntest.RuleTable(50, 0, 5)
	tb.LabelDict = dataset.NewDict()
	seven := tb.LabelDict.Intern("7")
	for i := range tb.LabelCodes {
		tb.LabelCodes[i] = seven
		tb.Values[i] = 7
	}
	m, err := New().Fit(tb)
	if err != nil {
		t.Fatal(err)
	}
	if p := m.Predict(tb.Row(0)); p.Label != "7" {
		t.Errorf("constant prediction = %q", p.Label)
	}
}

func TestEmptyTable(t *testing.T) {
	if _, err := New().Fit(&dataset.Table{Spec: learntest.Spec()}); err != learn.ErrEmptyTable {
		t.Errorf("empty table error = %v", err)
	}
}

// activeFeatures returns the "column=category" names of the model's
// features with non-zero coefficients, by decreasing |β|. The names follow
// onehot.FitTable's order: columns in table order, categories first-seen.
func activeFeatures(t *testing.T, m *Model, tb *dataset.Table) []string {
	t.Helper()
	var names []string
	for ci, col := range tb.ColNames {
		d := tb.Dict(ci)
		seen := make([]bool, d.Len())
		for _, code := range tb.ColumnCodes(ci) {
			if !seen[code] {
				seen[code] = true
				names = append(names, col+"="+d.String(code))
			}
		}
	}
	if len(names) != len(m.beta) {
		t.Fatalf("%d feature names for %d coefficients", len(names), len(m.beta))
	}
	var active []int
	for j, b := range m.beta {
		if b != 0 {
			active = append(active, j)
		}
	}
	sort.Slice(active, func(a, b int) bool {
		ma, mb := math.Abs(m.beta[active[a]]), math.Abs(m.beta[active[b]])
		if ma != mb {
			return ma > mb
		}
		return names[active[a]] < names[active[b]]
	})
	out := make([]string, len(active))
	for i, j := range active {
		out[i] = names[j]
	}
	return out
}
