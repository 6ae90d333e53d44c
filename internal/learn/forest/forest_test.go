package forest

import (
	"strings"
	"testing"

	"auric/internal/dataset"
	"auric/internal/learn"
	"auric/internal/learn/internal/learntest"
)

func fastLearner() *Learner { return &Learner{Opts: Options{Trees: 25, Seed: 1}} }

func TestLearnsRule(t *testing.T) {
	tb := learntest.RuleTable(400, 0, 1)
	m, err := fastLearner().Fit(tb)
	if err != nil {
		t.Fatal(err)
	}
	acc := learntest.Accuracy(func(row []string) string { return m.Predict(row).Label }, 300, 2)
	if acc < 0.98 {
		t.Errorf("clean-rule accuracy = %v, want >= 0.98", acc)
	}
}

func TestEnsembleSmoothsNoise(t *testing.T) {
	tb := learntest.RuleTable(600, 0.08, 3)
	fm, _ := fastLearner().Fit(tb)
	acc := learntest.Accuracy(func(row []string) string { return fm.Predict(row).Label }, 400, 4)
	if acc < 0.90 {
		t.Errorf("noisy-rule forest accuracy = %v, want >= 0.90", acc)
	}
}

func TestDefaultsTo100Trees(t *testing.T) {
	tb := learntest.RuleTable(60, 0, 5)
	m, _ := New().Fit(tb)
	if got := len(m.(*Model).trees); got != 100 {
		t.Errorf("default ensemble size = %d, want 100 (the paper's setting)", got)
	}
}

func TestConfidenceIsEnsembleAgreement(t *testing.T) {
	tb := learntest.RuleTable(400, 0, 6)
	m, _ := fastLearner().Fit(tb)
	p := m.Predict([]string{"rural", "700", "3", "4"})
	if p.Label != "80" {
		t.Fatalf("predicted %q", p.Label)
	}
	// Feature subsampling means some trees split on the noise columns, so
	// agreement sits below 1 even on clean data — but the majority should
	// be solid.
	if p.Confidence < 0.6 {
		t.Errorf("clean-rule ensemble agreement = %v, want >= 0.6", p.Confidence)
	}
	if !strings.Contains(p.Explanation, "trees vote") {
		t.Errorf("explanation = %q", p.Explanation)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	tb := learntest.RuleTable(300, 0.05, 7)
	m1, _ := fastLearner().Fit(tb)
	m2, _ := fastLearner().Fit(tb)
	for i := 0; i < 40; i++ {
		if m1.Predict(tb.Row(i)).Label != m2.Predict(tb.Row(i)).Label {
			t.Fatal("same-seed forests disagree")
		}
	}
}

func TestEmptyTable(t *testing.T) {
	if _, err := New().Fit(&dataset.Table{Spec: learntest.Spec()}); err != learn.ErrEmptyTable {
		t.Errorf("empty table error = %v", err)
	}
}
