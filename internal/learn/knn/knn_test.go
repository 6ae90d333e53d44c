package knn

import (
	"fmt"
	"strings"
	"testing"

	"auric/internal/dataset"
	"auric/internal/learn"
	"auric/internal/learn/internal/learntest"
	"auric/internal/lte"
)

func TestLearnsRule(t *testing.T) {
	tb := learntest.RuleTable(500, 0, 1)
	m, err := New().Fit(tb)
	if err != nil {
		t.Fatal(err)
	}
	acc := learntest.Accuracy(func(row []string) string { return m.Predict(row).Label }, 200, 2)
	// kNN suffers from the irrelevant noise columns (the weakness the
	// paper describes) but the two decisive columns still dominate when
	// enough samples exist.
	if acc < 0.85 {
		t.Errorf("clean-rule accuracy = %v, want >= 0.85", acc)
	}
}

func TestExactMatchWins(t *testing.T) {
	// Hand-built table: the query has one exact twin and many far rows.
	tb := &dataset.Table{Spec: learntest.Spec(), ColNames: []string{"a", "b", "c"}}
	add := func(a, b, c, label string) {
		tb.AppendRow([]string{a, b, c}, label, 0, dataset.Site{From: lte.CarrierID(tb.Len() + 1), To: -1})
	}
	add("x", "y", "z", "близко") // exact twin of the query
	for i := 0; i < 10; i++ {
		add("p", "q", fmt.Sprint(i), "far")
	}
	m, _ := (&Learner{Opts: Options{K: 1}}).Fit(tb)
	p := m.Predict([]string{"x", "y", "z"})
	if p.Label != "близко" {
		t.Errorf("1-NN ignored the exact twin: %q", p.Label)
	}
	if !strings.Contains(p.Explanation, "Hamming distance 0") {
		t.Errorf("explanation = %q", p.Explanation)
	}
}

func TestIrrelevantAttributesMislead(t *testing.T) {
	// The failure mode of Sec 3.2: a query whose decisive attributes
	// match a rare rule but whose many noise columns match a crowd of
	// other-rule rows gets outvoted under unweighted Euclidean distance.
	tb := &dataset.Table{Spec: learntest.Spec(),
		ColNames: []string{"morph", "n1", "n2", "n3", "n4"}}
	add := func(row []string, label string) {
		tb.AppendRow(row, label, 0, dataset.Site{From: lte.CarrierID(tb.Len() + 1), To: -1})
	}
	// One carrier shares the query's decisive morph=alpine but differs in
	// all noise columns.
	add([]string{"alpine", "a", "b", "c", "d"}, "rare")
	// Five carriers differ in morph but match all the noise columns.
	for i := 0; i < 5; i++ {
		add([]string{"urban", "w", "x", "y", "z"}, "common")
	}
	m, _ := New().Fit(tb) // k=5
	p := m.Predict([]string{"alpine", "w", "x", "y", "z"})
	if p.Label != "common" {
		t.Errorf("expected irrelevant attributes to mislead kNN, got %q", p.Label)
	}
}

func TestKDefaultsTo5(t *testing.T) {
	tb := learntest.RuleTable(50, 0, 3)
	m, _ := New().Fit(tb)
	if m.(*Model).k != 5 {
		t.Errorf("default k = %d, want 5", m.(*Model).k)
	}
}

func TestKLargerThanTable(t *testing.T) {
	tb := learntest.RuleTable(3, 0, 4)
	m, _ := (&Learner{Opts: Options{K: 10}}).Fit(tb)
	p := m.Predict(tb.Row(0))
	if p.Label == "" {
		t.Error("k > n produced empty prediction")
	}
}

func TestEmptyTable(t *testing.T) {
	if _, err := New().Fit(&dataset.Table{Spec: learntest.Spec()}); err != learn.ErrEmptyTable {
		t.Errorf("empty table error = %v", err)
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	tb := learntest.RuleTable(100, 0.2, 5)
	m, _ := New().Fit(tb)
	row := []string{"urban", "700", "9", "9"}
	first := m.Predict(row).Label
	for i := 0; i < 5; i++ {
		if m.Predict(row).Label != first {
			t.Fatal("prediction unstable across calls")
		}
	}
}
