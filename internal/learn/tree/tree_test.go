package tree

import (
	"strings"
	"testing"

	"auric/internal/dataset"
	"auric/internal/learn"
	"auric/internal/learn/internal/learntest"
)

func TestLearnsRule(t *testing.T) {
	tb := learntest.RuleTable(400, 0, 1)
	m, err := New().Fit(tb)
	if err != nil {
		t.Fatal(err)
	}
	acc := learntest.Accuracy(func(row []string) string { return m.Predict(row).Label }, 300, 2)
	if acc < 0.99 {
		t.Errorf("clean-rule accuracy = %v, want ~1.0", acc)
	}
}

func TestPureLeavesOnCleanData(t *testing.T) {
	tb := learntest.RuleTable(200, 0, 3)
	m, _ := New().Fit(tb)
	// Every prediction on training rows must match with confidence 1
	// (leaves grown to purity).
	for i := 0; i < tb.Len(); i++ {
		row := tb.Row(i)
		p := m.Predict(row)
		if p.Label != tb.Label(i) {
			t.Fatalf("training row %d mispredicted", i)
		}
		if p.Confidence != 1 {
			t.Fatalf("training row %d leaf purity %v, want 1", i, p.Confidence)
		}
	}
}

func TestToleratesLabelNoise(t *testing.T) {
	tb := learntest.RuleTable(600, 0.05, 4)
	m, _ := New().Fit(tb)
	acc := learntest.Accuracy(func(row []string) string { return m.Predict(row).Label }, 400, 5)
	// Pure-grown trees overfit some noise but the rule still dominates.
	if acc < 0.80 {
		t.Errorf("noisy-rule accuracy = %v, want >= 0.80", acc)
	}
}

func TestExplanationMentionsPath(t *testing.T) {
	tb := learntest.RuleTable(300, 0, 6)
	m, _ := New().Fit(tb)
	p := m.Predict([]string{"urban", "700", "1", "2"})
	if p.Label != "20" {
		t.Fatalf("predicted %q", p.Label)
	}
	if !strings.Contains(p.Explanation, "decision path") ||
		!strings.Contains(p.Explanation, "leaf purity") {
		t.Errorf("explanation lacks path info: %q", p.Explanation)
	}
	// The path should mention the decisive attributes, not the noise.
	if !strings.Contains(p.Explanation, "morphology") && !strings.Contains(p.Explanation, "freq") {
		t.Errorf("explanation does not mention decisive attributes: %q", p.Explanation)
	}
}

func TestUnseenCategoryFollowsNotEqualBranch(t *testing.T) {
	tb := learntest.RuleTable(300, 0, 7)
	m, _ := New().Fit(tb)
	// A never-seen morphology still yields some prediction (no panic).
	p := m.Predict([]string{"maritime", "700", "1", "2"})
	if p.Label == "" {
		t.Error("unseen category produced empty prediction")
	}
}

func TestDeterministic(t *testing.T) {
	tb := learntest.RuleTable(300, 0.05, 8)
	m1, _ := New().Fit(tb)
	m2, _ := New().Fit(tb)
	for i := 0; i < 50; i++ {
		row := tb.Row(i)
		if m1.Predict(row).Label != m2.Predict(row).Label {
			t.Fatal("identical fits disagree")
		}
	}
}

func TestMaxDepthLimitsTree(t *testing.T) {
	tb := learntest.RuleTable(300, 0, 9)
	shallow := &Learner{Opts: Options{MaxDepth: 1}}
	m, _ := shallow.Fit(tb)
	tr := m.(*Tree)
	if tr.NumNodes() > 3 {
		t.Errorf("depth-1 tree has %d nodes, want <= 3", tr.NumNodes())
	}
}

func TestMinLeaf(t *testing.T) {
	tb := learntest.RuleTable(300, 0.1, 10)
	big := &Learner{Opts: Options{MinLeaf: 100}}
	m1, _ := big.Fit(tb)
	m2, _ := New().Fit(tb)
	if m1.(*Tree).NumNodes() >= m2.(*Tree).NumNodes() {
		t.Error("larger MinLeaf should produce a smaller tree")
	}
}

func TestEmptyTable(t *testing.T) {
	if _, err := New().Fit(&dataset.Table{Spec: learntest.Spec()}); err != learn.ErrEmptyTable {
		t.Errorf("empty table error = %v", err)
	}
}

func TestConstantLabels(t *testing.T) {
	tb := learntest.RuleTable(50, 0, 11)
	tb.LabelDict = dataset.NewDict()
	code := tb.LabelDict.Intern("42")
	for i := range tb.LabelCodes {
		tb.LabelCodes[i] = code
	}
	m, err := New().Fit(tb)
	if err != nil {
		t.Fatal(err)
	}
	p := m.Predict(tb.Row(0))
	if p.Label != "42" || p.Confidence != 1 {
		t.Errorf("constant table prediction = %+v", p)
	}
	if m.(*Tree).NumNodes() != 1 {
		t.Errorf("constant table tree has %d nodes, want 1", m.(*Tree).NumNodes())
	}
}
