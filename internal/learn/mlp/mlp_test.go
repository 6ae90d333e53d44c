package mlp

import (
	"strings"
	"testing"

	"auric/internal/dataset"
	"auric/internal/learn"
	"auric/internal/learn/internal/learntest"
)

// fastLearner shrinks the network for test speed; the full paper
// architecture is exercised separately in TestPaperArchitecture.
func fastLearner() *Learner {
	return &Learner{Opts: Options{Hidden: []int{32, 16}, Epochs: 60, Seed: 1}}
}

func TestLearnsRule(t *testing.T) {
	tb := learntest.RuleTable(500, 0, 1)
	m, err := fastLearner().Fit(tb)
	if err != nil {
		t.Fatal(err)
	}
	acc := learntest.Accuracy(func(row []string) string { return m.Predict(row).Label }, 300, 2)
	if acc < 0.95 {
		t.Errorf("clean-rule accuracy = %v, want >= 0.95", acc)
	}
}

func TestPaperArchitecture(t *testing.T) {
	if testing.Short() {
		t.Skip("full architecture training skipped in -short")
	}
	tb := learntest.RuleTable(300, 0, 3)
	m, err := New().Fit(tb) // 7 hidden layers 100/100/100/50/50/50/10
	if err != nil {
		t.Fatal(err)
	}
	mm := m.(*Model)
	if len(mm.weights) != 8 {
		t.Fatalf("weight layers = %d, want 8 (7 hidden + output)", len(mm.weights))
	}
	wantRows := []int{0, 100, 100, 100, 50, 50, 50, 10} // index 0 is input width
	for l := 1; l < len(mm.weights); l++ {
		if mm.weights[l].Rows != wantRows[l] {
			t.Errorf("layer %d input size = %d, want %d", l, mm.weights[l].Rows, wantRows[l])
		}
	}
	acc := learntest.Accuracy(func(row []string) string { return m.Predict(row).Label }, 200, 4)
	if acc < 0.90 {
		t.Errorf("paper-architecture accuracy = %v, want >= 0.90", acc)
	}
}

func TestConstantTableShortCircuits(t *testing.T) {
	tb := learntest.RuleTable(40, 0, 5)
	tb.LabelDict = dataset.NewDict()
	seven := tb.LabelDict.Intern("7")
	for i := range tb.LabelCodes {
		tb.LabelCodes[i] = seven
	}
	m, err := New().Fit(tb)
	if err != nil {
		t.Fatal(err)
	}
	p := m.Predict(tb.Row(0))
	if p.Label != "7" || p.Confidence != 1 {
		t.Errorf("constant prediction = %+v", p)
	}
	if m.(*Model).TrainedEpochs != 0 {
		t.Error("constant table should not train")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	tb := learntest.RuleTable(200, 0.05, 6)
	m1, _ := fastLearner().Fit(tb)
	m2, _ := fastLearner().Fit(tb)
	for i := 0; i < 30; i++ {
		if m1.Predict(tb.Row(i)).Label != m2.Predict(tb.Row(i)).Label {
			t.Fatal("same-seed networks disagree")
		}
	}
}

func TestEarlyStopping(t *testing.T) {
	tb := learntest.RuleTable(300, 0, 7)
	l := &Learner{Opts: Options{Hidden: []int{32}, Epochs: 500, Tol: 1e-3, Seed: 1}}
	m, _ := l.Fit(tb)
	if got := m.(*Model).TrainedEpochs; got >= 500 {
		t.Errorf("trained all %d epochs; early stopping never fired", got)
	}
}

func TestLossDecreases(t *testing.T) {
	tb := learntest.RuleTable(300, 0, 8)
	short := &Learner{Opts: Options{Hidden: []int{32}, Epochs: 2, Seed: 1, Tol: -1}}
	long := &Learner{Opts: Options{Hidden: []int{32}, Epochs: 40, Seed: 1, Tol: -1}}
	ms, _ := short.Fit(tb)
	ml, _ := long.Fit(tb)
	if ml.(*Model).FinalLoss >= ms.(*Model).FinalLoss {
		t.Errorf("loss after 40 epochs (%v) not below loss after 2 (%v)",
			ml.(*Model).FinalLoss, ms.(*Model).FinalLoss)
	}
}

func TestConfidenceIsSoftmaxMass(t *testing.T) {
	tb := learntest.RuleTable(400, 0, 9)
	m, _ := fastLearner().Fit(tb)
	p := m.Predict([]string{"urban", "700", "1", "2"})
	if p.Confidence <= 0 || p.Confidence > 1 {
		t.Errorf("confidence %v outside (0,1]", p.Confidence)
	}
	if !strings.Contains(p.Explanation, "softmax") {
		t.Errorf("explanation = %q", p.Explanation)
	}
}

func TestEmptyTable(t *testing.T) {
	if _, err := New().Fit(&dataset.Table{Spec: learntest.Spec()}); err != learn.ErrEmptyTable {
		t.Errorf("empty table error = %v", err)
	}
}
