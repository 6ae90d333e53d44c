// Package learntest provides shared fixtures for learner tests: small
// synthetic learning tables with known structure.
package learntest

import (
	"fmt"

	"auric/internal/dataset"
	"auric/internal/lte"
	"auric/internal/paramspec"
	"auric/internal/rng"
)

// Spec is a generic test parameter (0..100 step 1).
func Spec() paramspec.Param {
	return paramspec.Param{Name: "testParam", Min: 0, Max: 100, Step: 1}
}

// RuleTable builds a table of n rows over columns [morphology, freq,
// noiseA, noiseB] where the label is fully determined by morphology and
// freq ("urban"+"700" -> "20", etc.), and noise columns carry many random
// irrelevant values. noiseRate flips that fraction of labels to a random
// other value.
func RuleTable(n int, noiseRate float64, seed uint64) *dataset.Table {
	r := rng.New(seed)
	t := &dataset.Table{
		Param:    0,
		Spec:     Spec(),
		ColNames: []string{"morphology", "freq", "noiseA", "noiseB"},
	}
	morphs := []string{"urban", "suburban", "rural"}
	freqs := []string{"700", "1900"}
	for i := 0; i < n; i++ {
		m := rng.Pick(r, morphs)
		f := rng.Pick(r, freqs)
		label := RuleLabel(m, f)
		if r.Bool(noiseRate) {
			label = fmt.Sprint(r.Intn(100))
		}
		row := []string{m, f, fmt.Sprint(r.Intn(50)), fmt.Sprint(r.Intn(50))}
		var value float64
		fmt.Sscanf(label, "%g", &value)
		t.AppendRow(row, label, value, dataset.Site{From: lte.CarrierID(i), To: -1})
	}
	return t
}

// RuleLabel is the ground-truth rule of RuleTable.
func RuleLabel(morphology, freq string) string {
	switch morphology + "/" + freq {
	case "urban/700":
		return "20"
	case "urban/1900":
		return "25"
	case "suburban/700":
		return "40"
	case "suburban/1900":
		return "45"
	case "rural/700":
		return "80"
	default: // rural/1900
		return "85"
	}
}

// Accuracy scores a model over clean rule-generated rows.
func Accuracy(predict func(row []string) string, trials int, seed uint64) float64 {
	r := rng.New(seed)
	morphs := []string{"urban", "suburban", "rural"}
	freqs := []string{"700", "1900"}
	hit := 0
	for i := 0; i < trials; i++ {
		m := rng.Pick(r, morphs)
		f := rng.Pick(r, freqs)
		row := []string{m, f, fmt.Sprint(r.Intn(50)), fmt.Sprint(r.Intn(50))}
		if predict(row) == RuleLabel(m, f) {
			hit++
		}
	}
	return float64(hit) / float64(trials)
}
