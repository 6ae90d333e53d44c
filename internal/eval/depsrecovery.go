package eval

import (
	"auric/internal/dataset"
	"auric/internal/learn/cf"
	"auric/internal/netsim"
)

// DepRecoveryResult scores how well the collaborative-filtering learner's
// chi-square dependency selection recovers the generator's true
// dependencies — the ablation DESIGN.md calls out for the dependency-
// learning design choice.
type DepRecoveryResult struct {
	// Params is the number of parameters evaluated.
	Params int
	// Recall counts true dependencies found, over all true dependencies.
	RecallNum, RecallDen int
	// TopWeighted counts true dependencies ranked in the top half of the
	// selected set (chi-square should not just find them, but rank them
	// highly).
	TopWeightedNum, TopWeightedDen int
}

// Recall is the fraction of true dependencies the selection found.
func (r DepRecoveryResult) Recall() float64 {
	if r.RecallDen == 0 {
		return 0
	}
	return float64(r.RecallNum) / float64(r.RecallDen)
}

// TopWeighted is the fraction of true dependencies ranked in the upper
// half of the selected dependency list.
func (r DepRecoveryResult) TopWeighted() float64 {
	if r.TopWeightedDen == 0 {
		return 0
	}
	return float64(r.TopWeightedNum) / float64(r.TopWeightedDen)
}

// DependencyRecovery fits the CF learner on every parameter's full-network
// table and compares the selected dependent attributes to the generator's
// TrueDependencies.
func DependencyRecovery(w *netsim.World, maxSamples int) (DepRecoveryResult, error) {
	var res DepRecoveryResult
	b := dataset.NewBuilder(w.Net, w.X2, nil)
	for pi := 0; pi < w.Schema.Len(); pi++ {
		t := b.Labeled(w.Current, pi)
		if maxSamples > 0 {
			t = t.Sample(maxSamples, uint64(pi)+1)
		}
		m, err := cf.Fit(t, cf.Options{})
		if err != nil {
			return res, err
		}
		selected := m.DependentColumns()
		rank := make(map[int]int, len(selected))
		for i, c := range selected {
			rank[c] = i
		}
		truth := w.TrueDependencies(pi)
		// Pair-wise truths index the pair vector; singular the carrier
		// vector — both match the table's column space directly.
		for _, d := range truth {
			res.RecallDen++
			r, found := rank[d]
			if found {
				res.RecallNum++
				res.TopWeightedDen++
				if r < (len(selected)+1)/2 {
					res.TopWeightedNum++
				}
			}
		}
		res.Params++
	}
	return res, nil
}
