package cf

import (
	"reflect"
	"sync"
	"testing"

	"auric/internal/dataset"
	"auric/internal/lte"
	"auric/internal/netsim"
)

// TestConcurrentPredict hammers one fitted model from 16 goroutines mixing
// Predict and scoped PredictCodes within one shared scope, as the engine's
// jobs for one carrier share it. One query row holds only unseen values,
// so its scoped walk reaches the empty dependent set and the lazy per-site
// row lists are built under contention too. Fitted models are documented
// read-only; run under -race this proves the prediction paths (queryDeps,
// ladder, localVote, matches) never write shared state, which the
// engine's parallel recommendation fan-out depends on.
func TestConcurrentPredict(t *testing.T) {
	w := netsim.Generate(netsim.Options{Seed: 7, Markets: 2, ENodeBsPerMarket: 12})
	pi := w.Schema.IndexOf("sFreqPrio")
	tb := dataset.Build(w.Net, w.X2, w.Current, pi, nil)
	fitted, err := New().Fit(tb)
	if err != nil {
		t.Fatal(err)
	}
	m := fitted.(*Model)

	depsBefore := m.DependentColumns()

	// Reference predictions computed serially on a second fit of the same
	// table, so m's per-site row lists are first built under contention;
	// every goroutine must reproduce them exactly.
	rows := make([][]string, 24)
	for i := range rows {
		rows[i] = tb.Row(i)
	}
	for c := range rows[0] {
		rows[0][c] = "never-seen"
	}
	even := idsWhere(m, func(id lte.CarrierID) bool { return id%2 == 0 })
	wantPlain := make([]string, len(rows))
	wantScoped := make([]string, len(rows))
	ref, err := Fit(tb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		wantPlain[i] = ref.Predict(row).Explanation
		wantScoped[i] = ref.PredictCodes(ref.EncodeRow(row), row, ref.ScopeFrom(even)).Explanation
	}

	const goroutines = 16
	var wg sync.WaitGroup
	failures := make(chan string, goroutines)
	scope := m.ScopeFrom(even)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				i := (g + rep) % len(rows)
				if got := m.Predict(rows[i]).Explanation; got != wantPlain[i] {
					failures <- "Predict diverged under concurrency"
					return
				}
				if got := m.PredictCodes(m.EncodeRow(rows[i]), rows[i], scope).Explanation; got != wantScoped[i] {
					failures <- "scoped PredictCodes diverged under concurrency"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(failures)
	for f := range failures {
		t.Error(f)
	}

	// The fitted dependency ordering must be untouched by prediction.
	if got := m.DependentColumns(); !reflect.DeepEqual(got, depsBefore) {
		t.Error("DependentColumns changed across concurrent prediction")
	}
}
