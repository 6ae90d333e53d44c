package core

import (
	"reflect"
	"testing"

	"auric/internal/lte"
	"auric/internal/netsim"
)

// TestWorkerCountEquivalence is the parallel pipeline's correctness
// contract: the worker count may change timing only, never results. It
// trains engines at Workers=1, 2 and 8 on the same world and asserts the
// recommendations — value, label, confidence, Supported and the exact
// Explanation string — are deep-equal across worker counts, for both the
// global and the geographically scoped engine and for singular and
// pair-wise parameters alike. Run it under -race to also prove the fan-out
// never shares mutable state.
func TestWorkerCountEquivalence(t *testing.T) {
	w := netsim.Generate(netsim.Options{Seed: 13, Markets: 2, ENodeBsPerMarket: 16})
	for _, local := range []bool{false, true} {
		name := "global"
		if local {
			name = "local"
		}
		t.Run(name, func(t *testing.T) {
			var baseline map[lte.CarrierID][]Recommendation
			for _, workers := range []int{1, 2, 8} {
				e := New(w.Schema, Options{Local: local, Workers: workers})
				if err := e.Train(w.Net, w.X2, w.Current); err != nil {
					t.Fatal(err)
				}
				got := make(map[lte.CarrierID][]Recommendation)
				for _, ci := range []int{0, 7, 23} {
					c := &w.Net.Carriers[ci]
					recs, err := e.Recommend(c, w.X2.CarrierNeighbors(c.ID))
					if err != nil {
						t.Fatal(err)
					}
					got[c.ID] = recs
				}
				if baseline == nil {
					baseline = got
					continue
				}
				for id, recs := range got {
					if !reflect.DeepEqual(recs, baseline[id]) {
						t.Fatalf("Workers=%d: recommendations for carrier %d differ from Workers=1", workers, id)
					}
				}
			}
		})
	}
}

// TestTrainErrorAtAnyWorkerCount checks the pool's first-error collection:
// a partition that keeps no carriers must fail training at every worker
// count, and must leave the engine untrained.
func TestTrainErrorAtAnyWorkerCount(t *testing.T) {
	w := netsim.Generate(netsim.Options{Seed: 13, Markets: 2, ENodeBsPerMarket: 12})
	for _, workers := range []int{1, 4} {
		e := New(w.Schema, Options{Workers: workers})
		if err := e.train(w.Net, w.X2, w.Current, admitNone); err == nil {
			t.Fatalf("Workers=%d: training on an empty partition should fail", workers)
		}
		if e.Model(0) != nil {
			t.Fatalf("Workers=%d: failed training left a fitted model behind", workers)
		}
	}
}
