package netsim

import (
	"testing"

	"auric/internal/lte"
	"auric/internal/rng"
)

// TestIntendedMatchesOptimalForQuietCarriers: for carriers whose values
// carry no per-carrier noise (no stale trial) and no micro-tune, the
// oracle used for new-carrier vendor templates (IntendedSingularFor) must
// reproduce the generated Optimal exactly — they are the same process.
func TestIntendedMatchesOptimalForQuietCarriers(t *testing.T) {
	w := Generate(Options{Seed: 51, Markets: 2, ENodeBsPerMarket: 14,
		Truth: TruthOptions{
			MarketStyleRate:     0.45,
			ClusterOverrideRate: 0.10,
			RareValueShare:      0.15,
			StaleTrialRate:      1e-9, // effectively off
			MicroTuneRate:       1e-9,
			TerrainShare:        0.07,
			RolloutRate:         0.025,
			RolloutClusterShare: 0.25,
		}})
	mismatches := 0
	for ci := range w.Net.Carriers {
		c := &w.Net.Carriers[ci]
		intended := w.IntendedSingularFor(c)
		for _, pi := range w.Schema.Singular() {
			if intended[pi] != w.Optimal.Get(c.ID, pi) {
				mismatches++
			}
		}
	}
	if mismatches != 0 {
		t.Fatalf("%d intended/optimal divergences with noise disabled", mismatches)
	}
}

// TestRulebookOmitsLocalTuning: the stale vendor template must equal the
// intended configuration wherever no regional adjustment applies, and
// differ where market styles or cluster overrides do — it is the
// pre-tuning layer of the same process.
func TestRulebookOmitsLocalTuning(t *testing.T) {
	w := Generate(Options{Seed: 52, Markets: 2, ENodeBsPerMarket: 14})
	diffs, total := 0, 0
	for ci := 0; ci < 40; ci++ {
		c := &w.Net.Carriers[ci]
		stale := w.RulebookSingularFor(c)
		intended := w.IntendedSingularFor(c)
		for _, pi := range w.Schema.Singular() {
			total++
			if stale[pi] != intended[pi] {
				diffs++
			}
		}
	}
	if diffs == 0 {
		t.Fatal("rulebook template never differs from intended; local tuning lost")
	}
	if diffs == total {
		t.Fatal("rulebook template always differs from intended; base layer lost")
	}
}

func TestNewCarrierAtProperties(t *testing.T) {
	w := Generate(Options{Seed: 53, Markets: 2, ENodeBsPerMarket: 14})
	r := rng.New(9)
	for trial := 0; trial < 50; trial++ {
		enb := lte.ENodeBID(r.Intn(len(w.Net.ENodeBs)))
		id := lte.CarrierID(len(w.Net.Carriers) + trial)
		nc := w.NewCarrierAt(enb, id, r)
		if nc.ID != id || nc.ENodeB != enb {
			t.Fatal("identity fields wrong")
		}
		if nc.Market != w.Net.ENodeBs[enb].Market {
			t.Fatal("market not inherited from site")
		}
		// The chosen frequency is either new to the site or a duplicate of
		// a hosted layer (capacity add).
		valid := map[int]bool{700: true, 850: true, 1700: true, 1900: true, 2100: true, 2300: true}
		if !valid[nc.FrequencyMHz] {
			t.Fatalf("invalid frequency %d", nc.FrequencyMHz)
		}
		if nc.NeighborsOnENB != len(w.Net.ENodeBs[enb].Carriers) {
			t.Fatal("neighbor count not updated for the addition")
		}
	}
}
