package health

import (
	"testing"
	"time"

	"auric/internal/core"
	"auric/internal/lte"
	"auric/internal/netsim"
	"auric/internal/obs"
)

// testRig is a loaded sharded engine with a bound tracker over a small
// two-market world.
type testRig struct {
	w   *netsim.World
	eng *core.ShardedEngine
	tr  *Tracker
	reg *obs.Registry
}

func newRig(t *testing.T, cfg Config) *testRig {
	t.Helper()
	w := netsim.Generate(netsim.Options{Seed: 7, Markets: 2, ENodeBsPerMarket: 6,
		Truth: netsim.DefaultTruth()})
	reg := obs.New()
	tr := New(reg, cfg)
	eng := core.NewSharded(w.Schema, core.Options{Local: true, Workers: 2})
	tr.Bind(eng)
	eng.SetObserver(tr)
	if _, err := eng.Load(w.Net, w.X2, w.Current); err != nil {
		t.Fatal(err)
	}
	return &testRig{w: w, eng: eng, tr: tr, reg: reg}
}

// marketCarriers lists the live carriers of one market.
func marketCarriers(net *lte.Network, m int) []lte.CarrierID {
	var out []lte.CarrierID
	for i := range net.Carriers {
		if net.Carriers[i].Market == m {
			out = append(out, net.Carriers[i].ID)
		}
	}
	return out
}

// flippedClones builds an upsert delta cloning every carrier of a market
// n times with every singular parameter forced to the opposite end of its
// grid — label-flipping churn that a shadow refit must catch.
func flippedClones(w *netsim.World, m, n int) core.Delta {
	var d core.Delta
	for _, id := range marketCarriers(w.Net, m) {
		for k := 0; k < n; k++ {
			c := w.Net.Carriers[id]
			c.ID = -1
			cfg := make(map[int]float64)
			for _, pi := range w.Schema.Singular() {
				spec := w.Schema.At(pi)
				lo, hi := spec.ValueAt(0), spec.ValueAt(spec.Levels()-1)
				v := hi
				if w.Current.Get(id, pi) == hi {
					v = lo
				}
				cfg[pi] = v
			}
			d.Upserts = append(d.Upserts, core.Upsert{Carrier: c, Config: cfg})
		}
	}
	return d
}

// faithfulClones builds an upsert delta cloning every carrier of a market
// with its live attributes and its live singular configuration — churn
// that adds evidence agreeing with the serving labels.
func faithfulClones(w *netsim.World, m int) core.Delta {
	var d core.Delta
	for _, id := range marketCarriers(w.Net, m) {
		c := w.Net.Carriers[id]
		c.ID = -1
		cfg := make(map[int]float64)
		for _, pi := range w.Schema.Singular() {
			cfg[pi] = w.Current.Get(id, pi)
		}
		d.Upserts = append(d.Upserts, core.Upsert{Carrier: c, Config: cfg})
	}
	return d
}

func TestWindowStats(t *testing.T) {
	var w window
	w.init(4)
	recs := []core.Recommendation{
		{Confidence: 1.0, VoteShare: 1.0, RelaxationLevel: 0, Supported: true},
		{Confidence: 0.5, VoteShare: 0.5, RelaxationLevel: 2, Supported: false},
	}
	w.record(recs)
	st := w.stats()
	if st.Served != 2 || st.Unsupported != 1 || st.Size != 2 {
		t.Fatalf("lifetime counters: %+v", st)
	}
	if st.UnsupportedRatio != 0.5 || st.MeanConfidence != 0.75 || st.MeanVoteShare != 0.75 {
		t.Fatalf("window means: %+v", st)
	}
	if st.RelaxationMix["0"] != 0.5 || st.RelaxationMix["2"] != 0.5 {
		t.Fatalf("relaxation mix: %+v", st.RelaxationMix)
	}
	// Wrap the ring: 3 more supported predictions evict one of each.
	w.record([]core.Recommendation{
		{Confidence: 1, VoteShare: 1, Supported: true},
		{Confidence: 1, VoteShare: 1, Supported: true},
		{Confidence: 1, VoteShare: 1, RelaxationLevel: -1, Supported: true},
	})
	st = w.stats()
	if st.Served != 5 || st.Size != 4 {
		t.Fatalf("after wrap: %+v", st)
	}
	if st.RelaxationMix["fallback"] != 0.25 {
		t.Fatalf("fallback share after wrap: %+v", st.RelaxationMix)
	}
}

func TestDriftScores(t *testing.T) {
	var d driftTable
	d.init(2)
	for i := 0; i < 50; i++ {
		d.addBase([]string{"a", "x"})
		d.addBase([]string{"b", "x"})
	}
	// Column 0 observed matches the base mix; column 1 sees a brand-new
	// value only.
	for i := 0; i < 25; i++ {
		d.addObserved([]string{"a", "y"})
		d.addObserved([]string{"b", "y"})
	}
	st := d.stats(50, 0)
	if len(st.Columns) != 2 {
		t.Fatalf("want 2 scored columns, got %+v", st)
	}
	if st.Columns[0].PSI > 0.05 {
		t.Errorf("stable column PSI = %.4f, want ~0", st.Columns[0].PSI)
	}
	if st.Columns[1].PSI < 0.25 {
		t.Errorf("drifted column PSI = %.4f, want > 0.25", st.Columns[1].PSI)
	}
	if st.MaxPSIColumn != lte.AttributeNames()[1] {
		t.Errorf("max PSI column = %q", st.MaxPSIColumn)
	}
	if st.Columns[1].ChiSquare <= 0 || st.Columns[1].DF < 1 {
		t.Errorf("chi-square of drifted column: %+v", st.Columns[1])
	}
}

func TestDriftUnobservedColumnsSkipped(t *testing.T) {
	var d driftTable
	d.init(1)
	d.addBase([]string{"a"})
	if st := d.stats(0, 0); len(st.Columns) != 0 || st.MaxPSI != 0 {
		t.Fatalf("no observed rows should score no columns: %+v", st)
	}
}

func TestServedFeedsWindowAndDrift(t *testing.T) {
	rig := newRig(t, Config{WindowSize: 128, MinWindow: 1})
	ids := marketCarriers(rig.w.Net, 0)
	for _, id := range ids {
		if _, err := rig.eng.Recommend(&rig.w.Net.Carriers[id], nil); err != nil {
			t.Fatal(err)
		}
	}
	rep := rig.tr.Report()
	if len(rep.Shards) != 2 {
		t.Fatalf("want 2 shards, got %+v", rep)
	}
	sh := rep.Shards[0]
	if sh.Market != 0 || sh.Window.Size == 0 || sh.Window.Served == 0 {
		t.Fatalf("market 0 window not fed: %+v", sh)
	}
	if sh.Window.MeanConfidence <= 0 || sh.Window.MeanConfidence > 1 {
		t.Fatalf("mean confidence out of range: %+v", sh.Window)
	}
	if sh.Drift.QueriedRows != int64(len(ids)) {
		t.Fatalf("queried rows = %d, want %d", sh.Drift.QueriedRows, len(ids))
	}
	// Queries come from the training base itself: no drift.
	if sh.Drift.MaxPSI > 0.05 {
		t.Fatalf("self-queries drifted: %+v", sh.Drift)
	}
	if sh.Status != "ok" || rep.Status != "ok" {
		t.Fatalf("undrifted shard degraded: %+v", sh)
	}
	if rig.tr.confidence.Count() == 0 {
		t.Fatal("auric_prediction_confidence not fed")
	}
	// Market 1 saw no traffic.
	if rep.Shards[1].Window.Served != 0 {
		t.Fatalf("market 1 window fed unexpectedly: %+v", rep.Shards[1])
	}
}

func TestShadowNoChurnAgrees(t *testing.T) {
	rig := newRig(t, Config{})
	res := shadowOf(t, rig.tr, 0)
	if res.Probes == 0 || res.Compared == 0 {
		t.Fatalf("shadow probed nothing: %+v", res)
	}
	if res.Disagreed != 0 {
		t.Fatalf("fresh refit disagrees with untouched serving model: %+v", res)
	}
}

func TestShadowRoundTripChurnAgrees(t *testing.T) {
	rig := newRig(t, Config{})
	res1, err := rig.eng.Apply(faithfulClones(rig.w, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Remove the clones again: net-zero churn leaves the patched model
	// with exactly the baseline evidence, so a fresh refit must agree.
	if _, err := rig.eng.Apply(core.Delta{Tombstones: res1.Assigned}); err != nil {
		t.Fatal(err)
	}
	res := shadowOf(t, rig.tr, 0)
	if res.Compared == 0 {
		t.Fatalf("shadow compared nothing: %+v", res)
	}
	if res.Disagreed != 0 {
		t.Fatalf("label-consistent churn flipped %d of %d predictions", res.Disagreed, res.Compared)
	}
}

func TestShadowDetectsDivergence(t *testing.T) {
	rig := newRig(t, Config{MinDriftRows: 1})
	if _, err := rig.eng.Apply(flippedClones(rig.w, 0, 4)); err != nil {
		t.Fatal(err)
	}
	res := shadowOf(t, rig.tr, 0)
	if res.Compared == 0 || res.Disagreed == 0 {
		t.Fatalf("flipped-config churn not detected: %+v", res)
	}
	rep := rig.tr.Report()
	sh := rep.Shards[0]
	if sh.Shadow == nil || sh.Shadow.DisagreementRatio <= 0.02 {
		t.Fatalf("report misses shadow divergence: %+v", sh.Shadow)
	}
	if sh.Status != "degraded" {
		t.Fatalf("diverged shard still ok: %+v", sh)
	}
	// The untouched market stays clean.
	if got := shadowOf(t, rig.tr, 1); got.Disagreed != 0 {
		t.Fatalf("market 1 shadow: %+v", got)
	}
}

func TestAutoShadowTrigger(t *testing.T) {
	rig := newRig(t, Config{ShadowEvery: 1})
	if _, err := rig.eng.Apply(faithfulClones(rig.w, 0)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		rep := rig.tr.Report()
		if len(rep.Shards) > 0 && rep.Shards[0].Shadow != nil {
			if rep.Shards[0].Shadow.Compared == 0 {
				t.Fatalf("auto shadow compared nothing: %+v", rep.Shards[0].Shadow)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("automatic shadow check never completed")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestTransitionsFireOncePerFlip(t *testing.T) {
	var flips []Transition
	cfg := Config{MinDriftRows: 1, MaxPSI: 0.0001,
		OnTransition: func(tr Transition) { flips = append(flips, tr) }}
	rig := newRig(t, cfg)
	rig.tr.Report()
	if len(flips) != 0 {
		t.Fatalf("transition before any traffic: %+v", flips)
	}
	// One drifted upsert (attributes from another market's carrier shape
	// are unnecessary — any observed row trips a 0.0001 PSI threshold).
	d := faithfulClones(rig.w, 0)
	d.Upserts = d.Upserts[:1]
	if _, err := rig.eng.Apply(d); err != nil {
		t.Fatal(err)
	}
	rig.tr.Report()
	rig.tr.Report()
	if len(flips) != 1 || !flips[0].Degraded || flips[0].Market != 0 {
		t.Fatalf("want exactly one degraded transition for market 0, got %+v", flips)
	}
	if len(flips[0].Reasons) == 0 {
		t.Fatalf("degraded transition carries no reasons")
	}
}

func TestJournalLagDegradesEveryShard(t *testing.T) {
	rig := newRig(t, Config{MaxLagOps: 5})
	rig.tr.SetJournalLag(6)
	rep := rig.tr.Report()
	if rep.JournalLagOps != 6 || rep.Status != "degraded" {
		t.Fatalf("lag 6 over threshold 5 not degraded: %+v", rep)
	}
	rig.tr.SetJournalLag(0)
	if rep := rig.tr.Report(); rep.Status != "ok" {
		t.Fatalf("lag cleared but still degraded: %+v", rep)
	}
}

func TestReportBeforeLoad(t *testing.T) {
	tr := New(obs.New(), Config{})
	if rep := tr.Report(); rep.Status != "ok" || len(rep.Shards) != 0 {
		t.Fatalf("unloaded tracker: %+v", rep)
	}
	// Observer callbacks before Load are no-ops, not panics.
	tr.ObserveServed(0, &lte.Carrier{}, nil)
	tr.ObserveApply(1, &lte.Network{}, nil, nil)
	if err := tr.RefreshShadow(); err == nil {
		t.Fatal("shadow check before load should fail")
	}
}

// shadowOf runs a shadow check of every tracked market and returns
// market m's result as Report carries it.
func shadowOf(t *testing.T, tr *Tracker, m int) *ShadowResult {
	t.Helper()
	if err := tr.RefreshShadow(); err != nil {
		t.Fatal(err)
	}
	for _, sh := range tr.Report().Shards {
		if sh.Market == m && sh.Shadow != nil {
			return sh.Shadow
		}
	}
	t.Fatalf("report carries no shadow result for market %d", m)
	return nil
}

func BenchmarkObserveServed(b *testing.B) {
	w := netsim.Generate(netsim.Options{Seed: 7, Markets: 1, ENodeBsPerMarket: 6,
		Truth: netsim.DefaultTruth()})
	reg := obs.New()
	tr := New(reg, Config{WindowSize: 2048})
	eng := core.NewSharded(w.Schema, core.Options{Local: true, Workers: 1})
	tr.Bind(eng)
	eng.SetObserver(tr)
	if _, err := eng.Load(w.Net, w.X2, w.Current); err != nil {
		b.Fatal(err)
	}
	c := &w.Net.Carriers[0]
	plain := core.New(w.Schema, core.Options{Local: true, Workers: 1})
	if err := plain.Train(w.Net, w.X2, w.Current); err != nil {
		b.Fatal(err)
	}
	recs, err := plain.Recommend(c, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ObserveServed(0, c, recs)
	}
}
