package auric_test

import (
	"strings"
	"testing"

	"auric"
)

func TestFacadeEndToEnd(t *testing.T) {
	w := auric.SimulateNetwork(auric.NetworkOptions{Seed: 5, Markets: 2, ENodeBsPerMarket: 16})
	if len(w.Net.Carriers) == 0 {
		t.Fatal("empty world")
	}
	eng := auric.NewEngine(w.Schema, auric.EngineOptions{Local: true})
	if err := eng.Train(w.Net, w.X2, w.Current); err != nil {
		t.Fatal(err)
	}
	recs, err := eng.Recommend(&w.Net.Carriers[3], w.X2.CarrierNeighbors(3))
	if err != nil {
		t.Fatal(err)
	}
	singular := len(w.Schema.Singular())
	if len(recs) < singular {
		t.Fatalf("got %d recommendations, want at least %d", len(recs), singular)
	}
	for _, r := range recs {
		if r.Explanation == "" {
			t.Fatalf("recommendation for %s lacks explanation", r.Param)
		}
	}
}

func TestFacadeLearners(t *testing.T) {
	names := auric.Learners()
	if len(names) != 6 { // the five of Table 4 plus lasso (Sec 3.2)
		t.Fatalf("Learners() = %v", names)
	}
	for _, n := range names {
		l, err := auric.NewLearner(n)
		if err != nil || l.Name() != n {
			t.Errorf("NewLearner(%q) = %v, %v", n, l, err)
		}
	}
	if auric.NewCollaborativeFiltering().Name() != "collaborative-filtering" {
		t.Error("NewCollaborativeFiltering constructor mismatch")
	}
	if auric.NewDeepNeuralNetwork().Name() != "deep-neural-network" {
		t.Error("NewDeepNeuralNetwork constructor mismatch")
	}
	if auric.NewLassoRegression().Name() != "lasso-regression" {
		t.Error("NewLassoRegression constructor mismatch")
	}
}

func TestFacadeSchema(t *testing.T) {
	s := auric.DefaultSchema()
	if s.Len() != 65 {
		t.Fatalf("schema has %d parameters", s.Len())
	}
	if s.IndexOf("hysA3Offset") < 0 {
		t.Error("hysA3Offset missing")
	}
}

func TestFacadeAnalysis(t *testing.T) {
	w := auric.SimulateNetwork(auric.NetworkOptions{Seed: 6, Markets: 4, ENodeBsPerMarket: 12})
	if rows := auric.Variability(w); len(rows) != 65 {
		t.Fatalf("Variability rows = %d", len(rows))
	}
	if ms := auric.TimezoneMarkets(w); len(ms) != 4 {
		t.Fatalf("TimezoneMarkets = %v", ms)
	}
	_, byClass := auric.Skewness(w)
	total := byClass[auric.HighlySkewed] + byClass[auric.ModeratelySkewed] + byClass[auric.Symmetric]
	if total != 65 {
		t.Fatalf("skew classes cover %d parameters", total)
	}
}

func TestFacadeEMSRoundTrip(t *testing.T) {
	schema := auric.DefaultSchema()
	w := auric.SimulateNetwork(auric.NetworkOptions{Seed: 7, Markets: 1, ENodeBsPerMarket: 8})
	store := w.Current.Clone()
	srv := auric.NewEMSServer(schema, store, auric.EMSConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := auric.DialEMS(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	srv.ForceLock(0)
	if err := client.Set(0, "pMax", 12); err != nil {
		t.Fatal(err)
	}
	v, err := client.Get(0, "pMax")
	if err != nil || v != 12 {
		t.Fatalf("Get = %v, %v", v, err)
	}
}

func TestFacadeLaunchSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation skipped in -short")
	}
	w := auric.SimulateNetwork(auric.NetworkOptions{Seed: 8, Markets: 2, ENodeBsPerMarket: 16})
	res, records, err := auric.SimulateLaunches(w, auric.LaunchSimOptions{Seed: 1, Launches: 60})
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 60 || len(records) != 60 {
		t.Fatalf("launched %d", res.Launched)
	}
	for _, rec := range records {
		if !rec.Unlocked {
			t.Fatal("carrier left locked")
		}
	}
}

func TestFacadeDocNamesMatchPaper(t *testing.T) {
	// The facade should speak the paper's vocabulary.
	for _, want := range []string{"collaborative-filtering", "decision-tree",
		"random-forest", "k-nearest-neighbors", "deep-neural-network"} {
		found := false
		for _, n := range auric.Learners() {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("learner %q missing", want)
		}
	}
	if !strings.Contains(strings.Join(auric.Learners(), " "), "collaborative") {
		t.Error("collaborative filtering absent")
	}
}
