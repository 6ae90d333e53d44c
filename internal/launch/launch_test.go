package launch

import (
	"testing"
	"time"

	"auric/internal/controller"
	"auric/internal/core"
	"auric/internal/ems"
	"auric/internal/lte"
	"auric/internal/netsim"
	"auric/internal/rng"
)

func testWorld() *netsim.World {
	return netsim.Generate(netsim.Options{Seed: 31, Markets: 2, ENodeBsPerMarket: 20})
}

func buildWorkflow(t *testing.T, w *netsim.World, store *lte.Config) (*Workflow, *ems.Server) {
	t.Helper()
	engine := core.New(w.Schema, core.Options{Local: true})
	if err := engine.Train(w.Net, w.X2, w.Current); err != nil {
		t.Fatal(err)
	}
	srv := ems.NewServer(w.Schema, store, ems.Config{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := ems.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	ctrl := controller.New(w.Schema, client, controller.Options{RequireSupport: true})
	return &Workflow{Engine: engine, Ctrl: ctrl, Client: client}, srv
}

func TestLaunchVendorCorrectConfig(t *testing.T) {
	w := testWorld()
	store := w.Current.Clone()
	store.Grow(1)
	wf, srv := buildWorkflow(t, w, store)

	id := lte.CarrierID(len(w.Net.Carriers))
	nc := w.NewCarrierAt(3, id, rng.New(1))
	for _, pi := range w.Schema.Singular() {
		store.Set(id, pi, w.IntendedSingularFor(nc)[pi])
	}
	srv.ForceLock(id)

	rec, err := wf.Launch(nc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.PrecheckOK || !rec.Unlocked || !rec.PostcheckOK {
		t.Errorf("launch record = %+v", rec)
	}
	// A vendor with the up-to-date regional template should need far
	// fewer changes than the 39 singular parameters; a brand-new carrier
	// is a never-observed attribute combination, so some confident
	// disagreements remain (in production the engineer validation gate
	// filters them — see Simulate).
	if rec.Planned > 15 {
		t.Errorf("correct vendor config produced %d planned changes", rec.Planned)
	}
	if locked, err := wf.Client.State(id); err != nil || locked {
		t.Errorf("carrier still locked after launch (state %v, %v)", locked, err)
	}
}

func TestLaunchVendorStaleConfig(t *testing.T) {
	w := testWorld()
	store := w.Current.Clone()
	store.Grow(1)
	wf, srv := buildWorkflow(t, w, store)

	id := lte.CarrierID(len(w.Net.Carriers))
	nc := w.NewCarrierAt(5, id, rng.New(2))
	stale := w.RulebookSingularFor(nc)
	for _, pi := range w.Schema.Singular() {
		store.Set(id, pi, stale[pi])
	}
	srv.ForceLock(id)

	rec, err := wf.Launch(nc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Planned == 0 {
		t.Fatal("stale vendor config produced no planned changes")
	}
	if rec.Outcome != controller.Applied || rec.Pushed != rec.Planned {
		t.Errorf("record = %+v, want all changes applied", rec)
	}
	if rec.Fallout() {
		t.Error("successful launch flagged as fallout")
	}
	// The pushed values should move the carrier toward the intended
	// configuration.
	intended := w.IntendedSingularFor(nc)
	better := 0
	for _, pi := range w.Schema.Singular() {
		if store.Get(id, pi) == intended[pi] && stale[pi] != intended[pi] {
			better++
		}
	}
	if better == 0 {
		t.Error("no pushed change landed on the intended value")
	}
}

func TestLaunchPrematureUnlockSkips(t *testing.T) {
	w := testWorld()
	store := w.Current.Clone()
	store.Grow(1)
	wf, srv := buildWorkflow(t, w, store)

	id := lte.CarrierID(len(w.Net.Carriers))
	nc := w.NewCarrierAt(7, id, rng.New(3))
	stale := w.RulebookSingularFor(nc)
	for _, pi := range w.Schema.Singular() {
		store.Set(id, pi, stale[pi])
	}
	// Engineer unlocks off-band before the workflow runs.
	srv.ForceUnlock(id)

	rec, err := wf.Launch(nc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.PrecheckOK {
		t.Error("precheck passed on an unlocked carrier")
	}
	if rec.Pushed != 0 {
		t.Error("changes pushed to an unlocked carrier")
	}
	if rec.Planned > 0 && !rec.Fallout() {
		t.Error("premature unlock with planned changes should be a fallout")
	}
}

func TestSimulateTable5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation skipped in -short")
	}
	w := testWorld()
	res, records, err := Simulate(w, SimOptions{
		Seed:     1,
		Launches: 220,
		EMS: ems.Config{
			MaxConcurrentSets: 2,
			SetLatency:        time.Millisecond,
			QueueTimeout:      8 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 220 || len(records) != 220 {
		t.Fatalf("launched %d", res.Launched)
	}
	// The change rate should sit near the configured vendor-error rate
	// (paper: 11.4%).
	if rate := res.ChangeRate(); rate < 0.05 || rate > 0.30 {
		t.Errorf("change rate = %v, want around 0.125", rate)
	}
	if res.Implemented+res.Fallouts != res.WithChanges {
		t.Errorf("implemented %d + fallouts %d != with-changes %d",
			res.Implemented, res.Fallouts, res.WithChanges)
	}
	if res.Implemented == 0 {
		t.Error("no launches implemented changes")
	}
	if res.FalloutUnlock == 0 {
		t.Error("no premature-unlock fallouts despite the configured rate")
	}
	if res.ParamsChanged == 0 {
		t.Error("no parameters changed")
	}
	// Every record stays internally consistent.
	for _, rec := range records {
		if rec.Pushed > rec.Planned {
			t.Fatalf("record pushed more than planned: %+v", rec)
		}
		if !rec.Unlocked {
			t.Fatalf("carrier never unlocked: %+v", rec)
		}
	}
}

func TestSimulateBulkEliminatesTimeouts(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation skipped in -short")
	}
	w := testWorld()
	// A deliberately congested EMS.
	congested := ems.Config{
		MaxConcurrentSets: 1,
		SetLatency:        2 * time.Millisecond,
		QueueTimeout:      6 * time.Millisecond,
	}
	perParam, _, err := Simulate(w, SimOptions{Seed: 5, Launches: 250, EMS: congested})
	if err != nil {
		t.Fatal(err)
	}
	bulk, _, err := Simulate(w, SimOptions{Seed: 5, Launches: 250, EMS: congested, Bulk: true})
	if err != nil {
		t.Fatal(err)
	}
	if perParam.FalloutTimeout == 0 {
		t.Skip("congestion did not produce timeouts on this machine; nothing to compare")
	}
	if bulk.FalloutTimeout >= perParam.FalloutTimeout {
		t.Errorf("bulk push timeouts = %d, per-param = %d; bulk should reduce them",
			bulk.FalloutTimeout, perParam.FalloutTimeout)
	}
	// Bulk must not change what gets recommended, only how it is pushed.
	if bulk.WithChanges != perParam.WithChanges {
		t.Errorf("bulk changed the recommendation count: %d vs %d",
			bulk.WithChanges, perParam.WithChanges)
	}
}
