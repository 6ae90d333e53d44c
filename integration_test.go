package auric_test

import (
	"path/filepath"
	"testing"

	"auric"
	"auric/internal/snapshot"
)

// TestIntegrationPipeline exercises the whole system through the public
// API: generate → persist → reload → rebuild X2 → train → launch a new
// carrier through the EMS with the engineer gate →
// verify the pushed configuration moved toward the regional intent.
func TestIntegrationPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration pipeline skipped in -short")
	}
	world := auric.SimulateNetwork(auric.NetworkOptions{Seed: 77, Markets: 2, ENodeBsPerMarket: 18})

	// Persist and reload the operator-visible state.
	path := filepath.Join(t.TempDir(), "net.json.gz")
	if err := snapshot.Save(path, world.Net, world.Current); err != nil {
		t.Fatal(err)
	}
	net, cfg, err := snapshot.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	x2 := auric.BuildX2(net)

	// Train on the reloaded snapshot (as a deployment would).
	engine := auric.NewEngine(cfg.Schema(), auric.EngineOptions{Local: true})
	if err := engine.Train(net, x2, cfg); err != nil {
		t.Fatal(err)
	}

	// Vendor integrates a new carrier with the stale template.
	store := cfg.Clone()
	store.Grow(1)
	srv := auric.NewEMSServer(cfg.Schema(), store, auric.EMSConfig{})
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

	newID := auric.CarrierID(len(net.Carriers))
	carrier := world.NewCarrierAt(4, newID, auric.NewRand(7))
	stale := world.RulebookSingularFor(carrier)
	intended := world.IntendedSingularFor(carrier)
	for _, pi := range cfg.Schema().Singular() {
		store.Set(newID, pi, stale[pi])
	}
	srv.ForceLock(newID)

	ctrl := auric.NewController(cfg.Schema(), client, auric.ControllerOptions{
		RequireSupport: true,
		Validate: func(ch auric.Change) bool {
			return ch.Neighbor < 0 && ch.To == intended[ch.ParamIndex]
		},
	})
	wf := &auric.LaunchWorkflow{Engine: engine, Ctrl: ctrl, Client: client}

	rec, err := wf.Launch(carrier, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Unlocked || !rec.PostcheckOK {
		t.Fatalf("launch record %+v", rec)
	}
	if rec.Planned > 0 && rec.Pushed != rec.Planned {
		t.Fatalf("pushed %d of %d planned", rec.Pushed, rec.Planned)
	}

	// Every pushed change moved the carrier onto the intended value.
	if rec.Pushed > 0 {
		improved := 0
		for _, pi := range cfg.Schema().Singular() {
			if store.Get(newID, pi) == intended[pi] && stale[pi] != intended[pi] {
				improved++
			}
		}
		if improved == 0 {
			t.Fatal("no parameter moved onto the intended value")
		}
	}
}
