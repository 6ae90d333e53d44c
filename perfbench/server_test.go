package main

import (
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"auric"
	"auric/internal/snapshot"
)

// TestKilledServerFailsRun kills auricd in the middle of a launch loop: the
// run must be marked failed, the loop must stop at once, and no request
// refused by the dead server may count as traffic.
func TestKilledServerFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs auricd")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "auricd")
	if out, err := exec.Command("go", "build", "-o", bin, "auric/cmd/auricd").CombinedOutput(); err != nil {
		t.Fatalf("building auricd: %v\n%s", err, out)
	}
	gen := auric.SimulateNetwork(auric.NetworkOptions{Seed: 3, Markets: 3, ENodeBsPerMarket: 12})
	snap := filepath.Join(dir, "world.snap")
	if err := snapshot.Save(snap, gen.Net, gen.Current); err != nil {
		t.Fatal(err)
	}
	w, err := openWorld(snap, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := startServer(bin, snap, filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()

	l := newLedger(srv)
	c := newClient(srv.base)
	defer c.close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		launchLoop(l, c, w, 0)
	}()
	for deadline := time.Now().Add(60 * time.Second); l.attempted.Load() < 50; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d requests in 60s", l.attempted.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if l.failed.Load() != 0 {
		t.Fatalf("%d failures before the kill: %v", l.failed.Load(), l.errors())
	}
	srv.kill()
	dead := time.Now()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the load loop kept running after auricd died")
	}
	if !l.died.Load() {
		t.Fatal("the run is not marked failed after auricd died")
	}
	// The request in flight at the kill fails; the loop issues nothing
	// after seeing the server gone.
	if f := l.failed.Load(); f < 1 || f > 2 {
		t.Fatalf("%d failed operations, want the one or two in flight at the kill", f)
	}
	if got := l.attempted.Load(); got != int64(len(l.ops)) {
		t.Fatalf("attempted %d, booked %d", got, len(l.ops))
	}
	for _, o := range l.completed("recommend", time.Time{}, time.Now()) {
		if o.end.After(dead) {
			t.Fatalf("a request that ended after the kill counts as served: %+v", o)
		}
	}
}
