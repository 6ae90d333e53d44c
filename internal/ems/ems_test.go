package ems

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"auric/internal/lte"
	"auric/internal/paramspec"
)

func startServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	schema := paramspec.Default()
	store := lte.NewConfig(schema, 8)
	srv := NewServer(schema, store, cfg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

func TestGetSetRoundTrip(t *testing.T) {
	srv, c := startServer(t, Config{})
	srv.ForceLock(3)
	if err := c.Set(3, "pMax", 30); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get(3, "pMax")
	if err != nil {
		t.Fatal(err)
	}
	if v != 30 {
		t.Errorf("Get = %v, want 30", v)
	}
	if srv.SetCount() != 1 {
		t.Errorf("SetCount = %d", srv.SetCount())
	}
}

func TestSetRejectedWhenUnlocked(t *testing.T) {
	_, c := startServer(t, Config{})
	err := c.Set(2, "pMax", 30)
	if !IsUnlocked(err) {
		t.Errorf("expected UNLOCKED error, got %v", err)
	}
}

func TestLockUnlockState(t *testing.T) {
	_, c := startServer(t, Config{})
	if err := c.Lock(1); err != nil {
		t.Fatal(err)
	}
	locked, err := c.State(1)
	if err != nil || !locked {
		t.Errorf("State after Lock = %v/%v", locked, err)
	}
	if err := c.Unlock(1); err != nil {
		t.Fatal(err)
	}
	locked, _ = c.State(1)
	if locked {
		t.Error("still locked after Unlock")
	}
}

func TestRangeValidation(t *testing.T) {
	srv, c := startServer(t, Config{})
	srv.ForceLock(0)
	err := c.Set(0, "pMax", 999)
	var e *Error
	if err == nil || !strings.Contains(err.Error(), "RANGE") {
		t.Errorf("out-of-range set: %v", err)
	}
	_ = e
}

func TestUnknownParamAndCarrier(t *testing.T) {
	srv, c := startServer(t, Config{})
	srv.ForceLock(0)
	if err := c.Set(0, "noSuchParam", 1); err == nil {
		t.Error("unknown parameter accepted")
	}
	if err := c.Set(100, "pMax", 10); err == nil {
		t.Error("out-of-range carrier accepted")
	}
	if _, err := c.Get(0, "hysA3Offset"); err == nil {
		t.Error("GET of pair-wise parameter accepted")
	}
}

func TestPairwiseRelations(t *testing.T) {
	srv, c := startServer(t, Config{})
	srv.ForceLock(0)
	if err := c.SetRel(0, 1, "hysA3Offset", 7.5); err != nil {
		t.Fatal(err)
	}
	v, err := c.GetRel(0, 1, "hysA3Offset")
	if err != nil || v != 7.5 {
		t.Errorf("GetRel = %v/%v", v, err)
	}
	if _, err := c.GetRel(1, 0, "hysA3Offset"); err == nil {
		t.Error("unconfigured reverse relation should error")
	}
}

func TestSetRelOutOfRangeCarrier(t *testing.T) {
	srv, c := startServer(t, Config{})
	srv.ForceLock(100)
	var e *Error
	if err := c.SetRel(100, 0, "hysA3Offset", 7.5); !errors.As(err, &e) || e.Code != "BADREQ" {
		t.Fatalf("SETREL from an out-of-range carrier: %v, want BADREQ", err)
	}
	// The connection and the server keep serving.
	srv.ForceLock(0)
	if err := c.SetRel(0, 1, "hysA3Offset", 7.5); err != nil {
		t.Fatalf("SETREL after the rejected one: %v", err)
	}
	if v, err := c.GetRel(0, 1, "hysA3Offset"); err != nil || v != 7.5 {
		t.Errorf("GetRel = %v/%v", v, err)
	}
}

func TestForceUnlockSimulatesOffBandEngineer(t *testing.T) {
	srv, c := startServer(t, Config{})
	srv.ForceLock(4)
	if err := c.Set(4, "pMax", 12); err != nil {
		t.Fatal(err)
	}
	srv.ForceUnlock(4) // engineer unlocks through the off-band interface
	if err := c.Set(4, "pMax", 18); !IsUnlocked(err) {
		t.Errorf("expected UNLOCKED after force unlock, got %v", err)
	}
}

func TestConcurrencyLimitProducesTimeouts(t *testing.T) {
	srv, _ := startServer(t, Config{
		MaxConcurrentSets: 1,
		SetLatency:        150 * time.Millisecond,
		QueueTimeout:      60 * time.Millisecond,
	})
	srv.ForceLock(0)
	addr := srv.lis.Addr().String()

	const workers = 4
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		timeouts int
		oks      int
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			err = c.Set(0, "pMax", float64(n)*0.6)
			mu.Lock()
			defer mu.Unlock()
			if IsTimeout(err) {
				timeouts++
			} else if err == nil {
				oks++
			} else {
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if timeouts == 0 {
		t.Error("no queue timeouts under a saturated EMS")
	}
	if oks == 0 {
		t.Error("no successful sets under a saturated EMS")
	}
}

func TestProtocolErrors(t *testing.T) {
	srv, _ := startServer(t, Config{})
	resp, _ := srv.handle("FROB 1 2")
	if !strings.HasPrefix(resp, "ERR BADREQ") {
		t.Errorf("unknown command: %q", resp)
	}
	resp, _ = srv.handle("GET 1")
	if !strings.HasPrefix(resp, "ERR BADREQ") {
		t.Errorf("short GET: %q", resp)
	}
	resp, bye := srv.handle("BYE")
	if resp != "OK" || !bye {
		t.Error("BYE mishandled")
	}
	resp, _ = srv.handle("SET x pMax 10")
	if !strings.HasPrefix(resp, "ERR BADREQ") {
		t.Errorf("bad carrier id: %q", resp)
	}
}

func TestGrowStoreForNewCarrier(t *testing.T) {
	schema := paramspec.Default()
	store := lte.NewConfig(schema, 2)
	srv := NewServer(schema, store, Config{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Lock(2); err != nil {
		t.Fatal(err)
	}
	if err := c.Set(2, "pMax", 6); err == nil {
		t.Fatal("set beyond store accepted before Grow")
	}
	store.Grow(1)
	if err := c.Set(2, "pMax", 6); err != nil {
		t.Fatalf("set after Grow: %v", err)
	}
}

func TestBulkSetAtomicRoundTrip(t *testing.T) {
	srv, c := startServer(t, Config{})
	srv.ForceLock(1)
	n, err := c.BulkSet(1, []Assignment{
		{Param: "pMax", Value: 24},
		{Param: "capacityThreshold", Value: 65},
		{Param: "sFreqPrio", Value: 1200},
	})
	if err != nil || n != 3 {
		t.Fatalf("BulkSet = %d, %v", n, err)
	}
	if v, _ := c.Get(1, "capacityThreshold"); v != 65 {
		t.Errorf("capacityThreshold = %v", v)
	}
	if srv.SetCount() != 3 {
		t.Errorf("SetCount = %d", srv.SetCount())
	}
}

func TestBulkSetValidatesBeforeApplying(t *testing.T) {
	srv, c := startServer(t, Config{})
	srv.ForceLock(1)
	// One bad assignment poisons the whole batch: nothing applies.
	_, err := c.BulkSet(1, []Assignment{
		{Param: "pMax", Value: 24},
		{Param: "pMax", Value: 9999}, // out of range
	})
	if err == nil {
		t.Fatal("out-of-range bulk accepted")
	}
	if v, _ := c.Get(1, "pMax"); v != 0 {
		t.Errorf("partial bulk application: pMax = %v", v)
	}
	// Pair-wise parameters are rejected.
	if _, err := c.BulkSet(1, []Assignment{{Param: "hysA3Offset", Value: 3}}); err == nil {
		t.Error("pair-wise parameter accepted in bulk")
	}
	// Unlocked carriers are rejected.
	if _, err := c.BulkSet(2, []Assignment{{Param: "pMax", Value: 6}}); !IsUnlocked(err) {
		t.Errorf("unlocked bulk error = %v", err)
	}
	// Empty batch is a no-op.
	if n, err := c.BulkSet(1, nil); n != 0 || err != nil {
		t.Errorf("empty bulk = %d, %v", n, err)
	}
}

func TestBulkSetUsesOneExecutionSlot(t *testing.T) {
	// Under a saturated EMS, 8 individual SETs would each wait for a
	// slot; one BULKSET waits once. With latency 40ms and queue timeout
	// 60ms, two concurrent bulk pushes both succeed (the second waits
	// 40ms < 60ms), whereas sequential singles from two clients would
	// time out.
	srv, c := startServer(t, Config{
		MaxConcurrentSets: 1,
		SetLatency:        40 * time.Millisecond,
		QueueTimeout:      60 * time.Millisecond,
	})
	srv.ForceLock(0)
	srv.ForceLock(1)
	addr := srv.lis.Addr().String()
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	batch := func(id lte.CarrierID) []Assignment {
		var out []Assignment
		for i := 0; i < 8; i++ {
			out = append(out, Assignment{Param: "capacityThreshold", Value: float64(10 + i)})
		}
		return out
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); _, errs[0] = c.BulkSet(0, batch(0)) }()
	go func() { defer wg.Done(); _, errs[1] = c2.BulkSet(1, batch(1)) }()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("bulk %d failed: %v", i, err)
		}
	}
}
