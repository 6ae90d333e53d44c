package trace

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTracesHandlerRacesWriters serves /debug/traces while writers commit
// traces into the rings as fast as they can. Every trace is slow, so it
// lands in both the small recent ring and the slow ring, and the writers
// wrap both many times over under the readers: any unsynchronized ring
// access is a -race failure, and every served body must still be
// well-formed JSON (no torn traces).
func TestTracesHandlerRacesWriters(t *testing.T) {
	tr := New(Options{SampleRate: 1, SlowThreshold: time.Nanosecond, Capacity: 8})
	h := tr.TracesHandler()
	stop := make(chan struct{})
	var committed atomic.Int64

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rctx, root := tr.StartRoot(ctx, "load")
				cctx, child := Start(rctx, "stage")
				child.SetStr("worker", "w")
				child.SetInt("iter", int64(i))
				_, leaf := Start(cctx, "leaf")
				leaf.Finish()
				child.Finish()
				root.Finish()
				committed.Add(1)
			}
		}(g)
	}

	// Read at least 200 times, and on until the writers have wrapped the
	// slow ring: on a loaded machine the reads can finish before any
	// writer is scheduled. Past the deadline the count check below fails.
	deadline := time.Now().Add(30 * time.Second)
	for r := 0; r < 200 || committed.Load() <= slowCapacity; r++ {
		if time.Now().After(deadline) {
			break
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /debug/traces: %d: %s", rec.Code, rec.Body)
		}
		var out struct {
			Traces []struct {
				TraceID string `json:"traceId"`
			} `json:"traces"`
			Slow []struct {
				TraceID string `json:"traceId"`
			} `json:"slow"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("GET /debug/traces returned torn JSON under write load: %v", err)
		}
		for _, tc := range append(out.Traces, out.Slow...) {
			if tc.TraceID == "" {
				t.Fatal("served trace lost its id under write load")
			}
		}
		// Raw snapshots race the same slots the handler reads.
		for _, tc := range tr.Traces() {
			if tc == nil {
				t.Fatal("snapshot returned a nil trace")
			}
		}
		tr.SlowTraces()
	}
	close(stop)
	wg.Wait()
	if n := committed.Load(); n <= slowCapacity {
		t.Errorf("writers committed %d traces, too few to wrap the %d-slot slow ring", n, slowCapacity)
	}
}
