package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"auric"
	"auric/internal/obs"
	"auric/internal/rng"
)

// goldenTraceParent fixes the trace id every golden request carries, so
// the "traceId" the bodies echo is part of the pinned bytes.
const goldenTraceParent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"

// goldenServeDigest is the SHA-256 over status and body bytes of every
// /v1/recommend response form in TestServeGoldenBodies. The response
// writer may change how it produces these bytes, never the bytes
// themselves: a change here is a wire change.
const goldenServeDigest = "69293e2aedbe9cfe00ab400088068b38baf35760d02d43b56aa68c01a76fe52b"

// goldenBatch mixes answered items, per-item resolution failures and a
// new carrier, for both batch forms.
const goldenBatch = `[
	{"carrier": 5},
	{"carrier": 999999},
	{"enodeb": 4, "frequencyMHz": 1900},
	{},
	{"carrier": 7, "pairwise": true}
]`

// TestServeGoldenBodies pins the exact response bytes of POST
// /v1/recommend in every form it answers: single objects (singular,
// pair-wise, a new carrier), buffered batches (mixed and all-error), an
// NDJSON stream, and the 400/404/409/413 error paths.
func TestServeGoldenBodies(t *testing.T) {
	s := testServer(t)
	h := newHandler(s, handlerOptions{registry: obs.New()})
	post := func(body string, ndjson bool) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/v1/recommend", strings.NewReader(body))
		req.Header.Set("traceparent", goldenTraceParent)
		if ndjson {
			req.Header.Set("Accept", "application/x-ndjson")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	digest := sha256.New()
	check := func(name string, rec *httptest.ResponseRecorder, want int) {
		t.Helper()
		if rec.Code != want {
			t.Fatalf("%s: status %d, want %d: %.200s", name, rec.Code, want, rec.Body.String())
		}
		fmt.Fprintf(digest, "%s %d\n", name, rec.Code)
		digest.Write(rec.Body.Bytes())
	}
	item := `{"carrier": 5}`
	for _, c := range []struct {
		name, body string
		ndjson     bool
		want       int
	}{
		{"single", `{"carrier": 5}`, false, http.StatusOK},
		{"single-pairwise", `{"carrier": 7, "pairwise": true}`, false, http.StatusOK},
		{"single-new-carrier", `{"enodeb": 4, "frequencyMHz": 1900}`, false, http.StatusOK},
		{"batch", goldenBatch, false, http.StatusOK},
		{"batch-all-errors", `[{"carrier": 999999}, {}]`, false, http.StatusOK},
		{"ndjson", goldenBatch, true, http.StatusOK},
		{"400-malformed", `not json`, false, http.StatusBadRequest},
		{"400-empty", `{}`, false, http.StatusBadRequest},
		{"400-empty-batch", `[]`, false, http.StatusBadRequest},
		{"404-carrier", `{"carrier": 999999}`, false, http.StatusNotFound},
		{"404-enodeb", `{"enodeb": 999999}`, false, http.StatusNotFound},
		{"413", item + strings.Repeat(" ", maxBodyBytes+1-len(item)), false, http.StatusRequestEntityTooLarge},
	} {
		check(c.name, post(c.body, c.ndjson), c.want)
	}

	// 409: a snapshot-served daemon derives a new carrier from a co-sited
	// donor, and an eNodeB whose carriers are all tombstoned has none.
	net, _, _, err := s.engine.Inventory()
	if err != nil {
		t.Fatal(err)
	}
	const enb = 9
	for _, id := range net.ENodeBs[enb].Carriers {
		if rec := do(h, "DELETE", fmt.Sprintf("/v1/carriers/%d", id), ""); rec.Code != http.StatusOK {
			t.Fatalf("tombstone %d: status %d: %s", id, rec.Code, rec.Body.String())
		}
	}
	s.world = nil
	check("409-no-donor", post(fmt.Sprintf(`{"enodeb": %d}`, enb), false), http.StatusConflict)

	if got := hex.EncodeToString(digest.Sum(nil)); got != goldenServeDigest {
		t.Errorf("response digest %s, want %s", got, goldenServeDigest)
	}
}

// benchServer builds a daemon as main does on its shipping defaults (a
// cache-backed engine, every request traced) over the handler-test world,
// without the audit log.
func benchServer(b *testing.B) http.Handler {
	b.Helper()
	prev := log.Writer()
	log.SetOutput(io.Discard)
	b.Cleanup(func() { log.SetOutput(prev) })
	w := auric.SimulateNetwork(auric.NetworkOptions{Seed: 2, Markets: 1, ENodeBsPerMarket: 10})
	s := &server{newRNG: rng.New(1), world: w, cacheEntries: 4096}
	s.source = func() (*auric.Network, *auric.X2Graph, *auric.Config, error) {
		return w.Net, w.X2, w.Current, nil
	}
	if _, err := s.restore(nil); err != nil {
		b.Fatal(err)
	}
	return newHandler(s, handlerOptions{registry: obs.New()})
}

// discardWriter is a flushing ResponseWriter that keeps only the status
// and the body length, so BenchmarkServeHTTP measures the daemon rather
// than a recorder's buffer growth.
type discardWriter struct {
	header http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (w *discardWriter) Flush()                      {}

// BenchmarkServeHTTP measures one POST /v1/recommend through the full
// handler stack (metrics, tracing, decode, engine, render) with a warm
// cache, so it isolates the daemon's own per-request cost: a single
// singular answer, a single pair-wise answer (the launch workload's
// request), a buffered batch of 16 and a 256-carrier NDJSON stream. The
// request and writer are reused across iterations.
func BenchmarkServeHTTP(b *testing.B) {
	h := benchServer(b)
	batch := func(n int) string {
		items := make([]string, n)
		for i := range items {
			items[i] = fmt.Sprintf(`{"carrier": %d}`, i%40)
		}
		return "[" + strings.Join(items, ",") + "]"
	}
	for _, c := range []struct {
		name, body string
		ndjson     bool
	}{
		{"single", `{"carrier": 5}`, false},
		{"pairwise", `{"carrier": 7, "pairwise": true}`, false},
		{"batch16", batch(16), false},
		{"ndjson256", batch(256), true},
	} {
		b.Run(c.name, func(b *testing.B) {
			body := strings.NewReader(c.body)
			req := httptest.NewRequest("POST", "/v1/recommend", nil)
			req.Body = io.NopCloser(body)
			if c.ndjson {
				req.Header.Set("Accept", "application/x-ndjson")
			}
			w := &discardWriter{header: http.Header{}}
			serve := func() {
				body.Reset(c.body)
				w.status, w.n = http.StatusOK, 0
				h.ServeHTTP(w, req)
				if w.status != http.StatusOK {
					b.Fatalf("status %d", w.status)
				}
			}
			serve() // warm the cache
			b.SetBytes(int64(w.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
}
