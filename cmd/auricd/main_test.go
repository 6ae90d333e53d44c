package main

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"auric"
	"auric/internal/audit"
	"auric/internal/obs"
	"auric/internal/rng"
	"auric/internal/snapshot"
	"auric/internal/trace"
)

func testServer(t *testing.T) *server {
	t.Helper()
	w := auric.SimulateNetwork(auric.NetworkOptions{Seed: 2, Markets: 1, ENodeBsPerMarket: 10})
	engine := auric.NewShardedEngine(w.Schema, auric.EngineOptions{Local: true})
	if _, err := engine.Load(w.Net, w.X2, w.Current); err != nil {
		t.Fatal(err)
	}
	al, err := audit.Open(filepath.Join(t.TempDir(), "audit.jsonl"), audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { al.Close() })
	return &server{
		schema: w.Schema, world: w, engine: engine, newRNG: rng.New(1), audit: al,
		source: func() (*auric.Network, *auric.X2Graph, *auric.Config, error) {
			return w.Net, w.X2, w.Current, nil
		},
	}
}

func TestHandleNetwork(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.handleNetwork(rec, httptest.NewRequest("GET", "/v1/network", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["carriers"].(float64) == 0 {
		t.Error("no carriers reported")
	}
}

func TestHandleCarrier(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.handleCarrier(rec, httptest.NewRequest("GET", "/v1/carriers/3", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var body struct {
		ID         int               `json:"id"`
		Attributes map[string]string `json:"attributes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.ID != 3 || body.Attributes["morphology"] == "" {
		t.Errorf("carrier body = %+v", body)
	}

	rec = httptest.NewRecorder()
	s.handleCarrier(rec, httptest.NewRequest("GET", "/v1/carriers/999999", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown carrier status = %d", rec.Code)
	}
}

func TestHandleRecommendExisting(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/recommend", strings.NewReader(`{"carrier": 5}`))
	s.handleRecommend(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var body struct {
		Recommendations []recommendation `json:"recommendations"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Recommendations) != 39 {
		t.Fatalf("got %d recommendations, want 39 singular", len(body.Recommendations))
	}
	for _, r := range body.Recommendations {
		if r.Param == "" || r.Explanation == "" {
			t.Fatalf("incomplete recommendation %+v", r)
		}
	}
}

func TestHandleRecommendNewCarrier(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/recommend",
		strings.NewReader(`{"enodeb": 4, "frequencyMHz": 1900}`))
	s.handleRecommend(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
}

func TestHandleRecommendBadRequests(t *testing.T) {
	s := testServer(t)
	tests := []struct {
		body string
		want int
	}{
		{`{}`, http.StatusBadRequest},
		{`{"carrier": 999999}`, http.StatusNotFound},
		{`{"enodeb": 999999}`, http.StatusNotFound},
		{`not json`, http.StatusBadRequest},
	}
	for _, tc := range tests {
		rec := httptest.NewRecorder()
		s.handleRecommend(rec, httptest.NewRequest("POST", "/v1/recommend", strings.NewReader(tc.body)))
		if rec.Code != tc.want {
			t.Errorf("body %q: status %d, want %d", tc.body, rec.Code, tc.want)
		}
	}
}

// TestRecommendMistypedIDs pins how the carrier and enodeb fields decode:
// a JSON integer or null (unset), and any other value a 400 carrying
// encoding/json's type error for an int field, in the single and the
// batch form alike.
func TestRecommendMistypedIDs(t *testing.T) {
	s := testServer(t)
	tests := []struct {
		body string
		want int
		msg  string
	}{
		{`{"carrier":"5"}`, http.StatusBadRequest, "cannot unmarshal string into Go struct field recommendRequest.carrier of type int"},
		{`{"carrier":5.5}`, http.StatusBadRequest, "cannot unmarshal number 5.5 into Go struct field recommendRequest.carrier of type int"},
		{`{"carrier":1e2}`, http.StatusBadRequest, "cannot unmarshal number 1e2 into Go struct field recommendRequest.carrier of type int"},
		{`{"carrier":99999999999999999999}`, http.StatusBadRequest, "cannot unmarshal number 99999999999999999999 into Go struct field recommendRequest.carrier of type int"},
		{`{"enodeb":true}`, http.StatusBadRequest, "cannot unmarshal bool into Go struct field recommendRequest.enodeb of type int"},
		{`{"carrier":{}}`, http.StatusBadRequest, "cannot unmarshal object into Go struct field recommendRequest.carrier of type int"},
		{`[{"carrier":5},{"carrier":[1]}]`, http.StatusBadRequest, "cannot unmarshal array into Go struct field recommendRequest.carrier of type int"},
		{`{"carrier":null}`, http.StatusBadRequest, "specify carrier or enodeb"},
		{`{"carrier":null,"enodeb":4}`, http.StatusOK, ""},
		{`{"carrier":-0}`, http.StatusOK, ""},
	}
	for _, tc := range tests {
		rec := httptest.NewRecorder()
		s.handleRecommend(rec, httptest.NewRequest("POST", "/v1/recommend", strings.NewReader(tc.body)))
		if rec.Code != tc.want || !strings.Contains(rec.Body.String(), tc.msg) {
			t.Errorf("body %s: status %d %q, want %d containing %q", tc.body, rec.Code, rec.Body.String(), tc.want, tc.msg)
		}
	}
}

// TestRecommendBodyTooLarge pins the request size limit: a body one byte
// over maxBodyBytes answers a JSON 413 through the full stack, while a
// body of exactly maxBodyBytes is still decoded and served.
func TestRecommendBodyTooLarge(t *testing.T) {
	h, _ := testHandler(t)
	item := `{"carrier": 5}`
	atLimit := item + strings.Repeat(" ", maxBodyBytes-len(item))
	if rec := do(h, "POST", "/v1/recommend", atLimit); rec.Code != http.StatusOK {
		t.Fatalf("body at the limit: status %d: %.200s", rec.Code, rec.Body.String())
	}
	rec := do(h, "POST", "/v1/recommend", atLimit+" ")
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", rec.Code)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Errorf("413 body %q is not a JSON error", rec.Body.String())
	}
}

// testHandler builds the full middleware stack over a fresh registry so
// metric assertions see only this test's traffic.
func testHandler(t *testing.T) (http.Handler, *obs.Registry) {
	t.Helper()
	reg := obs.New()
	return newHandler(testServer(t), handlerOptions{registry: reg}), reg
}

func do(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	var r io.Reader
	if body != "" {
		r = strings.NewReader(body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, r))
	return rec
}

func TestMuxHealthz(t *testing.T) {
	h, _ := testHandler(t)
	rec := do(h, "GET", "/healthz", "")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz: %d %q", rec.Code, rec.Body.String())
	}
}

func TestMuxMethodNotAllowed(t *testing.T) {
	h, _ := testHandler(t)
	tests := []struct{ method, path string }{
		{"GET", "/v1/recommend"},
		{"POST", "/v1/network"},
		{"DELETE", "/healthz"},
		{"POST", "/metrics"},
		{"GET", "/v1/reload"},
		{"POST", "/v1/shards"},
	}
	for _, tc := range tests {
		rec := do(h, tc.method, tc.path, "")
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tc.method, tc.path, rec.Code)
		}
		if rec.Header().Get("Allow") == "" {
			t.Errorf("%s %s: no Allow header", tc.method, tc.path)
		}
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
			t.Errorf("%s %s: body %q is not a JSON error", tc.method, tc.path, rec.Body.String())
		}
	}
}

func TestMuxJSONErrors(t *testing.T) {
	h, _ := testHandler(t)
	tests := []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/recommend", "not json", http.StatusBadRequest},
		{"POST", "/v1/recommend", `{}`, http.StatusBadRequest},
		{"POST", "/v1/recommend", `{"carrier": 999999}`, http.StatusNotFound},
		{"GET", "/v1/carriers/banana", "", http.StatusNotFound},
		{"GET", "/no/such/route", "", http.StatusNotFound},
	}
	for _, tc := range tests {
		rec := do(h, tc.method, tc.path, tc.body)
		if rec.Code != tc.want {
			t.Errorf("%s %s %q: status %d, want %d", tc.method, tc.path, tc.body, rec.Code, tc.want)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: content type %q, want application/json", tc.method, tc.path, ct)
		}
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
			t.Errorf("%s %s: body %q is not a JSON error", tc.method, tc.path, rec.Body.String())
		}
	}
}

// TestMetricsAdvance proves the serving counters move: a recommend call
// advances auric_http_requests_total and the latency histogram, and the
// advance is visible in the /metrics exposition.
func TestMetricsAdvance(t *testing.T) {
	h, reg := testHandler(t)

	before := do(h, "GET", "/metrics", "").Body.String()
	if strings.Contains(before, `auric_http_requests_total{code="2xx",route="/v1/recommend"}`) {
		t.Fatalf("recommend counter present before any recommend call:\n%s", before)
	}

	if rec := do(h, "POST", "/v1/recommend", `{"carrier": 5}`); rec.Code != http.StatusOK {
		t.Fatalf("recommend: %d %s", rec.Code, rec.Body.String())
	}
	after := do(h, "GET", "/metrics", "").Body.String()
	for _, want := range []string{
		`auric_http_requests_total{code="2xx",route="/v1/recommend"} 1`,
		`auric_http_request_seconds_count{route="/v1/recommend"} 1`,
		`auric_http_request_seconds_bucket{route="/v1/recommend",le="+Inf"} 1`,
		`auric_recommendations_total{supported="`,
		"auric_http_in_flight_requests 1", // the /metrics request itself
	} {
		if !strings.Contains(after, want) {
			t.Errorf("exposition missing %q after recommend; got:\n%s", want, after)
		}
	}

	// A 4xx lands in its own status class.
	do(h, "POST", "/v1/recommend", "not json")
	if n := obs.NewHTTPMetrics(reg).Requests.With("4xx", "/v1/recommend").Value(); n != 1 {
		t.Errorf("4xx recommend counter = %d, want 1", n)
	}
}

// TestEngineTimersExported asserts the process-global registry carries
// the pipeline stage timers once an engine has trained — what an
// operator sees when curling a live auricd's /metrics.
func TestEngineTimersExported(t *testing.T) {
	s := testServer(t) // trains an engine, feeding obs.Default()
	h := newHandler(s, handlerOptions{registry: obs.Default()})
	body := do(h, "GET", "/metrics", "").Body.String()
	for _, name := range []string{
		"auric_engine_train_seconds_count",
		"auric_engine_train_param_seconds_count",
		"auric_dataset_label_seconds_count",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	// The engine trained 65 parameter models at least once.
	for _, f := range obs.Default().Gather() {
		if f.Name == "auric_engine_train_param_seconds" && f.Series[0].Count < 65 {
			t.Errorf("train_param count = %d, want >= 65", f.Series[0].Count)
		}
	}
}

// TestServeGracefulShutdown runs the real serving loop on a random port,
// talks to it over TCP, then delivers SIGTERM and expects a clean (nil)
// return — the drain path the smoke target exercises end to end.
func TestServeGracefulShutdown(t *testing.T) {
	h, _ := testHandler(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- serveOn(ln, h) }()

	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz over TCP: %d", resp.StatusCode)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v, want nil after SIGTERM", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down after SIGTERM")
	}
}

func TestSnapshotServedServer(t *testing.T) {
	w := auric.SimulateNetwork(auric.NetworkOptions{Seed: 3, Markets: 1, ENodeBsPerMarket: 8})
	path := filepath.Join(t.TempDir(), "net.json.gz")
	if err := snapshot.Save(path, w.Net, w.Current); err != nil {
		t.Fatal(err)
	}
	net, cfg, err := snapshot.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	x2 := auric.BuildX2(net)
	engine := auric.NewShardedEngine(cfg.Schema(), auric.EngineOptions{Local: true})
	if _, err := engine.Load(net, x2, cfg); err != nil {
		t.Fatal(err)
	}
	s := &server{schema: cfg.Schema(), engine: engine, newRNG: rng.New(1)}

	// New-carrier recommendation without a generator world: donor copy.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/recommend", strings.NewReader(`{"enodeb": 2, "frequencyMHz": 2100}`))
	s.handleRecommend(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestRecommendTracedEndToEnd is the acceptance path of the tracing
// layer: one POST /v1/recommend must yield (a) a traceparent response
// header, (b) a span tree at /debug/traces whose recommend.param spans
// carry relaxation levels and candidate counts, and (c) an audit JSONL
// record sharing the same trace id.
func TestRecommendTracedEndToEnd(t *testing.T) {
	s := testServer(t)
	auditPath := filepath.Join(t.TempDir(), "audit.jsonl")
	al, err := audit.Open(auditPath, audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.audit = al
	h := newHandler(s, handlerOptions{
		registry: obs.New(),
		tracer:   trace.New(trace.Options{SampleRate: 1}),
	})

	rec := do(h, "POST", "/v1/recommend", `{"carrier": 5}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	tp := rec.Header().Get("traceparent")
	traceID, _, sampled, ok := trace.ParseTraceParent(tp)
	if !ok || !sampled {
		t.Fatalf("response traceparent %q invalid or unsampled", tp)
	}
	var resp struct {
		TraceID         string           `json:"traceId"`
		Recommendations []recommendation `json:"recommendations"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != traceID.String() {
		t.Errorf("body traceId %q != header trace id %q", resp.TraceID, traceID)
	}
	for _, r := range resp.Recommendations {
		if r.Candidates <= 0 {
			t.Errorf("%s: response lacks candidate count", r.Param)
		}
	}

	// (b) The span tree is served at /debug/traces.
	dbg := do(h, "GET", "/debug/traces", "")
	if dbg.Code != http.StatusOK {
		t.Fatalf("/debug/traces status %d", dbg.Code)
	}
	var traces struct {
		Traces []struct {
			TraceID string `json:"traceId"`
			Spans   []struct {
				Name  string         `json:"name"`
				Attrs map[string]any `json:"attrs"`
			} `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(dbg.Body.Bytes(), &traces); err != nil {
		t.Fatal(err)
	}
	var tree *struct {
		TraceID string `json:"traceId"`
		Spans   []struct {
			Name  string         `json:"name"`
			Attrs map[string]any `json:"attrs"`
		} `json:"spans"`
	}
	for i := range traces.Traces {
		if traces.Traces[i].TraceID == traceID.String() {
			tree = &traces.Traces[i]
		}
	}
	if tree == nil {
		t.Fatalf("trace %s not at /debug/traces", traceID)
	}
	var paramSpans, annotated int
	for _, sp := range tree.Spans {
		if sp.Name != "recommend.param" {
			continue
		}
		paramSpans++
		_, hasLevel := sp.Attrs["relaxation_level"]
		_, hasCands := sp.Attrs["candidates"]
		if hasLevel && hasCands {
			annotated++
		}
	}
	if paramSpans != len(resp.Recommendations) {
		t.Errorf("recommend.param spans = %d, want %d", paramSpans, len(resp.Recommendations))
	}
	if annotated != paramSpans {
		t.Errorf("only %d of %d param spans carry evidence annotations", annotated, paramSpans)
	}

	// (c) The audit log holds one record per value, same trace id.
	if err := al.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(auditPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != len(resp.Recommendations) {
		t.Fatalf("audit log has %d records, want %d", len(lines), len(resp.Recommendations))
	}
	for _, line := range lines {
		var r audit.Record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("invalid audit JSONL %q: %v", line, err)
		}
		if r.TraceID != traceID.String() {
			t.Errorf("audit record trace id %q != request trace id %q", r.TraceID, traceID)
		}
		if r.Param == "" || r.Candidates <= 0 || len(r.Dependents) == 0 {
			t.Errorf("audit record missing evidence: %+v", r)
		}
	}
}

// TestRuntimeMetricsServed asserts the Go runtime health metrics land in
// the same scrape as the serving metrics (the wiring main() performs).
func TestRuntimeMetricsServed(t *testing.T) {
	reg := obs.New()
	obs.RegisterRuntimeMetrics(reg)
	h := newHandler(testServer(t), handlerOptions{registry: reg})
	body := do(h, "GET", "/metrics", "").Body.String()
	for _, name := range []string{
		"auric_go_goroutines",
		"auric_go_heap_bytes",
		"auric_go_gc_pause_seconds_count",
		"auric_build_info{",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
}

// TestDebugTracesMethodNotAllowed pins the 405 discipline on the new
// endpoint.
func TestDebugTracesMethodNotAllowed(t *testing.T) {
	h, _ := testHandler(t)
	if rec := do(h, "POST", "/debug/traces", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /debug/traces status = %d, want 405", rec.Code)
	}
}

// TestHandleRecommendBatch pins the batch form of POST /v1/recommend: a
// mixed batch of valid and invalid items answers 200 with one entry per
// item in request order — per-item errors, not a whole-request failure —
// and each valid entry matches the single-object form for the same
// carrier.
func TestHandleRecommendBatch(t *testing.T) {
	s := testServer(t)
	body := `[
		{"carrier": 5},
		{"carrier": 999999},
		{"enodeb": 4, "frequencyMHz": 1900},
		{},
		{"carrier": 7, "pairwise": true}
	]`
	rec := httptest.NewRecorder()
	s.handleRecommend(rec, httptest.NewRequest("POST", "/v1/recommend", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Results []struct {
			Carrier         int              `json:"carrier"`
			Error           string           `json:"error"`
			Recommendations []recommendation `json:"recommendations"`
		} `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 5 {
		t.Fatalf("got %d results, want 5", len(resp.Results))
	}
	for _, i := range []int{0, 2, 4} {
		r := resp.Results[i]
		if r.Error != "" || len(r.Recommendations) == 0 {
			t.Errorf("item %d: error=%q recs=%d, want recommendations", i, r.Error, len(r.Recommendations))
		}
	}
	if r := resp.Results[1]; r.Error != "unknown carrier" || r.Recommendations != nil {
		t.Errorf("item 1 = %+v, want per-item unknown-carrier error", r)
	}
	if r := resp.Results[3]; r.Error != "specify carrier or enodeb" {
		t.Errorf("item 3 error = %q", r.Error)
	}
	// Pairwise items include neighbor recommendations.
	sawNeighbor := false
	for _, r := range resp.Results[4].Recommendations {
		if r.Neighbor != 0 {
			sawNeighbor = true
		}
	}
	if !sawNeighbor {
		t.Error("pairwise batch item has no neighbor recommendations")
	}

	// The batch entry for carrier 5 equals the single-object response.
	single := httptest.NewRecorder()
	s.handleRecommend(single, httptest.NewRequest("POST", "/v1/recommend", strings.NewReader(`{"carrier": 5}`)))
	var sresp struct {
		Recommendations []recommendation `json:"recommendations"`
	}
	if err := json.Unmarshal(single.Body.Bytes(), &sresp); err != nil {
		t.Fatal(err)
	}
	if len(sresp.Recommendations) != len(resp.Results[0].Recommendations) {
		t.Fatalf("batch item has %d recommendations, single call %d",
			len(resp.Results[0].Recommendations), len(sresp.Recommendations))
	}
	for i := range sresp.Recommendations {
		if sresp.Recommendations[i] != resp.Results[0].Recommendations[i] {
			t.Errorf("recommendation %d differs: batch %+v vs single %+v",
				i, resp.Results[0].Recommendations[i], sresp.Recommendations[i])
		}
	}
}

// TestHandleRecommendBatchDegenerate pins the malformed-batch responses.
func TestHandleRecommendBatchDegenerate(t *testing.T) {
	s := testServer(t)
	for _, tc := range []struct {
		body string
		want int
	}{
		{`[]`, http.StatusBadRequest},
		{`[not json]`, http.StatusBadRequest},
		{`  [{"carrier": 5}]`, http.StatusOK}, // leading whitespace still batch
	} {
		rec := httptest.NewRecorder()
		s.handleRecommend(rec, httptest.NewRequest("POST", "/v1/recommend", strings.NewReader(tc.body)))
		if rec.Code != tc.want {
			t.Errorf("body %q: status %d, want %d", tc.body, rec.Code, tc.want)
		}
	}
}

// TestBatchSizeMetric asserts the batch-size histogram advances for both
// request forms through the full handler stack.
func TestBatchSizeMetric(t *testing.T) {
	h, _ := testHandler(t)
	if rec := do(h, "POST", "/v1/recommend", `{"carrier": 5}`); rec.Code != http.StatusOK {
		t.Fatalf("single: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do(h, "POST", "/v1/recommend", `[{"carrier": 1}, {"carrier": 2}, {"carrier": 3}]`); rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body.String())
	}
	body := do(h, "GET", "/metrics", "").Body.String()
	for _, want := range []string{
		`auric_recommend_batch_size_count 2`,
		`auric_recommend_batch_size_sum 4`,
		`auric_recommend_batch_size_bucket{le="1"} 1`,
		`auric_recommend_batch_size_bucket{le="4"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// flushRecorder wraps a ResponseRecorder and records the body length at
// every Flush call — the observable proof that NDJSON lines leave the
// handler one at a time instead of with the final buffer.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushes []int
}

func (f *flushRecorder) Flush() { f.flushes = append(f.flushes, f.Body.Len()) }

// TestHandleRecommendNDJSON pins the streaming batch contract: with
// "Accept: application/x-ndjson" the same batch answers as one compact
// JSON object per line, byte-identical to the buffered form's entries,
// flushed line by line in request order — and per-item failures ride
// inline as {"error": ...} lines without terminating the stream. It also
// pins the answers across all three request forms: sending each item as a
// single object, the items as a buffered array, and the items as NDJSON
// must write the same audit records per carrier and advance
// auric_recommendations_total{supported} by the same amounts.
func TestHandleRecommendNDJSON(t *testing.T) {
	s := testServer(t)
	s.recommendations = obs.New().CounterVec("auric_recommendations_total", "test", "supported")
	auditPath := filepath.Join(t.TempDir(), "audit.jsonl")
	al, err := audit.Open(auditPath, audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { al.Close() })
	s.audit = al
	// Deterministic items only (no new-carrier synthesis, whose RNG draw
	// would differ between the requests), with failures mid-stream.
	items := []string{
		`{"carrier": 5}`,
		`{"carrier": 999999}`,
		`{"carrier": 3}`,
		`{}`,
		`{"carrier": 7, "pairwise": true}`,
	}
	body := "[" + strings.Join(items, ",\n") + "]"

	// Each form's audit records, grouped by carrier with the per-request
	// fields (time, trace id) cleared, and its counter advance.
	auditRead := 0
	served := func() (map[int][]audit.Record, [2]uint64) {
		t.Helper()
		data, err := os.ReadFile(auditPath)
		if err != nil {
			t.Fatal(err)
		}
		byCarrier := map[int][]audit.Record{}
		for _, line := range strings.Split(strings.TrimSpace(string(data[auditRead:])), "\n") {
			if line == "" {
				continue
			}
			var r audit.Record
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("invalid audit line %q: %v", line, err)
			}
			r.Time, r.TraceID = time.Time{}, ""
			byCarrier[r.Carrier] = append(byCarrier[r.Carrier], r)
		}
		auditRead = len(data)
		return byCarrier, [2]uint64{
			s.recommendations.With("true").Value(),
			s.recommendations.With("false").Value(),
		}
	}
	_, before := served()
	for _, it := range items {
		s.handleRecommend(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/recommend", strings.NewReader(it)))
	}
	singleAudit, afterSingle := served()

	buffered := httptest.NewRecorder()
	s.handleRecommend(buffered, httptest.NewRequest("POST", "/v1/recommend", strings.NewReader(body)))
	if buffered.Code != http.StatusOK {
		t.Fatalf("buffered status %d: %s", buffered.Code, buffered.Body.String())
	}
	var ref struct {
		Results []batchEntry `json:"results"`
	}
	if err := json.Unmarshal(buffered.Body.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}
	bufferedAudit, afterBuffered := served()

	req := httptest.NewRequest("POST", "/v1/recommend", strings.NewReader(body))
	req.Header.Set("Accept", "application/x-ndjson")
	fr := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	s.handleRecommend(fr, req)
	if fr.Code != http.StatusOK {
		t.Fatalf("stream status %d: %s", fr.Code, fr.Body.String())
	}
	streamAudit, afterStream := served()

	// The three forms serve the same answers.
	if len(singleAudit) != 3 {
		t.Fatalf("single-object requests audited %d carriers, want 3", len(singleAudit))
	}
	for form, got := range map[string]map[int][]audit.Record{"buffered": bufferedAudit, "ndjson": streamAudit} {
		if !reflect.DeepEqual(got, singleAudit) {
			t.Errorf("%s audit records differ from the single-object form's", form)
		}
	}
	delta := func(a, b [2]uint64) [2]uint64 { return [2]uint64{b[0] - a[0], b[1] - a[1]} }
	single := delta(before, afterSingle)
	if single[0]+single[1] == 0 {
		t.Fatal("single-object requests did not advance auric_recommendations_total")
	}
	if d := delta(afterSingle, afterBuffered); d != single {
		t.Errorf("buffered form advanced auric_recommendations_total{supported=true,false} by %v, single objects by %v", d, single)
	}
	if d := delta(afterBuffered, afterStream); d != single {
		t.Errorf("ndjson form advanced auric_recommendations_total{supported=true,false} by %v, single objects by %v", d, single)
	}
	if ct := fr.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q, want application/x-ndjson", ct)
	}

	raw := fr.Body.String()
	if !strings.HasSuffix(raw, "\n") {
		t.Fatal("stream does not end with a newline")
	}
	lines := strings.Split(strings.TrimSuffix(raw, "\n"), "\n")
	if len(lines) != len(ref.Results) {
		t.Fatalf("stream has %d lines, buffered response %d entries", len(lines), len(ref.Results))
	}

	// Byte identity: every line is the compact encoding of the buffered
	// form's entry at the same position.
	for i, line := range lines {
		want, err := json.Marshal(&ref.Results[i])
		if err != nil {
			t.Fatal(err)
		}
		if line != string(want) {
			t.Errorf("line %d = %s\nwant   %s", i, line, want)
		}
	}

	// Mid-stream failures stayed inline and did not kill their siblings.
	var streamed []batchEntry
	for _, line := range lines {
		var e batchEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %q is not JSON: %v", line, err)
		}
		streamed = append(streamed, e)
	}
	for _, i := range []int{0, 2, 4} {
		if streamed[i].Error != "" || len(streamed[i].Recommendations) == 0 {
			t.Errorf("item %d: error=%q recs=%d, want recommendations", i, streamed[i].Error, len(streamed[i].Recommendations))
		}
	}
	if streamed[1].Error != "unknown carrier" {
		t.Errorf("item 1 error = %q, want unknown carrier", streamed[1].Error)
	}
	if streamed[3].Error != "specify carrier or enodeb" {
		t.Errorf("item 3 error = %q", streamed[3].Error)
	}

	// Flush discipline: one flush per line, each flush boundary a full
	// line, and the first line flushed long before the body completed.
	if len(fr.flushes) != len(lines) {
		t.Fatalf("%d flushes for %d lines, want one flush per line", len(fr.flushes), len(lines))
	}
	for i, off := range fr.flushes {
		if off == 0 || raw[off-1] != '\n' {
			t.Errorf("flush %d at offset %d does not end on a line boundary", i, off)
		}
		if i > 0 && off <= fr.flushes[i-1] {
			t.Errorf("flush %d offset %d did not advance past %d", i, off, fr.flushes[i-1])
		}
	}
	if fr.flushes[0] >= len(raw) {
		t.Error("first line was not flushed before the stream completed")
	}
}

// TestMuxNDJSONThroughStack runs the streaming form through the full
// middleware stack (metrics, tracing): the Flusher must survive the
// response-writer wrappers so lines reach the transport incrementally.
func TestMuxNDJSONThroughStack(t *testing.T) {
	h, _ := testHandler(t)
	req := httptest.NewRequest("POST", "/v1/recommend", strings.NewReader(`[{"carrier": 1}, {"carrier": 2}]`))
	req.Header.Set("Accept", "application/x-ndjson")
	fr := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	h.ServeHTTP(fr, req)
	if fr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", fr.Code, fr.Body.String())
	}
	if lines := strings.Count(fr.Body.String(), "\n"); lines != 2 {
		t.Fatalf("stream has %d lines, want 2", lines)
	}
	if len(fr.flushes) != 2 {
		t.Errorf("%d flushes reached the recorder through the middleware stack, want 2", len(fr.flushes))
	}
}

// TestHandleReloadAndShards drives the zero-downtime reload endpoint and
// the shard-layout view: POST /v1/reload advances the generation, GET
// /v1/shards reports the new generation with every carrier accounted to a
// market shard, and serving keeps answering afterwards.
func TestHandleReloadAndShards(t *testing.T) {
	h, _ := testHandler(t)

	rec := do(h, "POST", "/v1/reload", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("reload status %d: %s", rec.Code, rec.Body.String())
	}
	var reload struct {
		Generation int64   `json:"generation"`
		Carriers   int     `json:"carriers"`
		Seconds    float64 `json:"seconds"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &reload); err != nil {
		t.Fatal(err)
	}
	if reload.Generation != 2 {
		t.Errorf("generation after one reload = %d, want 2", reload.Generation)
	}
	if reload.Carriers == 0 || reload.Seconds <= 0 {
		t.Errorf("reload response %+v lacks carriers/seconds", reload)
	}

	rec = do(h, "GET", "/v1/shards", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("shards status %d: %s", rec.Code, rec.Body.String())
	}
	var shards struct {
		Generation int64 `json:"generation"`
		Shards     []struct {
			Market   int    `json:"market"`
			Name     string `json:"name"`
			Carriers int    `json:"carriers"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &shards); err != nil {
		t.Fatal(err)
	}
	if shards.Generation != reload.Generation {
		t.Errorf("shards generation %d != reload generation %d", shards.Generation, reload.Generation)
	}
	sum := 0
	for _, sh := range shards.Shards {
		if sh.Name == "" {
			t.Errorf("shard %d has no market name", sh.Market)
		}
		sum += sh.Carriers
	}
	if sum != reload.Carriers {
		t.Errorf("shard carriers sum to %d, want %d", sum, reload.Carriers)
	}

	if rec := do(h, "POST", "/v1/recommend", `{"carrier": 5}`); rec.Code != http.StatusOK {
		t.Fatalf("recommend after reload: %d %s", rec.Code, rec.Body.String())
	}
}

// TestHandleReloadFailure pins the failure contract: a snapshot source
// error answers 500 and leaves the serving generation untouched.
func TestHandleReloadFailure(t *testing.T) {
	s := testServer(t)
	gen := s.engine.Generation()
	s.source = func() (*auric.Network, *auric.X2Graph, *auric.Config, error) {
		return nil, nil, nil, errors.New("snapshot store unreachable")
	}
	rec := httptest.NewRecorder()
	s.handleReload(rec, httptest.NewRequest("POST", "/v1/reload", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("reload status %d, want 500", rec.Code)
	}
	if g := s.engine.Generation(); g != gen {
		t.Errorf("failed reload moved the generation from %d to %d", gen, g)
	}
	if r := httptest.NewRecorder(); true {
		s.handleRecommend(r, httptest.NewRequest("POST", "/v1/recommend", strings.NewReader(`{"carrier": 5}`)))
		if r.Code != http.StatusOK {
			t.Errorf("serving broken after failed reload: %d %s", r.Code, r.Body.String())
		}
	}
}

// Concurrent new-carrier requests share the server's synthesis RNG; the
// tight loop exists so `go test -race` gates the lock around it (the
// full HTTP path spends too little time in the draw to interleave).
func TestConcurrentNewCarrierRecommends(t *testing.T) {
	s := testServer(t)
	network, _, _, err := s.engine.Inventory()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if c := s.newCarrierAt(network, 2); c == nil {
					t.Error("newCarrierAt returned nil")
					return
				}
			}
		}()
	}
	wg.Wait()
	rec := httptest.NewRecorder()
	s.handleRecommend(rec, httptest.NewRequest("POST", "/v1/recommend",
		strings.NewReader(`[{"enodeb": 2}, {"enodeb": 5}]`)))
	if rec.Code != http.StatusOK {
		t.Errorf("status %d: %s", rec.Code, rec.Body.String())
	}
}
