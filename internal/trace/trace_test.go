package trace

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseTraceParent(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	tests := []struct {
		name    string
		in      string
		ok      bool
		sampled bool
	}{
		{"valid sampled", valid, true, true},
		{"valid unsampled", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00", true, false},
		{"flag with extra bits", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-03", true, true},
		{"empty", "", false, false},
		{"too short", valid[:54], false, false},
		{"version 00 with trailer", valid + "-extra", false, false},
		{"future version with trailer", "cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-xyz", true, true},
		{"future version bad trailer", "cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01xyz", false, false},
		{"version ff", "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", false, false},
		{"uppercase hex", "00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01", false, false},
		{"non-hex trace id", "00-0az7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", false, false},
		{"all-zero trace id", "00-00000000000000000000000000000000-b7ad6b7169203331-01", false, false},
		{"all-zero parent id", "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", false, false},
		{"wrong separators", "00_0af7651916cd43dd8448eb211c80319c_b7ad6b7169203331_01", false, false},
		{"bad flags", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-0x", false, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			traceID, parentID, sampled, ok := ParseTraceParent(tc.in)
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v", ok, tc.ok)
			}
			if !ok {
				return
			}
			if sampled != tc.sampled {
				t.Errorf("sampled = %v, want %v", sampled, tc.sampled)
			}
			if traceID.String() != "0af7651916cd43dd8448eb211c80319c" {
				t.Errorf("trace id = %s", traceID)
			}
			if parentID.String() != "b7ad6b7169203331" {
				t.Errorf("parent id = %s", parentID)
			}
		})
	}
}

func TestTraceParentRoundTrip(t *testing.T) {
	tr := New(Options{SampleRate: 1})
	_, sp := tr.StartRoot(context.Background(), "root")
	h := sp.TraceParent()
	traceID, spanID, sampled, ok := ParseTraceParent(h)
	if !ok || !sampled {
		t.Fatalf("own header %q did not parse as sampled", h)
	}
	if traceID != sp.TraceID() {
		t.Errorf("trace id round trip: %s != %s", traceID, sp.TraceID())
	}
	if spanID.IsZero() {
		t.Error("zero span id in header")
	}
}

// TestRequestPropagation pins the sampling contract of StartRequest: an
// incoming sampled flag forces recording at rate 0; an incoming unsampled
// flag leaves the decision to the coin; the caller's trace id is adopted
// either way.
func TestRequestPropagation(t *testing.T) {
	tr := New(Options{}) // rate 0: only the flag can sample
	in := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	ctx, sp := tr.StartRequest(context.Background(), "req", in)
	if !sp.Sampled() {
		t.Fatal("incoming sampled flag ignored")
	}
	if got := sp.TraceID().String(); got != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("caller trace id not adopted: %s", got)
	}
	if !strings.HasSuffix(sp.TraceParent(), "-01") {
		t.Errorf("response header not sampled: %s", sp.TraceParent())
	}
	if FromContext(ctx) != sp {
		t.Error("root span not in context")
	}
	sp.Finish()
	if got := tr.Traces(); len(got) != 1 || got[0].TraceID != sp.TraceID() {
		t.Fatalf("sampled trace not committed: %v", got)
	}

	// Unsampled flag at rate 0: nothing recorded, id still adopted.
	un := "00-1af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00"
	_, sp2 := tr.StartRequest(context.Background(), "req", un)
	if sp2.Sampled() {
		t.Fatal("unsampled flag sampled at rate 0")
	}
	if !strings.HasSuffix(sp2.TraceParent(), "-00") {
		t.Errorf("header flags: %s", sp2.TraceParent())
	}
	sp2.Finish()
	if got := tr.Traces(); len(got) != 1 {
		t.Fatalf("unsampled trace committed: %d traces", len(got))
	}

	// Malformed header: fresh trace id.
	_, sp3 := tr.StartRequest(context.Background(), "req", "garbage")
	if sp3.TraceID().IsZero() {
		t.Error("no fresh trace id for malformed header")
	}
}

func TestSpanTreeStructure(t *testing.T) {
	tr := New(Options{SampleRate: 1})
	ctx, root := tr.StartRoot(context.Background(), "root")
	root.SetStr("kind", "test")

	// Concurrent children, as in the recommend fan-out.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cctx, sp := Start(ctx, "child")
			sp.SetInt("i", int64(i))
			_, g := Start(cctx, "grandchild")
			g.Finish()
			sp.Finish()
		}(i)
	}
	wg.Wait()
	root.Finish()

	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	got := traces[0]
	if got.Root != "root" || got.TraceID != root.TraceID() {
		t.Fatalf("trace header: %+v", got)
	}
	if len(got.Spans) != 17 { // 1 root + 8 children + 8 grandchildren
		t.Fatalf("got %d spans, want 17", len(got.Spans))
	}
	var rootID SpanID
	byName := map[string]int{}
	for _, sp := range got.Spans {
		byName[sp.Name]++
		if sp.Name == "root" {
			rootID = sp.ID
			if !sp.Parent.IsZero() {
				t.Error("root has a parent")
			}
		}
	}
	if byName["child"] != 8 || byName["grandchild"] != 8 {
		t.Fatalf("span census: %v", byName)
	}
	for _, sp := range got.Spans {
		if sp.Name == "child" && sp.Parent != rootID {
			t.Errorf("child parent = %s, want root %s", sp.Parent, rootID)
		}
	}

	tree := FormatTree(got)
	for _, want := range []string{"trace " + got.TraceID.String(), "└─", "child", "grandchild", "kind=test"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
}

// TestRingWraparound hammers the ring from concurrent writers well past
// its capacity (run under -race by make check) and requires a coherent
// snapshot: at most capacity traces, all non-nil, newest first.
func TestRingWraparound(t *testing.T) {
	const capacity, writers, perWriter = 8, 16, 50
	tr := New(Options{SampleRate: 1, Capacity: capacity})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				_, sp := tr.StartRoot(context.Background(), "r")
				sp.Finish()
				if i%10 == 0 {
					tr.Traces() // concurrent reads during wraparound
				}
			}
		}()
	}
	wg.Wait()
	got := tr.Traces()
	if len(got) != capacity {
		t.Fatalf("snapshot has %d traces, want %d after %d commits", len(got), capacity, writers*perWriter)
	}
	for i, g := range got {
		if g == nil || g.TraceID.IsZero() || len(g.Spans) != 1 {
			t.Fatalf("slot %d incoherent: %+v", i, g)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i].Start.After(got[i-1].Start.Add(time.Second)) {
			t.Errorf("snapshot not roughly newest-first at %d", i)
		}
	}
}

// TestSlowCapture pins the always-on-slow half of the policy: at sample
// rate 0, a root that outlives the threshold is committed to the slow
// ring (root span only), and fast unsampled roots vanish.
func TestSlowCapture(t *testing.T) {
	tr := New(Options{SlowThreshold: time.Microsecond})
	ctx, sp := tr.StartRoot(context.Background(), "slow-root")
	if _, child := Start(ctx, "child"); child != nil {
		t.Fatal("unsampled trace allocated a child span")
	}
	time.Sleep(2 * time.Millisecond)
	sp.Finish()

	if got := tr.Traces(); len(got) != 0 {
		t.Fatalf("unsampled slow trace in the recent ring: %d", len(got))
	}
	slow := tr.SlowTraces()
	if len(slow) != 1 {
		t.Fatalf("slow ring has %d traces, want 1", len(slow))
	}
	got := slow[0]
	if !got.ForcedSlow || got.Sampled {
		t.Errorf("slow trace flags: %+v", got)
	}
	if len(got.Spans) != 1 || got.Spans[0].Name != "slow-root" {
		t.Errorf("slow trace should carry the root span only: %+v", got.Spans)
	}

	// A sampled slow trace lands in both rings.
	tr2 := New(Options{SampleRate: 1, SlowThreshold: time.Microsecond})
	_, sp2 := tr2.StartRoot(context.Background(), "r")
	time.Sleep(time.Millisecond)
	sp2.Finish()
	if len(tr2.Traces()) != 1 || len(tr2.SlowTraces()) != 1 {
		t.Errorf("sampled slow trace rings: recent=%d slow=%d", len(tr2.Traces()), len(tr2.SlowTraces()))
	}
	if tr2.SlowTraces()[0].ForcedSlow {
		t.Error("sampled slow trace marked forced")
	}
}

func TestUnsampledZeroAlloc(t *testing.T) {
	tr := New(Options{})
	ctx, root := tr.StartRoot(context.Background(), "root")
	defer root.Finish()
	allocs := testing.AllocsPerRun(1000, func() {
		sctx, sp := Start(ctx, "child")
		sp.SetStr("k", "v")
		sp.SetInt("n", 1)
		sp.Finish()
		_ = sctx
	})
	if allocs != 0 {
		t.Fatalf("unsampled span path allocates %.1f/op, want 0", allocs)
	}
}

// TestMiddlewareHonorsLowercaseHeader sends traceparent under its
// lowercase wire name over a real connection: the server canonicalizes the
// name, and the middleware, which reads the canonical key, must continue
// the caller's sampled trace under the caller's trace id.
func TestMiddlewareHonorsLowercaseHeader(t *testing.T) {
	const incoming = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	want, _, _, _ := ParseTraceParent(incoming)
	tr := New(Options{}) // samples only on the incoming flag
	srv := httptest.NewServer(tr.Middleware("/v1/thing", http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.WriteHeader(http.StatusNoContent)
	})))
	defer srv.Close()

	req, err := http.NewRequest("GET", srv.URL+"/v1/thing", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header["traceparent"] = []string{incoming} // sent as written, not canonicalized
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got, _, sampled, ok := ParseTraceParent(resp.Header.Get("traceparent"))
	if !ok || !sampled || got != want {
		t.Fatalf("response traceparent %q: trace %v sampled=%v, want trace %v sampled", resp.Header.Get("traceparent"), got, sampled, want)
	}
	if traces := tr.Traces(); len(traces) != 1 || traces[0].TraceID != want {
		t.Fatalf("recorded traces %d, want the one continued trace %v", len(traces), want)
	}
}

func TestMiddlewareAndTracesHandler(t *testing.T) {
	tr := New(Options{SampleRate: 1})
	inner := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		_, sp := Start(r.Context(), "work")
		sp.SetInt("items", 3)
		sp.Finish()
		rw.WriteHeader(http.StatusOK)
	})
	h := tr.Middleware("/v1/thing", inner)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/thing/42", nil))
	tp := rec.Header().Get("traceparent")
	traceID, _, sampled, ok := ParseTraceParent(tp)
	if !ok || !sampled {
		t.Fatalf("response traceparent %q invalid or unsampled", tp)
	}

	drec := httptest.NewRecorder()
	tr.TracesHandler().ServeHTTP(drec, httptest.NewRequest("GET", "/debug/traces", nil))
	var body struct {
		SampleRate float64 `json:"sampleRate"`
		Traces     []struct {
			TraceID string `json:"traceId"`
			Root    string `json:"root"`
			Spans   []struct {
				Name     string         `json:"name"`
				ParentID string         `json:"parentId"`
				Attrs    map[string]any `json:"attrs"`
			} `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(drec.Body.Bytes(), &body); err != nil {
		t.Fatalf("debug/traces not JSON: %v\n%s", err, drec.Body.String())
	}
	if body.SampleRate != 1 || len(body.Traces) != 1 {
		t.Fatalf("debug payload: rate=%v traces=%d", body.SampleRate, len(body.Traces))
	}
	got := body.Traces[0]
	if got.TraceID != traceID.String() || got.Root != "http /v1/thing" {
		t.Fatalf("trace identity: %+v", got)
	}
	var seenWork bool
	for _, sp := range got.Spans {
		if sp.Name == "work" {
			seenWork = true
			if sp.Attrs["items"].(float64) != 3 {
				t.Errorf("work attrs = %v", sp.Attrs)
			}
			if sp.ParentID == "" {
				t.Error("work span lost its parent")
			}
		}
	}
	if !seenWork {
		t.Fatalf("work span missing from %+v", got.Spans)
	}
}

// TestRecordChildrenMatchesStart pins RecordChildren to the span-by-span
// path: the same children recorded either way carry the same names,
// parent, timing and attributes in order, and the recorded attributes do
// not alias the caller's reused slice. An unsampled trace records nothing.
func TestRecordChildrenMatchesStart(t *testing.T) {
	tr := New(Options{SampleRate: 1})
	start := time.Unix(1700000000, 0)
	want := []SpanData{
		{Name: "job", Start: start, Duration: 3 * time.Millisecond, Attrs: []Attr{
			Str("param", "sFreqPrio"), Int("neighbor", -1), Float("vote_share", 0.75), Bool("supported", true)}},
		{Name: "job", Start: start.Add(time.Second), Duration: time.Millisecond, Attrs: []Attr{
			Str("param", "qRxLevMin"), Str("error", "boom")}},
		{Name: "job", Start: start.Add(2 * time.Second)},
	}
	ctx, root := tr.StartRoot(context.Background(), "root")
	_, parent := Start(ctx, "parent")
	var children []Child
	var attrs []Attr
	for _, w := range want {
		children = append(children, Child{Start: w.Start, Duration: w.Duration, NumAttrs: len(w.Attrs)})
		attrs = append(attrs, w.Attrs...)
	}
	parent.RecordChildren("job", children, attrs)
	clear(attrs)
	parent.Finish()
	root.Finish()

	got := tr.Traces()[0].Spans
	if len(got) != len(want)+2 {
		t.Fatalf("recorded %d spans, want %d", len(got), len(want)+2)
	}
	parentID := got[len(want)].ID
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name || g.Parent != parentID || !g.Start.Equal(w.Start) || g.Duration != w.Duration || g.ID.IsZero() {
			t.Errorf("span %d = %+v, want %+v under %s", i, g, w, parentID)
		}
		if len(g.Attrs) != len(w.Attrs) {
			t.Fatalf("span %d attrs = %v, want %v", i, g.Attrs, w.Attrs)
		}
		for k := range w.Attrs {
			if g.Attrs[k] != w.Attrs[k] {
				t.Errorf("span %d attr %d = %+v, want %+v", i, k, g.Attrs[k], w.Attrs[k])
			}
		}
	}

	// The setter path yields the same attribute values.
	ctx, root = tr.StartRoot(context.Background(), "root")
	_, sp := Start(ctx, "job")
	sp.SetStr("param", "sFreqPrio")
	sp.SetInt("neighbor", -1)
	sp.SetFloat("vote_share", 0.75)
	sp.SetBool("supported", true)
	sp.Finish()
	root.Finish()
	for k, a := range tr.Traces()[0].Spans[0].Attrs {
		if a != want[0].Attrs[k] || a.Value() != want[0].Attrs[k].Value() {
			t.Errorf("setter attr %d = %+v, want %+v", k, a, want[0].Attrs[k])
		}
	}

	un := New(Options{})
	_, uroot := un.StartRoot(context.Background(), "root")
	uroot.RecordChildren("job", children, attrs)
	var nilSpan *Span
	nilSpan.RecordChildren("job", children, attrs)
	uroot.Finish()
	if n := len(un.Traces()); n != 0 {
		t.Errorf("unsampled trace committed %d traces", n)
	}
}

// TestReserveGrowsOnce pins Span.Reserve: after reserving room for a
// batch's spans, recording them never regrows the trace's span list, and
// Reserve is a no-op on nil and unsampled spans.
func TestReserveGrowsOnce(t *testing.T) {
	tr := New(Options{SampleRate: 1})
	_, root := tr.StartRoot(context.Background(), "batch")
	const items, jobs = 4, 10
	root.Reserve(items * (jobs + 1))
	c := cap(root.st.spans)
	if c < items*(jobs+1) {
		t.Fatalf("Reserve(%d) left capacity %d", items*(jobs+1), c)
	}
	ctx := context.WithValue(context.Background(), ctxKey{}, root)
	for i := 0; i < items; i++ {
		_, sp := Start(ctx, "item")
		sp.RecordChildren("job", make([]Child, jobs), nil)
		sp.Finish()
	}
	if got := len(root.st.spans); got != items*(jobs+1) {
		t.Fatalf("recorded %d spans, want %d", got, items*(jobs+1))
	}
	if cap(root.st.spans) != c {
		t.Errorf("span list regrew from %d to %d after Reserve", c, cap(root.st.spans))
	}

	var nilSpan *Span
	nilSpan.Reserve(8)
	unsampled := New(Options{SampleRate: 0})
	_, u := unsampled.StartRoot(context.Background(), "u")
	u.Reserve(8)
	if u.st.spans != nil {
		t.Error("Reserve grew an unsampled trace's span list")
	}
}
