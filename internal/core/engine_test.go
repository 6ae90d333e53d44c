package core

import (
	"context"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"auric/internal/lte"
	"auric/internal/netsim"
	"auric/internal/obs"
	"auric/internal/trace"
)

func trainedEngine(t *testing.T, opts Options) (*Engine, *netsim.World) {
	t.Helper()
	w := netsim.Generate(netsim.Options{Seed: 13, Markets: 2, ENodeBsPerMarket: 16})
	e := New(w.Schema, opts)
	if err := e.Train(w.Net, w.X2, w.Current); err != nil {
		t.Fatal(err)
	}
	return e, w
}

func TestRecommendCoversAllParameters(t *testing.T) {
	e, w := trainedEngine(t, Options{})
	c := &w.Net.Carriers[10]
	nbs := w.X2.CarrierNeighbors(c.ID)
	recs, err := e.Recommend(c, nbs)
	if err != nil {
		t.Fatal(err)
	}
	want := len(w.Schema.Singular()) + len(nbs)*len(w.Schema.PairWise())
	if len(recs) != want {
		t.Fatalf("got %d recommendations, want %d", len(recs), want)
	}
	for _, r := range recs {
		spec := w.Schema.At(r.ParamIndex)
		if !spec.Valid(r.Value) {
			t.Errorf("recommendation for %s = %v off grid", r.Param, r.Value)
		}
		if r.Explanation == "" {
			t.Errorf("recommendation for %s lacks an explanation", r.Param)
		}
		if r.Confidence < 0 || r.Confidence > 1 {
			t.Errorf("confidence %v out of range", r.Confidence)
		}
	}
}

func TestRecommendationsMostlyMatchCurrent(t *testing.T) {
	// Recommending for an existing carrier should largely reproduce its
	// current configuration — the engine's own sanity bar.
	e, w := trainedEngine(t, Options{})
	hits, total := 0, 0
	for ci := 0; ci < 30; ci++ {
		c := &w.Net.Carriers[ci]
		recs, err := e.Recommend(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			total++
			if r.Value == w.Current.Get(c.ID, r.ParamIndex) {
				hits++
			}
		}
	}
	if acc := float64(hits) / float64(total); acc < 0.9 {
		t.Errorf("self-recommendation accuracy = %v, want >= 0.9", acc)
	}
}

func TestLocalEngineUsesScope(t *testing.T) {
	e, w := trainedEngine(t, Options{Local: true})
	c := &w.Net.Carriers[5]
	recs, err := e.Recommend(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	// At least some explanations should reference matching carriers (the
	// CF vote), proving scoped prediction ran end to end.
	found := false
	for _, r := range recs {
		if strings.Contains(r.Explanation, "matching") || strings.Contains(r.Explanation, "majority") {
			found = true
			break
		}
	}
	if !found {
		t.Error("no CF-style explanations in scoped recommendations")
	}
}

func TestVendorFilterNoSamplesFails(t *testing.T) {
	w := netsim.Generate(netsim.Options{Seed: 13, Markets: 2, ENodeBsPerMarket: 12})
	e := New(w.Schema, Options{})
	if err := e.train(w.Net, w.X2, w.Current, admitNone); err == nil {
		t.Error("training on a partition with no carriers should fail")
	}
}

// admitNone is a training partition that admits no carrier.
func admitNone(lte.CarrierID) bool { return false }

func TestRecommendBeforeTrain(t *testing.T) {
	w := netsim.Generate(netsim.Options{Seed: 13, Markets: 2, ENodeBsPerMarket: 12})
	e := New(w.Schema, Options{})
	if _, err := e.Recommend(&w.Net.Carriers[0], nil); err == nil {
		t.Error("Recommend before Train should fail")
	}
}

func TestNewCarrierNotInGraph(t *testing.T) {
	// A carrier about to be launched: it references an existing eNodeB
	// but has an ID beyond the trained network. Local scoping must anchor
	// on the eNodeB and still work.
	e, w := trainedEngine(t, Options{Local: true})
	tmpl := w.Net.Carriers[3]
	newCar := tmpl
	newCar.ID = lte.CarrierID(len(w.Net.Carriers))
	recs, err := e.Recommend(&newCar, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(w.Schema.Singular()) {
		t.Fatalf("got %d recs", len(recs))
	}
	// It should mostly match the template's current config (same
	// attributes, same neighborhood).
	hits := 0
	for _, r := range recs {
		if r.Value == w.Current.Get(tmpl.ID, r.ParamIndex) {
			hits++
		}
	}
	if acc := float64(hits) / float64(len(recs)); acc < 0.8 {
		t.Errorf("new-carrier accuracy vs template = %v", acc)
	}
}

// TestRecommendContextTraced drives the traced recommend path end to end:
// a sampled root span must gain an engine.recommend child with one
// annotated recommend.param span per job, and the recommendations must
// carry the CF evidence diagnostics the audit log persists.
func TestRecommendContextTraced(t *testing.T) {
	e, w := trainedEngine(t, Options{})
	c := &w.Net.Carriers[5]
	nbs := w.X2.CarrierNeighbors(c.ID)

	tr := trace.New(trace.Options{SampleRate: 1})
	ctx, root := tr.StartRoot(context.Background(), "test")
	recs, err := e.RecommendContext(ctx, c, nbs)
	if err != nil {
		t.Fatal(err)
	}
	root.Finish()

	for _, r := range recs {
		if r.Candidates <= 0 {
			t.Errorf("%s: no candidate count in diagnostics", r.Param)
		}
		if r.VoteShare <= 0 || r.VoteShare > 1 {
			t.Errorf("%s: vote share %v out of range", r.Param, r.VoteShare)
		}
		if r.RelaxationLevel > 0 && r.Dropped == "" {
			t.Errorf("%s: relaxed to level %d without naming dropped attributes", r.Param, r.RelaxationLevel)
		}
		if len(r.Dependents) == 0 {
			t.Errorf("%s: CF recommendation lacks dependent attribute values", r.Param)
		}
	}

	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("recorded %d traces, want 1", len(traces))
	}
	var engineSpans, paramSpans int
	var sawLevel, sawCandidates bool
	for _, s := range traces[0].Spans {
		switch s.Name {
		case "engine.recommend":
			engineSpans++
		case "recommend.param":
			paramSpans++
			for _, a := range s.Attrs {
				if a.Key == "relaxation_level" {
					sawLevel = true
				}
				if a.Key == "candidates" {
					sawCandidates = true
				}
			}
		}
	}
	if engineSpans != 1 {
		t.Errorf("engine.recommend spans = %d, want 1", engineSpans)
	}
	if paramSpans != len(recs) {
		t.Errorf("recommend.param spans = %d, want one per recommendation (%d)", paramSpans, len(recs))
	}
	if !sawLevel || !sawCandidates {
		t.Errorf("param spans lack evidence annotations (level=%v candidates=%v)", sawLevel, sawCandidates)
	}

	// The aggregate latency histogram now carries this trace as exemplar.
	ex := recommendSeconds.Exemplar()
	if ex == nil || ex.TraceID != traces[0].TraceID.String() {
		t.Errorf("recommend histogram exemplar = %+v, want trace %s", ex, traces[0].TraceID)
	}
}

// TestRecommendContextCancelled verifies an abandoned request returns an
// error instead of a silently truncated recommendation set.
func TestRecommendContextCancelled(t *testing.T) {
	e, w := trainedEngine(t, Options{Workers: 2})
	c := &w.Net.Carriers[3]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.RecommendContext(ctx, c, w.X2.CarrierNeighbors(c.ID)); err == nil {
		t.Fatal("cancelled recommend returned no error")
	}
}

// TestRecommendUnsampledMatchesSampled pins that tracing is observation
// only: the recommendations are identical with and without a sampled
// trace in the context.
func TestRecommendUnsampledMatchesSampled(t *testing.T) {
	e, w := trainedEngine(t, Options{})
	c := &w.Net.Carriers[7]
	nbs := w.X2.CarrierNeighbors(c.ID)
	plain, err := e.Recommend(c, nbs)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Options{SampleRate: 1})
	ctx, root := tr.StartRoot(context.Background(), "test")
	traced, err := e.RecommendContext(ctx, c, nbs)
	root.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(traced) {
		t.Fatalf("recommendation counts differ: %d vs %d", len(plain), len(traced))
	}
	for i := range plain {
		if plain[i].Value != traced[i].Value || plain[i].Explanation != traced[i].Explanation {
			t.Errorf("recommendation %d differs under tracing: %+v vs %+v", i, plain[i], traced[i])
		}
	}
}

// TestRecommendBatchMatchesSingles pins the batch contract: every item of
// a RecommendBatch call is byte-identical to a RecommendContext call for
// the same carrier — values, explanations, and the full evidence
// diagnostics — with and without geographic scoping.
func TestRecommendBatchMatchesSingles(t *testing.T) {
	for _, local := range []bool{false, true} {
		name := "global"
		if local {
			name = "local"
		}
		t.Run(name, func(t *testing.T) {
			e, w := trainedEngine(t, Options{Local: local})
			items := []BatchItem{
				{Carrier: &w.Net.Carriers[2], Neighbors: w.X2.CarrierNeighbors(2)},
				{Carrier: &w.Net.Carriers[7]},
				{Carrier: &w.Net.Carriers[11], Neighbors: w.X2.CarrierNeighbors(11)},
			}
			batch, err := e.RecommendBatch(context.Background(), items)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch) != len(items) {
				t.Fatalf("got %d results for %d items", len(batch), len(items))
			}
			for i, it := range items {
				single, err := e.RecommendContext(context.Background(), it.Carrier, it.Neighbors)
				if err != nil {
					t.Fatalf("item %d: single-call recommend: %v", i, err)
				}
				if batch[i].Err != nil {
					t.Fatalf("item %d: batch error %v", i, batch[i].Err)
				}
				if !reflect.DeepEqual(batch[i].Recommendations, single) {
					t.Errorf("item %d: batch differs from single call\nbatch:  %+v\nsingle: %+v",
						i, batch[i].Recommendations, single)
				}
			}
		})
	}
}

// TestRecommendBatchErrorsPerItem pins item isolation: items naming a
// neighbor outside the trained inventory fail in their own slots, the
// batch call itself succeeds, and the good item between them is answered
// as a single call would be. A failed item plans no jobs, so it runs no
// predictions even when its bad neighbor comes after valid ones.
func TestRecommendBatchErrorsPerItem(t *testing.T) {
	w := netsim.Generate(netsim.Options{Seed: 13, Markets: 2, ENodeBsPerMarket: 12})
	var predicts atomic.Int64
	e := New(w.Schema, Options{Local: true, beforePredict: func() { predicts.Add(1) }})
	if err := e.Train(w.Net, w.X2, w.Current); err != nil {
		t.Fatal(err)
	}
	valid := w.X2.CarrierNeighbors(0)
	if len(valid) == 0 {
		t.Fatal("carrier 0 has no X2 neighbors")
	}
	good := w.X2.CarrierNeighbors(2)
	items := []BatchItem{
		{Carrier: &w.Net.Carriers[0], Neighbors: append(slices.Clone(valid), -1)},
		{Carrier: &w.Net.Carriers[2], Neighbors: good},
		{Carrier: &w.Net.Carriers[1], Neighbors: []lte.CarrierID{lte.CarrierID(len(w.Net.Carriers))}},
	}
	tr := trace.New(trace.Options{SampleRate: 1})
	ctx, root := tr.StartRoot(context.Background(), "test")
	batch, err := e.RecommendBatch(ctx, items)
	root.Finish()
	if err != nil {
		t.Fatalf("batch call failed outright: %v", err)
	}
	for _, i := range []int{0, 2} {
		if res := batch[i]; res.Err == nil || !strings.Contains(res.Err.Error(), "outside the") {
			t.Errorf("item %d: err = %v, want neighbor range error", i, res.Err)
		}
		if batch[i].Recommendations != nil {
			t.Errorf("item %d: error result carries recommendations", i)
		}
	}
	if batch[1].Err != nil {
		t.Fatalf("good item failed beside bad siblings: %v", batch[1].Err)
	}
	goodJobs := len(w.Schema.Singular()) + len(good)*len(w.Schema.PairWise())
	if got := predicts.Load(); got != int64(goodJobs) {
		t.Errorf("batch ran %d predictions, want only the good item's %d", got, goodJobs)
	}

	spans := 0
	for _, s := range tr.Traces()[0].Spans {
		if s.Name != "engine.recommend" {
			continue
		}
		spans++
		attrs := make(map[string]any, len(s.Attrs))
		for _, a := range s.Attrs {
			attrs[a.Key] = a.Value()
		}
		want := int64(0)
		if attrs["carrier"] == int64(2) {
			want = int64(goodJobs)
		}
		if attrs["jobs"] != want {
			t.Errorf("carrier %v: span jobs = %v, want %d", attrs["carrier"], attrs["jobs"], want)
		}
	}
	if spans != len(items) {
		t.Errorf("engine.recommend spans = %d, want %d", spans, len(items))
	}

	single, err := e.Recommend(&w.Net.Carriers[2], good)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch[1].Recommendations, single) {
		t.Error("good item's batch answer differs from a single call")
	}
}

// TestRecommendBatchBeforeTrain pins the whole-call guard.
func TestRecommendBatchBeforeTrain(t *testing.T) {
	w := netsim.Generate(netsim.Options{Seed: 13, Markets: 2, ENodeBsPerMarket: 12})
	e := New(w.Schema, Options{})
	if _, err := e.RecommendBatch(context.Background(), []BatchItem{{Carrier: &w.Net.Carriers[0]}}); err == nil {
		t.Error("RecommendBatch before Train should fail")
	}
}

// TestRecommendParamSpansPerJob pins the recommend.param spans of a sampled
// Local recommend with pair-wise jobs: one per job, in job order (singular
// parameters, then each neighbor's pair-wise parameters), each a child of
// the engine.recommend span with the prediction's evidence as attributes
// in a fixed key order, and one auric_engine_recommend_param_seconds
// sample per job.
func TestRecommendParamSpansPerJob(t *testing.T) {
	e, w := trainedEngine(t, Options{Local: true, Workers: 3})
	c := &w.Net.Carriers[5]
	nbs := w.X2.CarrierNeighbors(c.ID)
	if len(nbs) == 0 {
		t.Fatal("test carrier has no X2 neighbors")
	}
	tr := trace.New(trace.Options{SampleRate: 1})
	ctx, root := tr.StartRoot(context.Background(), "test")
	before := recommendParamSeconds.Count()
	recs, err := e.RecommendContext(ctx, c, nbs)
	if err != nil {
		t.Fatal(err)
	}
	if n := recommendParamSeconds.Count() - before; n != uint64(len(recs)) {
		t.Errorf("recommend_param_seconds gained %d samples, want one per job (%d)", n, len(recs))
	}
	root.Finish()

	var engineID trace.SpanID
	var params []trace.SpanData
	for _, s := range tr.Traces()[0].Spans {
		switch s.Name {
		case "engine.recommend":
			engineID = s.ID
		case "recommend.param":
			params = append(params, s)
		}
	}
	if len(params) != len(recs) {
		t.Fatalf("recommend.param spans = %d, want %d", len(params), len(recs))
	}
	// recs are sorted by (neighbor, parameter); the jobs run singular
	// parameters first, then each neighbor in the order given.
	byJob := map[string]Recommendation{}
	for _, r := range recs {
		byJob[r.Param+"/"+strconv.Itoa(int(r.Neighbor))] = r
	}
	var order []string
	for _, pi := range w.Schema.Singular() {
		order = append(order, w.Schema.At(pi).Name+"/-1")
	}
	for _, nb := range nbs {
		for _, pi := range w.Schema.PairWise() {
			order = append(order, w.Schema.At(pi).Name+"/"+strconv.Itoa(int(nb)))
		}
	}
	for k, s := range params {
		r, ok := byJob[order[k]]
		if !ok {
			t.Fatalf("no recommendation for job %s", order[k])
		}
		if s.Parent != engineID || s.Duration <= 0 || s.Start.IsZero() {
			t.Errorf("span %d: parent %s, start %v, duration %v; want a timed child of %s", k, s.Parent, s.Start, s.Duration, engineID)
		}
		want := []trace.Attr{
			trace.Str("param", r.Param),
			trace.Int("neighbor", int64(r.Neighbor)),
			trace.Int("relaxation_level", int64(r.RelaxationLevel)),
			trace.Int("candidates", int64(r.Candidates)),
			trace.Float("vote_share", r.VoteShare),
			trace.Bool("exact_index_hit", r.ExactIndexHit),
		}
		if r.PostingLists > 0 {
			want = append(want, trace.Int("posting_lists", int64(r.PostingLists)))
		}
		if r.Dropped != "" {
			want = append(want, trace.Str("dropped", r.Dropped))
		}
		want = append(want, trace.Bool("supported", r.Supported))
		if !slices.Equal(s.Attrs, want) {
			t.Errorf("span %d (%s) attrs = %v, want %v", k, order[k], s.Attrs, want)
		}
	}
}

// TestRecommendCancelledTraceRecordsRunJobs cancels a sampled recommend in
// the middle of its fan-out: the call fails, and the trace holds a
// recommend.param span only for the jobs that ran, each fully timed.
func TestRecommendCancelledTraceRecordsRunJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	e, w := trainedEngine(t, Options{Workers: 2, beforePredict: func() {
		if ran.Add(1) == 5 {
			cancel()
		}
	}})
	tr := trace.New(trace.Options{SampleRate: 1})
	tctx, root := tr.StartRoot(ctx, "test")
	if _, err := e.RecommendContext(tctx, &w.Net.Carriers[5], nil); err == nil {
		t.Fatal("cancelled recommend returned no error")
	}
	root.Finish()
	var params int
	for _, s := range tr.Traces()[0].Spans {
		if s.Name != "recommend.param" {
			continue
		}
		params++
		if s.Start.IsZero() || s.Duration <= 0 || len(s.Attrs) < 3 {
			t.Errorf("span of a cancelled fan-out: start %v, duration %v, attrs %v", s.Start, s.Duration, s.Attrs)
		}
	}
	if n := int(ran.Load()); params != n || n >= len(w.Schema.Singular()) {
		t.Errorf("recorded %d recommend.param spans for %d started jobs of %d", params, n, len(w.Schema.Singular()))
	}
}

// TestRecommendBatchCountsLevels pins the auric_cf_* counters across a
// RecommendBatch. The batch tallies its predictions and publishes once, and
// the counters must move exactly as one count per prediction would: each
// relaxation level by the number of recommendations that settled there,
// and exact-index hits by level 0's.
func TestRecommendBatchCountsLevels(t *testing.T) {
	e, w := trainedEngine(t, Options{Local: true, Workers: 3})
	var items []BatchItem
	for _, id := range []lte.CarrierID{1, 4, 9, 15, 22} {
		items = append(items, BatchItem{Carrier: &w.Net.Carriers[id], Neighbors: w.X2.CarrierNeighbors(id)})
	}
	levels := obs.Default().CounterVec("auric_cf_relaxation_level_total", "", "level")
	hits := obs.Default().Counter("auric_cf_exact_index_hits_total", "")
	label := func(lvl int) string {
		if lvl < 0 {
			return "fallback"
		}
		return strconv.Itoa(lvl)
	}
	// The batch is deterministic: a first run names the levels it reaches,
	// so reading their counters creates no new series.
	res, err := e.RecommendBatch(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{}
	for _, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		for _, rec := range r.Recommendations {
			want[label(rec.RelaxationLevel)]++
		}
	}
	before := map[string]uint64{}
	for l := range want {
		before[l] = levels.With(l).Value()
	}
	hitsBefore := hits.Value()
	if _, err := e.RecommendBatch(context.Background(), items); err != nil {
		t.Fatal(err)
	}
	for l, n := range want {
		if got := levels.With(l).Value() - before[l]; got != n {
			t.Errorf("level %s counter rose by %d, want %d", l, got, n)
		}
	}
	if got := hits.Value() - hitsBefore; got != want["0"] {
		t.Errorf("exact-index hits rose by %d, want %d", got, want["0"])
	}
}
