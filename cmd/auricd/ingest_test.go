package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"auric"
	"auric/internal/journal"
	"auric/internal/obs"
	"auric/internal/rng"
)

// liveServer builds a server through the real startup path (restore), with
// an optional journal — the configuration main assembles from -journal.
func liveServer(t *testing.T, jpath string) *server {
	t.Helper()
	w := auric.SimulateNetwork(auric.NetworkOptions{Seed: 3, Markets: 2, ENodeBsPerMarket: 8})
	// cacheEntries is on, as in production: every ingest test then also
	// exercises the generation-keyed cache's structural invalidation.
	s := &server{newRNG: rng.New(1), world: w, cacheEntries: 256}
	s.source = func() (*auric.Network, *auric.X2Graph, *auric.Config, error) {
		return w.Net, w.X2, w.Current, nil
	}
	var entries []journal.Entry
	if jpath != "" {
		j, es, err := journal.Open(jpath)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { j.Close() })
		s.journal = j
		s.snapPath = jpath + ".snapshot"
		s.journalMax = 8 << 20
		entries = es
	}
	if _, err := s.restore(entries); err != nil {
		t.Fatal(err)
	}
	return s
}

// donorItem builds a wire upsert that clones an existing carrier's
// attributes onto its eNodeB (ID omitted: create).
func donorItem(net *auric.Network, id int) ingestItem {
	c := net.Carriers[id]
	return ingestItem{Carrier: carrierSpec{
		ENodeB: int(c.ENodeB), Face: c.Face, FrequencyMHz: c.FrequencyMHz,
		Type: c.Type.String(), Info: c.Info, Morphology: c.Morphology.String(),
		BandwidthMHz: c.BandwidthMHz, MIMOMode: c.MIMOMode, Hardware: c.Hardware,
		CellSizeMi: c.CellSizeMi, TAC: c.TAC, Market: c.Market, Vendor: c.Vendor,
		NeighborChan: c.NeighborChan, NeighborsOnENB: c.NeighborsOnENB,
		SoftwareVersion: c.SoftwareVersion, Terrain: c.Terrain.String(),
		Lat: c.Lat, Lon: c.Lon,
	}}
}

func postIngest(t *testing.T, s *server, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.handleIngest(rec, httptest.NewRequest("POST", "/v1/carriers", strings.NewReader(body)))
	return rec
}

func mustIngest(t *testing.T, s *server, it ingestItem) int {
	t.Helper()
	b, err := json.Marshal(it)
	if err != nil {
		t.Fatal(err)
	}
	rec := postIngest(t, s, string(b))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Generation int64
		Results    []ingestEntry
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].ID < 0 {
		t.Fatalf("ingest results: %+v", resp.Results)
	}
	return resp.Results[0].ID
}

func deleteCarrier(t *testing.T, s *server, id int) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.handleCarrierDelete(rec, httptest.NewRequest("DELETE", fmt.Sprintf("/v1/carriers/%d", id), nil))
	return rec
}

// TestIngestUpsertAndDelete exercises the journal-less ingest lifecycle:
// create a carrier, read it back, tombstone it, and observe the tombstone
// rules (no double delete, unknown id is 404).
func TestIngestUpsertAndDelete(t *testing.T) {
	s := liveServer(t, "")
	net0, _, gen0, err := s.engine.Inventory()
	if err != nil {
		t.Fatal(err)
	}
	before := len(net0.Carriers)

	id := mustIngest(t, s, donorItem(net0, 0))
	if id != before {
		t.Fatalf("assigned id %d, want %d (append-only id space)", id, before)
	}
	net1, _, gen1, err := s.engine.Inventory()
	if err != nil {
		t.Fatal(err)
	}
	if len(net1.Carriers) != before+1 || gen1 == gen0 {
		t.Fatalf("after upsert: %d carriers (want %d), generation %d -> %d",
			len(net1.Carriers), before+1, gen0, gen1)
	}
	// The new carrier serves immediately.
	rec := httptest.NewRecorder()
	s.handleCarrier(rec, httptest.NewRequest("GET", fmt.Sprintf("/v1/carriers/%d", id), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET new carrier: %d: %s", rec.Code, rec.Body)
	}

	if rec := deleteCarrier(t, s, id); rec.Code != http.StatusOK {
		t.Fatalf("delete: %d: %s", rec.Code, rec.Body)
	}
	if rec := deleteCarrier(t, s, id); rec.Code != http.StatusConflict {
		t.Fatalf("double delete: %d, want 409: %s", rec.Code, rec.Body)
	}
	if rec := deleteCarrier(t, s, 999999); rec.Code != http.StatusNotFound {
		t.Fatalf("delete unknown: %d, want 404", rec.Code)
	}
	// Upserting a tombstoned id is a semantic (engine) rejection: 409.
	it := donorItem(net0, 0)
	it.Carrier.ID = &id
	b, _ := json.Marshal(it)
	if rec := postIngest(t, s, string(b)); rec.Code != http.StatusConflict {
		t.Fatalf("upsert of tombstoned id: %d, want 409: %s", rec.Code, rec.Body)
	}
	// Unknown market: also an engine rejection.
	bad := donorItem(net0, 0)
	bad.Carrier.Market = 99
	b, _ = json.Marshal(bad)
	if rec := postIngest(t, s, string(b)); rec.Code != http.StatusConflict {
		t.Fatalf("unknown market: %d, want 409: %s", rec.Code, rec.Body)
	}
	// Compaction without a journal has nothing to fold.
	rec = httptest.NewRecorder()
	s.handleCompact(rec, httptest.NewRequest("POST", "/v1/compact", nil))
	if rec.Code != http.StatusPreconditionFailed {
		t.Fatalf("compact without journal: %d, want 412", rec.Code)
	}
}

// TestIngestValidationErrors pins the per-item error contract: a batch
// with wire-level errors is rejected as a whole (atomic), every bad item
// reports its own error in its slot, and nothing applies.
func TestIngestValidationErrors(t *testing.T) {
	s := liveServer(t, "")
	net0, _, gen0, err := s.engine.Inventory()
	if err != nil {
		t.Fatal(err)
	}
	good := donorItem(net0, 0)
	badType := donorItem(net0, 0)
	badType.Carrier.Type = "lte-9000"
	badParam := donorItem(net0, 0)
	badParam.Config = map[string]float64{"noSuchParameter": 1}
	wrongKind := donorItem(net0, 0)
	pw := s.schema.PairWise()[0]
	wrongKind.Config = map[string]float64{s.schema.At(pw).Name: 1} // pair-wise name in the singular slot

	b, err := json.Marshal([]ingestItem{good, badType, badParam, wrongKind})
	if err != nil {
		t.Fatal(err)
	}
	rec := postIngest(t, s, string(b))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Error   string
		Results []ingestEntry
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("results: %+v", resp.Results)
	}
	if resp.Results[0].Error != "" {
		t.Errorf("good item got error %q", resp.Results[0].Error)
	}
	for i, want := range map[int]string{1: "carrier type", 2: "unknown parameter", 3: "not singular"} {
		if !strings.Contains(resp.Results[i].Error, want) {
			t.Errorf("item %d error %q, want %q", i, resp.Results[i].Error, want)
		}
	}
	net1, _, gen1, err := s.engine.Inventory()
	if err != nil {
		t.Fatal(err)
	}
	if len(net1.Carriers) != len(net0.Carriers) || gen1 != gen0 {
		t.Fatalf("partial apply: %d -> %d carriers, generation %d -> %d",
			len(net0.Carriers), len(net1.Carriers), gen0, gen1)
	}
}

// TestIngestBodyTooLarge pins the request size limit on the ingest route:
// a body over maxBodyBytes answers a JSON 413 and applies nothing.
func TestIngestBodyTooLarge(t *testing.T) {
	s := liveServer(t, "")
	gen0 := s.engine.Generation()
	b, err := json.Marshal(donorItem(s.world.Net, 0))
	if err != nil {
		t.Fatal(err)
	}
	rec := postIngest(t, s, string(b)+strings.Repeat(" ", maxBodyBytes))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %.200s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q, want application/json", ct)
	}
	if g := s.engine.Generation(); g != gen0 {
		t.Errorf("oversized ingest moved the generation from %d to %d", gen0, g)
	}
}

// TestIngestTooLargeToJournal: an upsert within the body cap whose journal
// entry would exceed journal.MaxData answers 413 with nothing applied, and
// the journal still reopens with every earlier entry. JSON escapes each
// '<' as \u003c, so 3 MiB of '<' in a body journals as ~18 MiB.
func TestIngestTooLargeToJournal(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "deltas.jsonl")
	s := liveServer(t, jpath)
	s.journalMax = 0 // no size-triggered compaction: every entry stays in the file
	net, _, _, err := s.engine.Inventory()
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, s, donorItem(net, 0))
	gen := s.engine.Generation()

	big := donorItem(net, 1)
	big.Carrier.Hardware = strings.Repeat("<", 3<<20)
	var body strings.Builder
	enc := json.NewEncoder(&body)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(big); err != nil {
		t.Fatal(err)
	}
	if body.Len() > maxBodyBytes {
		t.Fatalf("body of %d bytes is over the %d-byte cap; the test needs one under it", body.Len(), maxBodyBytes)
	}
	rec := postIngest(t, s, body.String())
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %.200s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q, want application/json", ct)
	}
	if g := s.engine.Generation(); g != gen {
		t.Errorf("refused ingest moved the generation from %d to %d", gen, g)
	}

	s.journal.Close()
	j, entries, err := journal.Open(jpath)
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	defer j.Close()
	if len(entries) != 1 || entries[0].Seq != 1 {
		t.Fatalf("reopened journal holds %d entries, want the 1 earlier entry", len(entries))
	}
}

// TestJournalReplayAfterCrash is the durability round trip: ingest, crash
// without compacting (plus a torn final write), restart from the same
// journal, and land in an identical serving state — same inventory, same
// tombstones, same recommendations.
func TestJournalReplayAfterCrash(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "deltas.jsonl")
	s1 := liveServer(t, jpath)
	net0, _, _, err := s1.engine.Inventory()
	if err != nil {
		t.Fatal(err)
	}
	id := mustIngest(t, s1, donorItem(net0, 0))
	if rec := deleteCarrier(t, s1, 5); rec.Code != http.StatusOK {
		t.Fatalf("delete: %d: %s", rec.Code, rec.Body)
	}
	net1, _, _, err := s1.engine.Inventory()
	if err != nil {
		t.Fatal(err)
	}
	recs1, err := s1.engine.Recommend(&net1.Carriers[id], nil)
	if err != nil {
		t.Fatal(err)
	}
	s1.journal.Close() // crash: no compaction, journal is the only record
	f, err := os.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"seq":99,"kind":"del`) // torn write mid-crash
	f.Close()

	s2 := liveServer(t, jpath)
	if s2.journal.Dropped() == 0 {
		t.Error("torn tail not reported as dropped")
	}
	net2, _, _, err := s2.engine.Inventory()
	if err != nil {
		t.Fatal(err)
	}
	if len(net2.Carriers) != len(net1.Carriers) {
		t.Fatalf("replayed inventory %d carriers, want %d", len(net2.Carriers), len(net1.Carriers))
	}
	if dead, err := s2.engine.Tombstoned(5); err != nil || !dead {
		t.Fatalf("Tombstoned(5) = %v, %v after replay", dead, err)
	}
	recs2, err := s2.engine.Recommend(&net2.Carriers[id], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs1, recs2) {
		t.Error("recommendations diverge after journal replay")
	}
}

// TestCompactionRoundTrip: compaction folds the journal into the snapshot
// (journal empties, snapshot appears), post-compaction deltas land past
// the snapshot's sequence fence, and a restart restores the combined
// state from snapshot + journal tail.
func TestCompactionRoundTrip(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "deltas.jsonl")
	s1 := liveServer(t, jpath)
	net0, _, _, err := s1.engine.Inventory()
	if err != nil {
		t.Fatal(err)
	}
	id := mustIngest(t, s1, donorItem(net0, 0))
	if rec := deleteCarrier(t, s1, 5); rec.Code != http.StatusOK {
		t.Fatalf("delete: %d: %s", rec.Code, rec.Body)
	}

	rec := httptest.NewRecorder()
	s1.handleCompact(rec, httptest.NewRequest("POST", "/v1/compact", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("compact: %d: %s", rec.Code, rec.Body)
	}
	if _, err := os.Stat(jpath + ".snapshot"); err != nil {
		t.Fatalf("compacted snapshot missing: %v", err)
	}
	if n := s1.journal.Entries(); n != 0 {
		t.Fatalf("journal holds %d entries after compaction", n)
	}

	// A post-compaction delta: its seq is past the snapshot fence.
	if rec := deleteCarrier(t, s1, 6); rec.Code != http.StatusOK {
		t.Fatalf("post-compaction delete: %d: %s", rec.Code, rec.Body)
	}
	net1, _, _, err := s1.engine.Inventory()
	if err != nil {
		t.Fatal(err)
	}
	recs1, err := s1.engine.Recommend(&net1.Carriers[id], nil)
	if err != nil {
		t.Fatal(err)
	}
	s1.journal.Close()

	s2 := liveServer(t, jpath)
	net2, _, _, err := s2.engine.Inventory()
	if err != nil {
		t.Fatal(err)
	}
	if len(net2.Carriers) != len(net1.Carriers) {
		t.Fatalf("restored inventory %d carriers, want %d", len(net2.Carriers), len(net1.Carriers))
	}
	for _, want := range []int{5, 6} {
		if dead, err := s2.engine.Tombstoned(auric.CarrierID(want)); err != nil || !dead {
			t.Fatalf("Tombstoned(%d) = %v, %v after restore", want, dead, err)
		}
	}
	recs2, err := s2.engine.Recommend(&net2.Carriers[id], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs1, recs2) {
		t.Error("recommendations diverge after compaction + restore")
	}
}

// TestIngestAfterCompactionRestart is the regression test for the
// sequence-seeding gap: a restart finds an empty, post-compaction journal,
// whose file carries no record of how far the sequence counted. Unless
// restore seeds it from the snapshot's fence, mutations acknowledged after
// the restart get sequence numbers at or below the fence — and the restart
// after that silently skips them as already-folded history.
func TestIngestAfterCompactionRestart(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "deltas.jsonl")
	s1 := liveServer(t, jpath)
	net0, _, _, err := s1.engine.Inventory()
	if err != nil {
		t.Fatal(err)
	}
	id := mustIngest(t, s1, donorItem(net0, 0))
	rec := httptest.NewRecorder()
	s1.handleCompact(rec, httptest.NewRequest("POST", "/v1/compact", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("compact: %d: %s", rec.Code, rec.Body)
	}
	fence := s1.journal.NextSeq() - 1 // the snapshot recorded this fence
	s1.journal.Close()                // clean shutdown: journal empty, snapshot current

	// Restart one: the journal is empty but must continue past the fence.
	s2 := liveServer(t, jpath)
	if next := s2.journal.NextSeq(); next != fence+1 {
		t.Fatalf("post-restart NextSeq = %d, want %d (snapshot fence %d)", next, fence+1, fence)
	}
	if rec := deleteCarrier(t, s2, 5); rec.Code != http.StatusOK {
		t.Fatalf("post-restart delete: %d: %s", rec.Code, rec.Body)
	}
	net2, _, _, err := s2.engine.Inventory()
	if err != nil {
		t.Fatal(err)
	}
	recs2, err := s2.engine.Recommend(&net2.Carriers[id], nil)
	if err != nil {
		t.Fatal(err)
	}
	s2.journal.Close() // crash: the delete lives only in the journal tail

	// Restart two: the acknowledged delete must replay, not be skipped.
	s3 := liveServer(t, jpath)
	if dead, err := s3.engine.Tombstoned(5); err != nil || !dead {
		t.Fatalf("Tombstoned(5) = %v, %v: post-compaction-restart mutation lost on replay", dead, err)
	}
	net3, _, _, err := s3.engine.Inventory()
	if err != nil {
		t.Fatal(err)
	}
	if len(net3.Carriers) != len(net2.Carriers) {
		t.Fatalf("restored inventory %d carriers, want %d", len(net3.Carriers), len(net2.Carriers))
	}
	recs3, err := s3.engine.Recommend(&net3.Carriers[id], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs2, recs3) {
		t.Error("recommendations diverge after compaction + restart + ingest + restart")
	}
}

// TestSizeTriggeredCompaction: once the journal outgrows journalMax, the
// very ingest that crossed the line folds it into the snapshot.
func TestSizeTriggeredCompaction(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "deltas.jsonl")
	s := liveServer(t, jpath)
	s.journalMax = 1 // every append exceeds this
	net0, _, _, err := s.engine.Inventory()
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, s, donorItem(net0, 0))
	if n := s.journal.Entries(); n != 0 {
		t.Fatalf("journal holds %d entries; size trigger did not compact", n)
	}
	if _, err := os.Stat(jpath + ".snapshot"); err != nil {
		t.Fatalf("compacted snapshot missing: %v", err)
	}
}

// journalGauges asserts auric_journal_lag_ops and auric_journal_bytes
// agree with the journal's actual state at a labeled point in time.
func journalGauges(t *testing.T, s *server, ctx string, wantLag float64) {
	t.Helper()
	if got := s.journalLag.Value(); got != wantLag {
		t.Fatalf("%s: auric_journal_lag_ops = %g, want %g", ctx, got, wantLag)
	}
	if got, want := s.journalBytes.Value(), float64(s.journal.Size()); got != want {
		t.Fatalf("%s: auric_journal_bytes = %g, want %g (the journal's size)", ctx, got, want)
	}
}

// TestJournalGaugeFreshness: the journal gauges must track reality through
// every path that moves the journal — ingest appends, HTTP compaction,
// crash replay on restart, and post-restart compaction — and every append
// is timed as the journal apply stage. A stale
// auric_journal_lag_ops misreports the replay a restart would pay, which
// is the one number the compaction runbook pages on.
func TestJournalGaugeFreshness(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "deltas.jsonl")
	s := liveServer(t, jpath)
	newHandler(s, handlerOptions{registry: obs.New()})
	journalGauges(t, s, "fresh server", 0)

	net0, _, _, err := s.engine.Inventory()
	if err != nil {
		t.Fatal(err)
	}
	appends := journalStage.Count()
	mustIngest(t, s, donorItem(net0, 0))
	mustIngest(t, s, donorItem(net0, 1))
	journalGauges(t, s, "after two ingests", 2)
	if s.journalBytes.Value() == 0 {
		t.Fatal("auric_journal_bytes still 0 after two appended deltas")
	}
	if n := journalStage.Count() - appends; n != 2 {
		t.Fatalf(`auric_apply_stage_seconds{stage="journal"} observed %d appends for two ingests, want 2`, n)
	}

	rec := httptest.NewRecorder()
	s.handleCompact(rec, httptest.NewRequest("POST", "/v1/compact", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("compact: %d: %s", rec.Code, rec.Body)
	}
	journalGauges(t, s, "after compaction", 0)

	mustIngest(t, s, donorItem(net0, 2))
	journalGauges(t, s, "after post-compaction ingest", 1)
	s.journal.Close() // crash: one delta lives only in the journal tail

	// The restarted server replays that tail entry; its gauges must be
	// seeded from the replayed journal, not left at their zero values.
	s2 := liveServer(t, jpath)
	newHandler(s2, handlerOptions{registry: obs.New()})
	journalGauges(t, s2, "after crash replay", 1)

	rec = httptest.NewRecorder()
	s2.handleCompact(rec, httptest.NewRequest("POST", "/v1/compact", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-restart compact: %d: %s", rec.Code, rec.Body)
	}
	journalGauges(t, s2, "after post-restart compaction", 0)
}

// TestIngestInvalidatesRecommendCache pins the serving cache's structural
// invalidation at the HTTP layer: POST /v1/recommend twice (the second is
// a cache hit), then POST /v1/carriers a swarm of clones co-sited with the
// queried carrier that all vote one singular parameter a grid level away.
// The 1-hop eNodeB scope includes the clones, so the recommendation must
// flip to the swarm's value — a stale cached answer cannot pass.
func TestIngestInvalidatesRecommendCache(t *testing.T) {
	s := liveServer(t, "")
	const donor = 5
	body := fmt.Sprintf(`{"carrier": %d}`, donor)
	recommend := func() map[string]float64 {
		t.Helper()
		rec := httptest.NewRecorder()
		s.handleRecommend(rec, httptest.NewRequest("POST", "/v1/recommend", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("recommend status %d: %s", rec.Code, rec.Body)
		}
		var resp struct {
			Recommendations []struct {
				Param string  `json:"param"`
				Value float64 `json:"value"`
			} `json:"recommendations"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		out := make(map[string]float64, len(resp.Recommendations))
		for _, r := range resp.Recommendations {
			out[r.Param] = r.Value
		}
		return out
	}

	warm := recommend()
	if again := recommend(); !reflect.DeepEqual(again, warm) {
		t.Fatalf("repeat request changed with no ingest in between:\n%v\n%v", again, warm)
	}
	st := s.engine.CacheStats()
	if !st.Enabled || st.Hits == 0 {
		t.Fatalf("repeat request did not hit the cache: %+v", st)
	}

	pi := s.schema.Singular()[0]
	p := s.schema.At(pi)
	cur, ok := warm[p.Name]
	if !ok {
		t.Fatalf("warm answer carries no %s recommendation", p.Name)
	}
	alt := p.ValueAt((p.Index(cur) + 1) % p.Levels())
	it := donorItem(s.world.Net, donor)
	it.Config = map[string]float64{p.Name: alt}
	swarm := make([]ingestItem, 64)
	for i := range swarm {
		swarm[i] = it
	}
	sb, err := json.Marshal(swarm)
	if err != nil {
		t.Fatal(err)
	}
	if rec := postIngest(t, s, string(sb)); rec.Code != http.StatusOK {
		t.Fatalf("swarm ingest status %d: %s", rec.Code, rec.Body)
	}

	got := recommend()
	if got[p.Name] != alt {
		t.Errorf("%s = %v after the swarm voted %v; the cached pre-ingest answer leaked through",
			p.Name, got[p.Name], alt)
	}
	after := s.engine.CacheStats()
	if after.Invalidations != st.Invalidations+1 {
		t.Errorf("invalidations = %d after one ingest batch, want %d", after.Invalidations, st.Invalidations+1)
	}
}
