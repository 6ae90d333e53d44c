// Live carrier ingest: POST /v1/carriers applies upserts and DELETE
// /v1/carriers/{id} tombstones, patching the affected per-parameter models
// in place (ShardedEngine.Apply) instead of retraining the shard. With
// -journal, every acknowledged mutation is first appended to a
// sequence-numbered JSONL delta journal; on startup the server replays the
// journal over the latest compacted snapshot and arrives at the state it
// went down with. POST /v1/compact — or the journal outgrowing
// -journal-max-bytes — folds the journal into a fresh snapshot
// (<journal>.snapshot) and resets it.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"auric"
	"auric/internal/core"
	"auric/internal/journal"
	"auric/internal/lte"
	"auric/internal/obs"
	"auric/internal/paramspec"
	"auric/internal/snapshot"
)

// errJournal marks a failure in the durability path: the delta applied to
// the live engine but was not journaled, so a restart would lose it.
// Handlers map it to 500 — the server is at fault — where an engine
// rejection (semantic conflict) is a 409.
var errJournal = errors.New("journal failure")

// errTooLarge marks a delta whose journal entry would exceed
// journal.MaxData: it is refused before it reaches the engine, since
// applying it unjournaled would lose it on restart and journaling it
// would make the journal unreplayable.
var errTooLarge = errors.New("delta too large to journal")

// journalStage times the journal append + fsync of every applied delta, the
// one apply stage that runs outside ShardedEngine.Apply.
var journalStage = core.ApplyStageSeconds.With("journal")

// ingestStatus maps an applyDelta error to its HTTP status.
func ingestStatus(err error) int {
	switch {
	case errors.Is(err, errTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, errJournal):
		return http.StatusInternalServerError
	}
	return http.StatusConflict
}

// carrierSpec is the wire form of a carrier in the live-ingest API: enum
// attributes travel as their canonical names (the strings /v1/carriers/{id}
// reports), not internal codes. A nil or -1 ID creates a carrier; an
// existing ID replaces that carrier's attributes wholesale.
type carrierSpec struct {
	ID              *int    `json:"id,omitempty"`
	ENodeB          int     `json:"enodeb"`
	Face            int     `json:"face"`
	FrequencyMHz    int     `json:"frequencyMHz"`
	Type            string  `json:"type,omitempty"`
	Info            string  `json:"info,omitempty"`
	Morphology      string  `json:"morphology,omitempty"`
	BandwidthMHz    int     `json:"bandwidthMHz"`
	MIMOMode        string  `json:"mimoMode"`
	Hardware        string  `json:"hardware"`
	CellSizeMi      int     `json:"cellSizeMi"`
	TAC             int     `json:"tac"`
	Market          int     `json:"market"`
	Vendor          string  `json:"vendor"`
	NeighborChan    int     `json:"neighborChan"`
	NeighborsOnENB  int     `json:"neighborsOnENB"`
	SoftwareVersion string  `json:"softwareVersion"`
	Terrain         string  `json:"terrain,omitempty"`
	Lat             float64 `json:"lat"`
	Lon             float64 `json:"lon"`
}

// ingestPair sets pair-wise parameter values toward one neighbor carrier,
// keyed by parameter name.
type ingestPair struct {
	To     int                `json:"to"`
	Values map[string]float64 `json:"values"`
}

// ingestItem is one upsert of the live-ingest API: the carrier record plus
// optional singular parameter values (by name) and pair-wise relations.
type ingestItem struct {
	Carrier carrierSpec        `json:"carrier"`
	Config  map[string]float64 `json:"config,omitempty"`
	Pairs   []ingestPair       `json:"pairs,omitempty"`
}

// wireDelta is the journaled form of a mutation batch — exactly what came
// over the wire, so replay re-resolves it against the same fixed schema and
// reproduces the same engine calls.
type wireDelta struct {
	Upserts    []ingestItem `json:"upserts,omitempty"`
	Tombstones []int        `json:"tombstones,omitempty"`
}

// resolveUpsert converts one wire item into an engine upsert: enum names
// parse to their codes, parameter names to schema indices. Errors here are
// wire-level (unknown name, wrong kind) and reported per item; semantic
// validation (unknown market, tombstoned id) is the engine's.
func (s *server) resolveUpsert(it ingestItem) (auric.Upsert, error) {
	cs := it.Carrier
	c := auric.Carrier{
		ID:              -1,
		ENodeB:          auric.ENodeBID(cs.ENodeB),
		Face:            cs.Face,
		FrequencyMHz:    cs.FrequencyMHz,
		Info:            cs.Info,
		BandwidthMHz:    cs.BandwidthMHz,
		MIMOMode:        cs.MIMOMode,
		Hardware:        cs.Hardware,
		CellSizeMi:      cs.CellSizeMi,
		TAC:             cs.TAC,
		Market:          cs.Market,
		Vendor:          cs.Vendor,
		NeighborChan:    cs.NeighborChan,
		NeighborsOnENB:  cs.NeighborsOnENB,
		SoftwareVersion: cs.SoftwareVersion,
		Lat:             cs.Lat,
		Lon:             cs.Lon,
	}
	if cs.ID != nil {
		c.ID = auric.CarrierID(*cs.ID)
	}
	var err error
	if c.Type, err = lte.ParseCarrierType(cs.Type); err != nil {
		return auric.Upsert{}, err
	}
	if c.Morphology, err = lte.ParseMorphology(cs.Morphology); err != nil {
		return auric.Upsert{}, err
	}
	if c.Terrain, err = lte.ParseTerrain(cs.Terrain); err != nil {
		return auric.Upsert{}, err
	}
	u := auric.Upsert{Carrier: c}
	if len(it.Config) > 0 {
		u.Config = make(map[int]float64, len(it.Config))
		for name, v := range it.Config {
			pi, err := s.paramIndex(name, paramspec.Singular)
			if err != nil {
				return auric.Upsert{}, err
			}
			u.Config[pi] = v
		}
	}
	for _, p := range it.Pairs {
		vals := make(map[int]float64, len(p.Values))
		for name, v := range p.Values {
			pi, err := s.paramIndex(name, paramspec.PairWise)
			if err != nil {
				return auric.Upsert{}, err
			}
			vals[pi] = v
		}
		u.Pairs = append(u.Pairs, auric.PairValues{To: auric.CarrierID(p.To), Values: vals})
	}
	return u, nil
}

// paramIndex resolves a parameter name to its schema index, checking kind.
func (s *server) paramIndex(name string, kind paramspec.Kind) (int, error) {
	pi := s.schema.IndexOf(name)
	if pi < 0 {
		return 0, fmt.Errorf("unknown parameter %q", name)
	}
	if got := s.schema.At(pi).Kind; got != kind {
		want := "singular"
		if kind == paramspec.PairWise {
			want = "pair-wise"
		}
		return 0, fmt.Errorf("parameter %q is not %s", name, want)
	}
	return pi, nil
}

// resolveDelta resolves a journaled wire delta for replay.
func (s *server) resolveDelta(wd wireDelta) (auric.Delta, error) {
	var d auric.Delta
	for i, it := range wd.Upserts {
		u, err := s.resolveUpsert(it)
		if err != nil {
			return auric.Delta{}, fmt.Errorf("upsert %d: %w", i, err)
		}
		d.Upserts = append(d.Upserts, u)
	}
	for _, id := range wd.Tombstones {
		d.Tombstones = append(d.Tombstones, auric.CarrierID(id))
	}
	return d, nil
}

// ingestEntry is one item's slot in an ingest response: the assigned
// carrier id, or the wire-level error that rejected the batch.
type ingestEntry struct {
	ID    int    `json:"id"`
	Error string `json:"error,omitempty"`
}

// handleIngest serves POST /v1/carriers: a single upsert object or an
// array. The batch is atomic — it applies as one engine delta or not at
// all — but validation errors are reported per item, in request order, so
// the client sees every bad slot at once. The mutation is journaled after
// it applies and acknowledged only once it is on disk.
func (s *server) handleIngest(rw http.ResponseWriter, r *http.Request) {
	items, _, ok := decodeOneOrMany[ingestItem](rw, r)
	if !ok {
		return
	}

	entries := make([]ingestEntry, len(items))
	ups := make([]auric.Upsert, 0, len(items))
	bad := 0
	for i, it := range items {
		u, err := s.resolveUpsert(it)
		if err != nil {
			entries[i] = ingestEntry{ID: -1, Error: err.Error()}
			bad++
			continue
		}
		entries[i].ID = -1 // assigned below on success
		ups = append(ups, u)
	}
	if bad > 0 {
		s.countIngest("upsert", false, len(items))
		writeJSONStatus(rw, http.StatusBadRequest, map[string]any{
			"error":   fmt.Sprintf("%d of %d items failed validation; nothing applied", bad, len(items)),
			"results": entries,
		})
		return
	}

	res, err := s.applyDelta(wireDelta{Upserts: items}, auric.Delta{Upserts: ups})
	if err != nil {
		s.countIngest("upsert", false, len(items))
		writeError(rw, ingestStatus(err), err.Error())
		return
	}
	s.countIngest("upsert", true, len(items))
	for i, id := range res.Assigned {
		entries[i].ID = int(id)
	}
	writeJSON(rw, map[string]any{
		"generation": res.Generation,
		"patched":    res.Patched,
		"refit":      res.Refit,
		"results":    entries,
	})
}

// handleCarrierDelete serves DELETE /v1/carriers/{id}: the carrier's rows
// leave every model (tombstone), its id stays allocated, and further
// upserts of the id are rejected.
func (s *server) handleCarrierDelete(rw http.ResponseWriter, r *http.Request) {
	net, _, _, ok := s.inventory(rw)
	if !ok {
		return
	}
	idStr := strings.TrimPrefix(r.URL.Path, "/v1/carriers/")
	id, err := strconv.Atoi(idStr)
	if err != nil || id < 0 || id >= len(net.Carriers) {
		writeError(rw, http.StatusNotFound, "unknown carrier")
		return
	}
	res, err := s.applyDelta(
		wireDelta{Tombstones: []int{id}},
		auric.Delta{Tombstones: []auric.CarrierID{auric.CarrierID(id)}})
	if err != nil {
		s.countIngest("tombstone", false, 1)
		writeError(rw, ingestStatus(err), err.Error())
		return
	}
	s.countIngest("tombstone", true, 1)
	writeJSON(rw, map[string]any{
		"generation": res.Generation,
		"tombstoned": id,
		"patched":    res.Patched,
		"refit":      res.Refit,
	})
}

// applyDelta is the single mutation path: encode the wire form, apply to
// the engine, then append the encoding to the journal, then (maybe)
// compact — all under reloadMu so ingest, compaction and snapshot reload
// serialize. A delta whose encoding exceeds journal.MaxData is refused
// (413) before anything applies. A delta is acknowledged only after its
// journal append fsyncs; if the append fails the state is live but not
// durable, which the caller reports as a 500 and the log flags loudly.
func (s *server) applyDelta(wd wireDelta, d auric.Delta) (auric.ApplyResult, error) {
	var data []byte
	if s.journal != nil {
		var err error
		if data, err = json.Marshal(wd); err != nil {
			return auric.ApplyResult{}, fmt.Errorf("%w: encode: %w", errJournal, err)
		}
		if len(data) > journal.MaxData {
			return auric.ApplyResult{}, fmt.Errorf("%w: encoded delta is %d bytes, over the %d-byte journal entry limit; nothing applied",
				errTooLarge, len(data), journal.MaxData)
		}
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	res, err := s.engine.Apply(d)
	if err != nil {
		return res, err
	}
	if s.journal != nil {
		start := time.Now()
		_, err := s.journal.Append("delta", data)
		obs.Since(journalStage, start)
		if err != nil {
			log.Printf("auricd: APPLIED DELTA NOT JOURNALED (a restart loses it): %v", err)
			return res, fmt.Errorf("%w: append: %w", errJournal, err)
		}
		s.updateJournalGauges()
		if s.journalMax > 0 && s.journal.Size() > s.journalMax {
			if err := s.compactLocked("size"); err != nil {
				// Ingest stays up on a failed compaction; the journal just
				// keeps growing and the next append retries the fold.
				log.Printf("auricd: size-triggered compaction failed: %v", err)
			}
		}
	}
	return res, nil
}

// handleCompact serves POST /v1/compact: fold the journal into the
// compacted snapshot and reset it. Without -journal there is nothing to
// compact.
func (s *server) handleCompact(rw http.ResponseWriter, _ *http.Request) {
	if s.journal == nil {
		writeError(rw, http.StatusPreconditionFailed, "compaction requires -journal")
		return
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	start := time.Now()
	folded := s.journal.Entries()
	if err := s.compactLocked("http"); err != nil {
		writeError(rw, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(rw, map[string]any{
		"snapshot": s.snapPath,
		"folded":   folded,
		"seconds":  time.Since(start).Seconds(),
	})
}

// compactLocked folds the live serving state (including every journaled
// delta) into the compacted snapshot, then resets the journal. The
// snapshot records the last folded sequence number as its fence: a crash
// between the snapshot write and the journal reset is safe, because
// startup skips journal entries at or below the fence. Caller holds
// reloadMu.
func (s *server) compactLocked(trigger string) error {
	start := time.Now()
	net, cfg, dead, _, err := s.engine.SnapshotState()
	if err == nil {
		fence := s.journal.NextSeq() - 1
		if err = snapshot.SaveFull(s.snapPath, net, cfg, dead, fence); err == nil {
			err = s.journal.Reset()
		}
	}
	if s.compactions != nil {
		s.compactions.With(trigger, strconv.FormatBool(err == nil)).Inc()
	}
	if err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	s.updateJournalGauges()
	log.Printf("auricd: journal compacted into %s (trigger=%s, %d carriers, %d tombstones, %.2fs)",
		s.snapPath, trigger, len(net.Carriers), len(dead), time.Since(start).Seconds())
	return nil
}

// baseline returns the state to rebuild from before journal replay: the
// compacted snapshot when one exists (it is always at least as fresh as
// the -load file), else the configured source (-load snapshot or generated
// world). The returned fence is the journal sequence number already folded
// into the snapshot.
func (s *server) baseline() (*auric.Network, *auric.X2Graph, *auric.Config, []auric.CarrierID, int64, error) {
	if s.snapPath != "" {
		if _, err := os.Stat(s.snapPath); err == nil {
			net, cfg, tombs, fence, err := snapshot.LoadFull(s.snapPath)
			if err != nil {
				return nil, nil, nil, nil, 0, fmt.Errorf("compacted snapshot %s: %w", s.snapPath, err)
			}
			return net, auric.BuildX2(net), cfg, tombs, fence, nil
		}
	}
	net, x2, cfg, err := s.source()
	return net, x2, cfg, nil, 0, err
}

// restore rebuilds serving state end to end: load the baseline, re-apply
// its tombstones, then replay every journal entry past the snapshot's
// fence. It is the startup path and, in journal mode, the reload path
// (reload compacts first, so its replay set is empty). Callers other than
// startup hold reloadMu.
func (s *server) restore(entries []journal.Entry) (int64, error) {
	net, x2, cfg, tombs, fence, err := s.baseline()
	if err != nil {
		return 0, err
	}
	if s.journal != nil {
		// A compaction empties the journal while its sequence keeps
		// counting, so a journal reopened after compact-then-restart has
		// no record of how far the count got — left unseeded, the next
		// Append would reissue a number at or below the fence, and the
		// restart after that would skip the entry as already-folded
		// history. Seed from the fence; a journal with surviving entries
		// already continues past them and the seed is a no-op.
		s.journal.SeedSeq(fence + 1)
	}
	if s.engine == nil {
		s.schema = cfg.Schema()
		s.engine = auric.NewShardedEngine(s.schema, auric.EngineOptions{Local: true, Workers: s.workers, CacheEntries: s.cacheEntries})
		// The observer attaches before the first Load so the tracker's
		// baseline is the generation that actually serves.
		if s.health != nil {
			s.health.Bind(s.engine)
			s.engine.SetObserver(s.health)
		}
	}
	log.Printf("training %d market shards on %d carriers", len(net.Markets), len(net.Carriers))
	if _, err := s.engine.Load(net, x2, cfg); err != nil {
		return 0, err
	}
	if len(tombs) > 0 {
		if _, err := s.engine.Apply(auric.Delta{Tombstones: tombs}); err != nil {
			return 0, fmt.Errorf("restoring %d snapshot tombstones: %w", len(tombs), err)
		}
	}
	replayed := 0
	expected := fence + 1
	for _, e := range entries {
		if e.Seq <= fence {
			continue // already folded into the compacted snapshot
		}
		// The tail must continue exactly where the snapshot's fence ends;
		// a jump means the snapshot and journal are out of sync (e.g. a
		// deleted compacted snapshot) and replaying would skip history.
		if e.Seq != expected {
			return 0, fmt.Errorf("journal seq %d does not continue snapshot fence %d (want seq %d): snapshot and journal are out of sync", e.Seq, fence, expected)
		}
		expected++
		var wd wireDelta
		if err := json.Unmarshal(e.Data, &wd); err != nil {
			return 0, fmt.Errorf("journal seq %d: decode: %w", e.Seq, err)
		}
		d, err := s.resolveDelta(wd)
		if err != nil {
			return 0, fmt.Errorf("journal seq %d: %w", e.Seq, err)
		}
		if _, err := s.engine.Apply(d); err != nil {
			return 0, fmt.Errorf("journal seq %d: apply: %w", e.Seq, err)
		}
		replayed++
	}
	if replayed > 0 || fence > 0 {
		log.Printf("auricd: restored live state: snapshot fence seq %d, %d journal entries replayed", fence, replayed)
	}
	s.updateJournalGauges()
	return s.engine.Generation(), nil
}

// countIngest feeds auric_ingest_ops_total{kind,ok} with n operations.
func (s *server) countIngest(kind string, ok bool, n int) {
	if s.ingests != nil && n > 0 {
		s.ingests.With(kind, strconv.FormatBool(ok)).Add(uint64(n))
	}
}

// updateJournalGauges publishes the journal's replay lag and byte size,
// and mirrors the lag into the model-health tracker's staleness check.
func (s *server) updateJournalGauges() {
	if s.journal == nil {
		return
	}
	entries := s.journal.Entries()
	if s.health != nil {
		s.health.SetJournalLag(int64(entries))
	}
	if s.journalLag == nil {
		return
	}
	s.journalLag.Set(float64(entries))
	s.journalBytes.Set(float64(s.journal.Size()))
}
