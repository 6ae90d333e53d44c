package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"auric"
	"auric/internal/lte"
)

// Run shape.
const (
	setupRuns  = 3                // auricd starts per run; setup_s is their median
	warmMin    = 3 * time.Second  // shortest warm-up
	warmMax    = 30 * time.Second // warm-up cap when RSS never settles
	warmSpan   = 3 * time.Second  // RSS must grow < warmGrowth over this span
	warmGrowth = 1.02
	probeWarm  = 2 * worldMarkets // untimed ingest probe mutations: one upsert per market
	probeOps   = 6 * worldMarkets // timed ingest probe mutations that follow them
)

// session is one HTTP drive of auricd: set-ups, the probe answers, the
// warmed-up measured window and the ingest probe.
type session struct {
	w       *world
	l       *ledger
	setups  []float64 // seconds, exec to first 200
	start   time.Time // load loops started
	t0, t1  time.Time // measured window
	warm    time.Duration
	hwmKB   int64
	ingest  []op                       // timed ingest probe mutations
	answers map[lte.CarrierID][]recDTO // probe answers served over HTTP
}

// recDTO is auricd's recommendation wire form.
type recDTO struct {
	Param           string  `json:"param"`
	Neighbor        int     `json:"neighbor"`
	Value           float64 `json:"value"`
	Confidence      float64 `json:"confidence"`
	Supported       bool    `json:"supported"`
	Explanation     string  `json:"explanation"`
	RelaxationLevel int     `json:"relaxationLevel"`
	Candidates      int     `json:"candidates"`
}

func runEndToEnd(o options) (*result, error) {
	w, err := loadWorld(o.cache, o.seed)
	if err != nil {
		return nil, err
	}
	s := &session{w: w}
	if err := s.drive(o, setupRuns); err != nil {
		return nil, err
	}
	res := &result{attempted: s.l.attempted.Load(), failed: s.l.failed.Load()}
	checkErr := s.l.errors()
	if s.l.died.Load() {
		checkErr = fmt.Errorf("auricd exited mid-run: %v", checkErr)
	}
	if checkErr == nil {
		checkErr = s.checkProbes(o.cache)
	}
	res.correct = checkErr == nil && res.failed == 0
	if checkErr != nil {
		res.note("FAILED: %v", checkErr)
	}

	rec := s.l.window("recommend", s.t0, s.t1)
	lat := make([]float64, len(rec))
	for i, op := range rec {
		lat[i] = ms(op.latency())
	}
	carriers := 0
	for _, op := range s.l.completed("recommend", s.t0, s.t1) {
		carriers += op.carriers
	}
	ing := make([]float64, len(s.ingest))
	for i, op := range s.ingest {
		ing[i] = ms(op.latency())
	}
	res.add("setup_s", median(append([]float64(nil), s.setups...)), "s")
	res.add("p50_ms", quantile(lat, 0.5), "ms")
	res.add("p90_ms", quantile(lat, 0.9), "ms")
	res.add("carriers_per_s", float64(carriers)/s.t1.Sub(s.t0).Seconds(), "1/s")
	res.add("rss_mb", float64(s.hwmKB)/1024, "MB")
	res.add("ingest_p50_ms", quantile(ing, 0.5), "ms")
	res.add("ingest_p90_ms", quantile(ing, 0.9), "ms")
	res.note("workload=%s seed=%d carriers=%d setups=%.3v warm-up=%.1fs window=%.1fs",
		o.workload, o.seed, len(w.net.Carriers), s.setups, s.warm.Seconds(), s.t1.Sub(s.t0).Seconds())
	res.note("recommend latency tail: %s", tailString(lat))
	res.note("ingest probe latency tail: %s", tailString(ing))
	res.note("operations: %d attempted, %d failed", res.attempted, res.failed)
	return res, nil
}

// drive runs the HTTP side of a run: `setups` auricd starts (the last one
// serves), probe answers, the ingest probe, warm-up and the measured
// window. Operations on a dead
// server end the drive early with the ledger marked.
func (s *session) drive(o options, setups int) error {
	w := s.w
	if len(w.donors) == 0 {
		return fmt.Errorf("the network has no carrier away from the hot set to clone")
	}
	jdir := filepath.Join(o.dir, fmt.Sprintf("journal-%s-seed%d", o.workload, o.seed))
	var srv *server
	for i := 0; i < setups; i++ {
		if err := os.RemoveAll(jdir); err != nil {
			return err
		}
		if err := os.MkdirAll(jdir, 0o755); err != nil {
			return err
		}
		start := time.Now()
		sv, err := startServer(o.auricd, w.snapPath, filepath.Join(jdir, "journal.jsonl"))
		if err != nil {
			return err
		}
		track(sv)
		if err := sv.firstRecommend(launchBody(w.probes[0])); err != nil {
			return err
		}
		s.setups = append(s.setups, time.Since(start).Seconds())
		if i < setups-1 {
			sv.stop()
		}
		srv = sv
	}
	defer func() {
		srv.stop()
		os.RemoveAll(jdir)
	}()
	s.l = newLedger(srv)
	if err := s.fetchProbes(srv); err != nil {
		return err
	}
	// Neither workload writes, so the ingest probe measures the write path:
	// clone upserts and tombstones, closed loop on the freshly started
	// server before any load, so each ack latency is the write path's own
	// cost rather than its share of two busy CPUs. The first probeWarm
	// mutations are not timed: auricd's heap grows over them, and the
	// median ack of the first 28 ran up to 54% above the whole probe's.
	// The closing tombstones return the models to the snapshot's state.
	probe := newChurner(w, newClient(srv.base), 0)
	probe.run(s.l, probeWarm)
	from := time.Now()
	probe.run(s.l, probeOps)
	s.ingest = s.l.window("ingest", from, time.Now())
	probe.drain(s.l)
	probe.c.close()
	if s.l.died.Load() {
		return nil
	}

	conns := 2
	s.start = time.Now()
	var wg sync.WaitGroup
	var clients []*client
	loop := func(f func(c *client)) {
		c := newClient(srv.base)
		clients = append(clients, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(c)
		}()
	}
	switch o.workload {
	case "launch":
		for i := 0; i < conns; i++ {
			conn := i
			loop(func(c *client) { launchLoop(s.l, c, w, conn) })
		}
	case "sweep":
		for i := 0; i < conns; i++ {
			conn := i
			loop(func(c *client) { sweepLoop(s.l, c, w, conn, conns) })
		}
	}
	s.warm = warmUp(s.l, srv)
	s.t0 = time.Now()
	for time.Since(s.t0) < time.Duration(o.seconds)*time.Second && !s.l.stop.Load() {
		time.Sleep(10 * time.Millisecond)
	}
	s.t1 = time.Now()
	s.l.stop.Store(true)
	wg.Wait()
	if kb, err := srv.statusKB("VmHWM"); err == nil {
		s.hwmKB = kb
	} else if !s.l.died.Load() {
		return err
	}
	for _, c := range clients {
		defer c.close()
	}
	return nil
}

// warmUp lets the load run until auricd's resident memory stops growing —
// its cache and trace rings fill over the first seconds, and a window
// measured meanwhile runs fast — and returns how long that took.
func warmUp(l *ledger, srv *server) time.Duration {
	start := time.Now()
	type sample struct {
		at  time.Time
		rss int64
	}
	var hist []sample
	for !l.stop.Load() {
		time.Sleep(250 * time.Millisecond)
		now := time.Now()
		rss, err := srv.statusKB("VmRSS")
		if err != nil {
			break
		}
		hist = append(hist, sample{now, rss})
		el := now.Sub(start)
		if el >= warmMax {
			break
		}
		if el < warmMin {
			continue
		}
		var then sample
		for _, h := range hist {
			if now.Sub(h.at) >= warmSpan {
				then = h
			}
		}
		if then.rss > 0 && float64(rss) <= float64(then.rss)*warmGrowth {
			break
		}
	}
	return time.Since(start)
}

// fetchProbes records the served answers for the probe carriers before
// any load or ingest touches the server.
func (s *session) fetchProbes(srv *server) error {
	c := newClient(srv.base)
	defer c.close()
	s.answers = make(map[lte.CarrierID][]recDTO)
	for _, id := range s.w.probes {
		o := op{kind: "check", due: time.Now()}
		err := c.do("POST", "/v1/recommend", "", launchBody(id))
		o.end = time.Now()
		var resp struct {
			Carrier         int      `json:"carrier"`
			Recommendations []recDTO `json:"recommendations"`
		}
		if err == nil {
			err = json.Unmarshal(c.buf.Bytes(), &resp)
		}
		if err == nil && resp.Carrier != int(id) {
			err = fmt.Errorf("probe %d answered for carrier %d", id, resp.Carrier)
		}
		s.l.record(o, err)
		if err != nil {
			return nil // booked as a failed operation
		}
		s.answers[id] = resp.Recommendations
	}
	return nil
}

// checkProbes compares the probe answers served over HTTP with an
// in-process ShardedEngine trained on the same snapshot. The in-process
// answers depend only on the seed and this build, so the first run of a
// seed computes them and later runs read them back.
func (s *session) checkProbes(cache string) error {
	path := filepath.Join(cache, fmt.Sprintf("answers-seed%d.json", s.w.seed))
	want := map[lte.CarrierID][]recDTO{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &want); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else {
		eng := auric.NewShardedEngine(s.w.schema, auric.EngineOptions{Local: true})
		if _, err := eng.Load(s.w.net, s.w.x2, s.w.cfg); err != nil {
			return fmt.Errorf("in-process load: %w", err)
		}
		for _, id := range s.w.probes {
			recs, err := eng.Recommend(&s.w.net.Carriers[id], s.w.x2.CarrierNeighbors(id))
			if err != nil {
				return fmt.Errorf("in-process recommend %d: %w", id, err)
			}
			want[id] = toDTOs(recs)
		}
		data, _ := json.Marshal(want) // plain data: cannot fail
		if err := writeFileAtomic(path, data); err != nil {
			return err
		}
	}
	for _, id := range s.w.probes {
		if err := sameAnswers(s.answers[id], want[id]); err != nil {
			return fmt.Errorf("probe carrier %d: HTTP and in-process answers differ: %w", id, err)
		}
	}
	return nil
}

func toDTOs(recs []auric.Recommendation) []recDTO {
	out := make([]recDTO, len(recs))
	for i, r := range recs {
		out[i] = recDTO{
			Param: r.Param, Neighbor: int(r.Neighbor), Value: r.Value, Confidence: r.Confidence,
			Supported: r.Supported, Explanation: r.Explanation,
			RelaxationLevel: r.RelaxationLevel, Candidates: r.Candidates,
		}
	}
	return out
}

func sameAnswers(got, want []recDTO) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d recommendations, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("#%d: served %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// writeFileAtomic writes data to path through a temporary file, so a run
// killed mid-write never leaves a truncated cache entry.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
