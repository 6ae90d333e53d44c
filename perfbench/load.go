package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"auric/internal/lte"
)

// op is one completed HTTP operation of the load generator.
type op struct {
	kind     string // "recommend", "ingest" or "check"
	conn     int
	idx      int       // position in the connection's request sequence
	due      time.Time // send time
	end      time.Time
	carriers int // carriers answered (recommend)
	bytes    int // response body bytes
	ok       bool
}

func (o op) latency() time.Duration { return o.end.Sub(o.due) }

// ledger counts every operation the benchmark attempts. An operation fails
// on a transport error, a non-2xx status or a failed output check. When a
// failure finds auricd gone, the run is over: loops stop, the run is
// marked failed, and nothing issued after the death counts as throughput.
type ledger struct {
	srv       *server
	mu        sync.Mutex
	ops       []op
	attempted atomic.Int64
	failed    atomic.Int64
	died      atomic.Bool
	stop      atomic.Bool
	errs      []error
}

func newLedger(srv *server) *ledger { return &ledger{srv: srv} }

// record books a finished operation; err is nil on success.
func (l *ledger) record(o op, err error) {
	o.ok = err == nil
	l.attempted.Add(1)
	l.mu.Lock()
	l.ops = append(l.ops, o)
	if err != nil {
		if len(l.errs) < 5 {
			l.errs = append(l.errs, fmt.Errorf("%s conn %d #%d: %w", o.kind, o.conn, o.idx, err))
		}
	}
	l.mu.Unlock()
	if err != nil {
		l.failed.Add(1)
		if l.srv != nil && l.srv.gone() {
			l.died.Store(true)
			l.stop.Store(true)
		}
	}
}

// window returns the successful operations of a kind that were sent and
// completed inside [from, to].
func (l *ledger) window(kind string, from, to time.Time) []op {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []op
	for _, o := range l.ops {
		if o.kind == kind && o.ok && !o.due.Before(from) && !o.end.After(to) {
			out = append(out, o)
		}
	}
	return out
}

// completed returns the successful operations of a kind that completed
// inside [from, to], wherever they started.
func (l *ledger) completed(kind string, from, to time.Time) []op {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []op
	for _, o := range l.ops {
		if o.kind == kind && o.ok && !o.end.Before(from) && !o.end.After(to) {
			out = append(out, o)
		}
	}
	return out
}

func (l *ledger) errors() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return errors.Join(l.errs...)
}

// client is one keep-alive connection to auricd.
type client struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole body into c.buf. A transport
// error, a short body and a non-2xx status are all errors.
func (c *client) do(method, path, accept string, body []byte) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("reading body: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("status %d: %.200s", resp.StatusCode, c.buf.Bytes())
	}
	return nil
}

var (
	paramKey = []byte(`"param":`)
	errorKey = []byte(`"error"`)
)

// checkSingle verifies a single-carrier POST /v1/recommend answer: the
// carrier's id, exactly want recommendations, and no error entry. It counts
// keys rather than decoding, so checking every response costs the client
// far less CPU than the server spends producing it.
func checkSingle(body []byte, id lte.CarrierID, want int) error {
	head := []byte("{\n  \"carrier\": " + strconv.Itoa(int(id)) + ",\n")
	if !bytes.HasPrefix(body, head) {
		return fmt.Errorf("answer does not start with carrier %d: %.80q", id, body)
	}
	if bytes.Contains(body, errorKey) {
		return fmt.Errorf("carrier %d: answer carries an error: %.200s", id, body)
	}
	if got := bytes.Count(body, paramKey); got != want {
		return fmt.Errorf("carrier %d: %d recommendations, want %d", id, got, want)
	}
	return nil
}

// checkNDJSON verifies a streamed batch answer: exactly one line per
// requested carrier, in request order, each holding want recommendations
// and no error.
func checkNDJSON(body []byte, ids []lte.CarrierID, want int) error {
	lines := countLines(body)
	if lines != len(ids) {
		return fmt.Errorf("stream has %d lines, want %d", lines, len(ids))
	}
	rest := body
	for i, id := range ids {
		nl := bytes.IndexByte(rest, '\n')
		line := rest[:nl]
		rest = rest[nl+1:]
		head := `{"carrier":` + strconv.Itoa(int(id)) + `,"recommendations":[`
		if !bytes.HasPrefix(line, []byte(head)) {
			return fmt.Errorf("line %d: want carrier %d first: %.120q", i, id, line)
		}
		if bytes.Contains(line, errorKey) {
			return fmt.Errorf("line %d: error entry: %.200s", i, line)
		}
		if got := bytes.Count(line, paramKey); got != want {
			return fmt.Errorf("line %d (carrier %d): %d recommendations, want %d", i, id, got, want)
		}
	}
	return nil
}

// countLines counts newline-terminated lines; a final line without its
// newline is a truncated stream and does not count.
func countLines(body []byte) int { return bytes.Count(body, []byte{'\n'}) }

// launchSeq is one connection's launch request sequence: Zipf draws over
// the hot carriers, pair-wise answers requested.
type launchSeq struct {
	w *world
	z *zipf
}

func newLaunchSeq(w *world, conn int) *launchSeq {
	return &launchSeq{w: w, z: newZipf(w.rng(streamConn+uint64(conn)), len(w.hot), zipfS)}
}

func (s *launchSeq) next() lte.CarrierID { return s.w.hot[s.z.next()] }

func launchBody(id lte.CarrierID) []byte {
	return []byte(`{"carrier":` + strconv.Itoa(int(id)) + `,"pairwise":true}`)
}

// sweepBatchIDs is the k-th batch of connection conn out of conns: batches
// interleave across connections and walk the seeded permutation of every
// carrier cyclically.
func sweepBatchIDs(w *world, conn, conns, k int) []lte.CarrierID {
	b := k*conns + conn
	ids := make([]lte.CarrierID, sweepBatch)
	for j := range ids {
		ids[j] = w.perm[(b*sweepBatch+j)%len(w.perm)]
	}
	return ids
}

func sweepBody(ids []lte.CarrierID) []byte {
	b := make([]byte, 0, 16*len(ids))
	b = append(b, '[')
	for j, id := range ids {
		if j > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"carrier":`...)
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, '}')
	}
	return append(b, ']')
}

// launchLoop drives closed-loop launch requests on one connection until
// the ledger stops.
func launchLoop(l *ledger, c *client, w *world, conn int) {
	seq := newLaunchSeq(w, conn)
	for i := 0; !l.stop.Load(); i++ {
		id := seq.next()
		o := op{kind: "recommend", conn: conn, idx: i, carriers: 1, due: time.Now()}
		err := c.do("POST", "/v1/recommend", "", launchBody(id))
		o.end = time.Now()
		o.bytes = c.buf.Len()
		if err == nil {
			err = checkSingle(c.buf.Bytes(), id, w.expectedRecs(id, true))
		}
		l.record(o, err)
	}
}

// sweepLoop drives closed-loop NDJSON batches on one connection until the
// ledger stops.
func sweepLoop(l *ledger, c *client, w *world, conn, conns int) {
	for k := 0; !l.stop.Load(); k++ {
		ids := sweepBatchIDs(w, conn, conns, k)
		o := op{kind: "recommend", conn: conn, idx: k, carriers: len(ids), due: time.Now()}
		err := c.do("POST", "/v1/recommend", "application/x-ndjson", sweepBody(ids))
		o.end = time.Now()
		o.bytes = c.buf.Len()
		if err == nil {
			err = checkNDJSON(c.buf.Bytes(), ids, w.expectedRecs(0, false))
		}
		l.record(o, err)
	}
}

// wireCarrier mirrors auricd's live-ingest carrier wire form.
type wireCarrier struct {
	ENodeB          int     `json:"enodeb"`
	Face            int     `json:"face"`
	FrequencyMHz    int     `json:"frequencyMHz"`
	Type            string  `json:"type"`
	Info            string  `json:"info,omitempty"`
	Morphology      string  `json:"morphology"`
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
	Terrain         string  `json:"terrain"`
	Lat             float64 `json:"lat"`
	Lon             float64 `json:"lon"`
}

type wireUpsert struct {
	Carrier wireCarrier        `json:"carrier"`
	Config  map[string]float64 `json:"config"`
}

// cloneUpsert is the ingest body of clone k: its donor's attributes and
// singular configuration, as a new carrier on the donor's eNodeB.
func cloneUpsert(w *world, k int) wireUpsert {
	d := &w.net.Carriers[w.donors[k%len(w.donors)]]
	u := wireUpsert{
		Carrier: wireCarrier{
			ENodeB: int(d.ENodeB), Face: d.Face, FrequencyMHz: d.FrequencyMHz,
			Type: d.Type.String(), Info: d.Info, Morphology: d.Morphology.String(),
			BandwidthMHz: d.BandwidthMHz, MIMOMode: d.MIMOMode, Hardware: d.Hardware,
			CellSizeMi: d.CellSizeMi, TAC: d.TAC, Market: d.Market, Vendor: d.Vendor,
			NeighborChan: d.NeighborChan, NeighborsOnENB: d.NeighborsOnENB,
			SoftwareVersion: d.SoftwareVersion, Terrain: d.Terrain.String(),
			Lat: d.Lat, Lon: d.Lon,
		},
		Config: make(map[string]float64),
	}
	for _, pi := range w.schema.Singular() {
		u.Config[w.schema.At(pi).Name] = w.cfg.Get(d.ID, pi)
	}
	return u
}

// mutation is one step of the churn schedule: the upsert of clone k, or
// the tombstone of clone k.
type mutation struct {
	upsert bool
	clone  int
}

// churnSchedule lists n mutations: upsert clone 0, then for every further
// clone its upsert followed by the tombstone of the clone before it, so one
// or two clones are live at any time.
func churnSchedule(n int) []mutation {
	s := make([]mutation, 0, n)
	s = append(s, mutation{upsert: true, clone: 0})
	for k := 1; len(s) < n; k++ {
		s = append(s, mutation{upsert: true, clone: k})
		if len(s) < n {
			s = append(s, mutation{upsert: false, clone: k - 1})
		}
	}
	return s
}

// churner applies the churn schedule, timing each ack from the mutation's
// send time. It checks that every acked upsert answers
// GET /v1/carriers/{id} until its tombstone is sent.
type churner struct {
	w     *world
	c     *client
	conn  int
	ids   map[int]int // clone -> acked carrier id
	next  int         // next schedule position
	sched []mutation
}

func newChurner(w *world, c *client, conn int) *churner {
	return &churner{w: w, c: c, conn: conn, ids: make(map[int]int), sched: churnSchedule(1 << 16)}
}

// run sends the next n mutations closed loop, each as soon as the one
// before it is acked, stopping early when the ledger stops.
func (ch *churner) run(l *ledger, n int) {
	for i := 0; i < n && !l.stop.Load(); i++ {
		ch.step(l)
	}
}

func (ch *churner) step(l *ledger) {
	m := ch.sched[ch.next]
	ch.next++
	o := op{kind: "ingest", conn: ch.conn, idx: ch.next - 1, due: time.Now()}
	if m.upsert {
		wire, _ := json.Marshal(cloneUpsert(ch.w, m.clone)) // plain data: cannot fail
		err := ch.c.do("POST", "/v1/carriers", "", wire)
		o.end = time.Now()
		id := -1
		if err == nil {
			id, err = ackedID(ch.c.buf.Bytes())
		}
		l.record(o, err)
		if err == nil {
			ch.ids[m.clone] = id
			ch.checkLive(l, id)
		}
		return
	}
	id, ok := ch.ids[m.clone]
	if !ok {
		return // its upsert failed; the failure is already booked
	}
	ch.checkLive(l, id)
	err := ch.c.do("DELETE", "/v1/carriers/"+strconv.Itoa(id), "", nil)
	o.end = time.Now()
	l.record(o, err)
	if err == nil {
		delete(ch.ids, m.clone)
	}
}

// checkLive books a GET /v1/carriers/{id} check of an acked upsert.
func (ch *churner) checkLive(l *ledger, id int) {
	o := op{kind: "check", conn: ch.conn, due: time.Now()}
	err := ch.c.do("GET", "/v1/carriers/"+strconv.Itoa(id), "", nil)
	o.end = time.Now()
	l.record(o, err)
}

// drain tombstones every clone still live, so the server ends where it
// started.
func (ch *churner) drain(l *ledger) {
	for ch.next < len(ch.sched) && len(ch.ids) > 0 && !l.died.Load() {
		if m := ch.sched[ch.next]; m.upsert {
			ch.next++
			continue
		}
		ch.step(l)
	}
}

// ackedID extracts the assigned id from a single-upsert ingest answer.
func ackedID(body []byte) (int, error) {
	var resp struct {
		Results []struct {
			ID    int    `json:"id"`
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return -1, fmt.Errorf("ingest answer: %w", err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Error != "" || resp.Results[0].ID < 0 {
		return -1, fmt.Errorf("ingest answer has no assigned id: %.200s", body)
	}
	return resp.Results[0].ID, nil
}
