// Package snapshot persists network inventories and configuration
// snapshots as gzipped JSON — the interchange a real deployment would use
// between the inventory system, Auric, and the launch automation. The
// ground-truth oracle of generated worlds is deliberately not part of the
// format: a snapshot carries exactly what an operator has (topology,
// attributes, current configuration), nothing the generator knows.
//
// The full form (SaveFull/LoadFull and the Write/Read twins) extends the
// format for the live-ingest path: it carries the tombstoned carrier ids
// and the delta-journal fence — the last journal sequence number folded
// in — which makes it the target of auricd's journal compaction and the
// baseline its startup replay continues from. Save/Load refuse
// tombstone-carrying snapshots so pre-ingest consumers cannot silently
// resurrect deleted carriers.
package snapshot

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"auric/internal/lte"
	"auric/internal/obs"
	"auric/internal/paramspec"
)

// fileFormat is the version Write produces. Format 2 stores the carrier
// and eNodeB string attributes as per-column dictionaries plus columnar
// codes instead of repeating one string per carrier — the on-disk twin of
// the dataset layer's interned columns — which shrinks the file and makes
// load-time interning exact (every carrier shares the dictionary's
// backing string). Read accepts formats 1 and 2.
const fileFormat = 2

type file struct {
	Format  int          `json:"format"`
	Schema  []paramSpec  `json:"schema"`
	Markets []lte.Market `json:"markets"`
	ENodeBs []enodeb     `json:"enodebs"`
	// Carriers holds full carrier records with inline strings (format 1).
	Carriers []lte.Carrier `json:"carriers,omitempty"`
	// CarrierCores holds the numeric carrier fields (format 2+); the
	// string attributes live in Columns.
	CarrierCores []carrierCore `json:"carrierCores,omitempty"`
	// Columns holds the interned string columns of the inventory
	// (format 2+): the carrier fields info, mimoMode, hardware, vendor
	// and softwareVersion, and the eNodeB field enbVendor.
	Columns map[string]column `json:"columns,omitempty"`
	// Singular holds per-carrier values in schema singular order.
	Singular [][]float64 `json:"singular"`
	// Pairs holds configured relations.
	Pairs []pairValues `json:"pairs"`
	// Tombstones lists carriers that are present in the inventory (ids are
	// append-only) but retired by live ingest. A compacted snapshot carries
	// them so a restart can reconstruct the serving state exactly: load,
	// then tombstone. Optional; plain auricgen snapshots have none.
	Tombstones []lte.CarrierID `json:"tombstones,omitempty"`
	// JournalSeq is the last delta-journal sequence number folded into this
	// snapshot (0 when none). Startup replays only journal entries with a
	// higher sequence, which makes compaction crash-safe: a crash between
	// the snapshot write and the journal reset would otherwise re-apply
	// folded deltas on restart.
	JournalSeq int64 `json:"journalSeq,omitempty"`
}

// column is one interned string column: the dictionary of distinct values
// and one dictionary index per row.
type column struct {
	Dict  []string `json:"dict"`
	Codes []int32  `json:"codes"`
}

// carrierCore is a carrier without its string attributes (format 2+).
type carrierCore struct {
	ID             lte.CarrierID   `json:"id"`
	ENodeB         lte.ENodeBID    `json:"enodeb"`
	Face           int             `json:"face"`
	FrequencyMHz   int             `json:"frequencyMHz"`
	Type           lte.CarrierType `json:"type"`
	Morphology     lte.Morphology  `json:"morphology"`
	BandwidthMHz   int             `json:"bandwidthMHz"`
	CellSizeMi     int             `json:"cellSizeMi"`
	TAC            int             `json:"tac"`
	Market         int             `json:"market"`
	NeighborChan   int             `json:"neighborChan"`
	NeighborsOnENB int             `json:"neighborsOnENB"`
	Terrain        lte.Terrain     `json:"terrain"`
	Lat            float64         `json:"lat"`
	Lon            float64         `json:"lon"`
}

// colWriter interns one string column while the snapshot is assembled.
type colWriter struct {
	dict  []string
	codes []int32
	index map[string]int32
}

func newColWriter(n int) *colWriter {
	return &colWriter{codes: make([]int32, 0, n), index: make(map[string]int32, 8)}
}

func (c *colWriter) add(s string) {
	code, ok := c.index[s]
	if !ok {
		code = int32(len(c.dict))
		c.dict = append(c.dict, s)
		c.index[s] = code
	}
	c.codes = append(c.codes, code)
}

func (c *colWriter) column() column { return column{Dict: c.dict, Codes: c.codes} }

// decode resolves a column back to one string per row; every row shares
// the dictionary's backing string, so the loaded inventory arrives
// interned.
func (c column) decode(n int) ([]string, error) {
	if len(c.Codes) != n {
		return nil, fmt.Errorf("snapshot: column has %d codes, want %d", len(c.Codes), n)
	}
	out := make([]string, n)
	for i, code := range c.Codes {
		if code < 0 || int(code) >= len(c.Dict) {
			return nil, fmt.Errorf("snapshot: column code %d outside dictionary of %d", code, len(c.Dict))
		}
		out[i] = c.Dict[code]
	}
	return out, nil
}

type paramSpec struct {
	Name string  `json:"name"`
	Kind int     `json:"kind"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Step float64 `json:"step"`
}

type enodeb struct {
	ID     lte.ENodeBID `json:"id"`
	Market int          `json:"market"`
	// Vendor is inline in format 1; format 2+ stores it in the enbVendor
	// column instead.
	Vendor   string          `json:"vendor,omitempty"`
	Lat      float64         `json:"lat"`
	Lon      float64         `json:"lon"`
	Carriers []lte.CarrierID `json:"carriers"`
}

type pairValues struct {
	From lte.CarrierID `json:"from"`
	To   lte.CarrierID `json:"to"`
	// Values in schema pair-wise order.
	Values []float64 `json:"values"`
}

// Save writes the network and configuration to path as gzipped JSON.
func Save(path string, net *lte.Network, cfg *lte.Config) error {
	return SaveFull(path, net, cfg, nil, 0)
}

// SaveFull writes a compacted snapshot: the full inventory plus the
// tombstoned carrier ids and the last journal sequence number it folds in.
// The file is written to a temporary sibling and renamed into place, so a
// crash mid-write never leaves a torn snapshot where a good one stood.
func SaveFull(path string, net *lte.Network, cfg *lte.Config, tombstones []lte.CarrierID, journalSeq int64) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	defer os.Remove(tmp)
	defer f.Close()
	zw := gzip.NewWriter(f)
	if err := WriteFull(zw, net, cfg, tombstones, journalSeq); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// Write streams the snapshot to w (uncompressed JSON) in the current
// format: numeric carrier cores plus one interned dictionary + code
// column per string attribute.
func Write(w io.Writer, net *lte.Network, cfg *lte.Config) error {
	return WriteFull(w, net, cfg, nil, 0)
}

// WriteFull is Write plus the live-ingest state a compacted snapshot
// carries: tombstoned carrier ids and the journal sequence folded in.
func WriteFull(w io.Writer, net *lte.Network, cfg *lte.Config, tombstones []lte.CarrierID, journalSeq int64) error {
	schema := cfg.Schema()
	out := file{Format: fileFormat, Markets: net.Markets, Tombstones: tombstones, JournalSeq: journalSeq}
	n := len(net.Carriers)
	cols := map[string]*colWriter{
		"info": newColWriter(n), "mimoMode": newColWriter(n), "hardware": newColWriter(n),
		"vendor": newColWriter(n), "softwareVersion": newColWriter(n),
		"enbVendor": newColWriter(len(net.ENodeBs)),
	}
	out.CarrierCores = make([]carrierCore, n)
	for i := range net.Carriers {
		c := &net.Carriers[i]
		out.CarrierCores[i] = carrierCore{
			ID: c.ID, ENodeB: c.ENodeB, Face: c.Face,
			FrequencyMHz: c.FrequencyMHz, Type: c.Type, Morphology: c.Morphology,
			BandwidthMHz: c.BandwidthMHz, CellSizeMi: c.CellSizeMi, TAC: c.TAC,
			Market: c.Market, NeighborChan: c.NeighborChan,
			NeighborsOnENB: c.NeighborsOnENB, Terrain: c.Terrain,
			Lat: c.Lat, Lon: c.Lon,
		}
		cols["info"].add(c.Info)
		cols["mimoMode"].add(c.MIMOMode)
		cols["hardware"].add(c.Hardware)
		cols["vendor"].add(c.Vendor)
		cols["softwareVersion"].add(c.SoftwareVersion)
	}
	for i := range net.ENodeBs {
		cols["enbVendor"].add(net.ENodeBs[i].Vendor)
	}
	out.Columns = make(map[string]column, len(cols))
	for name, cw := range cols {
		out.Columns[name] = cw.column()
	}
	for i := 0; i < schema.Len(); i++ {
		p := schema.At(i)
		out.Schema = append(out.Schema, paramSpec{
			Name: p.Name, Kind: int(p.Kind), Min: p.Min, Max: p.Max, Step: p.Step,
		})
	}
	for i := range net.ENodeBs {
		e := &net.ENodeBs[i]
		out.ENodeBs = append(out.ENodeBs, enodeb{
			ID: e.ID, Market: e.Market,
			Lat: e.Lat, Lon: e.Lon, Carriers: e.Carriers,
		})
	}
	singularIdx := schema.Singular()
	out.Singular = make([][]float64, len(net.Carriers))
	for ci := range net.Carriers {
		row := make([]float64, len(singularIdx))
		for j, pi := range singularIdx {
			row[j] = cfg.Get(lte.CarrierID(ci), pi)
		}
		out.Singular[ci] = row
	}
	pairIdx := schema.PairWise()
	for _, edge := range cfg.Edges() {
		pv := pairValues{From: edge.From, To: edge.To, Values: make([]float64, len(pairIdx))}
		for j, pi := range pairIdx {
			v, _ := cfg.GetPair(edge.From, edge.To, pi)
			pv.Values[j] = v
		}
		out.Pairs = append(out.Pairs, pv)
	}
	if err := json.NewEncoder(w).Encode(&out); err != nil {
		return fmt.Errorf("snapshot: encoding: %w", err)
	}
	return nil
}

// loadSeconds times full snapshot loads (open + gunzip + decode +
// rebuild), the startup stage of a snapshot-served auricd.
var loadSeconds = obs.Default().Histogram("auric_snapshot_load_seconds",
	"Seconds loading a network snapshot from disk (snapshot.Load).", obs.DefBuckets)

// Load reads a snapshot written by Save. It refuses a compacted snapshot
// carrying tombstones: loading one through the tombstone-unaware path would
// silently resurrect retired carriers — use LoadFull.
func Load(path string) (*lte.Network, *lte.Config, error) {
	net, cfg, tombstones, _, err := LoadFull(path)
	if err != nil {
		return nil, nil, err
	}
	if len(tombstones) > 0 {
		return nil, nil, fmt.Errorf("snapshot: %s carries %d tombstones (a compacted live-ingest snapshot); use LoadFull", path, len(tombstones))
	}
	return net, cfg, nil
}

// LoadFull reads a snapshot written by Save or SaveFull, returning the
// tombstoned carrier ids and the journal sequence the snapshot folds in
// (both zero for plain snapshots).
func LoadFull(path string) (*lte.Network, *lte.Config, []lte.CarrierID, int64, error) {
	defer obs.Since(loadSeconds, time.Now())
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, 0, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, nil, nil, 0, fmt.Errorf("snapshot: %w", err)
	}
	defer zr.Close()
	return ReadFull(zr)
}

// Read parses an uncompressed JSON snapshot in format 1 (inline carrier
// strings) or format 2 (dictionary + code columns), dropping live-ingest
// state (see Load for why callers that might meet compacted snapshots
// should use ReadFull instead).
func Read(r io.Reader) (*lte.Network, *lte.Config, error) {
	net, cfg, tombstones, _, err := ReadFull(r)
	if err != nil {
		return nil, nil, err
	}
	if len(tombstones) > 0 {
		return nil, nil, fmt.Errorf("snapshot: carries %d tombstones (a compacted live-ingest snapshot); use ReadFull", len(tombstones))
	}
	return net, cfg, nil
}

// ReadFull is Read plus the live-ingest state of compacted snapshots.
func ReadFull(r io.Reader) (*lte.Network, *lte.Config, []lte.CarrierID, int64, error) {
	var in file
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, nil, nil, 0, fmt.Errorf("snapshot: decoding: %w", err)
	}
	if in.Format < 1 || in.Format > fileFormat {
		return nil, nil, nil, 0, fmt.Errorf("snapshot: unsupported format %d", in.Format)
	}
	params := make([]paramspec.Param, len(in.Schema))
	for i, p := range in.Schema {
		params[i] = paramspec.Param{
			Name: p.Name, Kind: paramspec.Kind(p.Kind),
			Min: p.Min, Max: p.Max, Step: p.Step,
		}
	}
	// A snapshot is untrusted input: validate instead of letting
	// NewSchema panic on a corrupt or hostile schema block.
	if err := paramspec.Validate(params); err != nil {
		return nil, nil, nil, 0, fmt.Errorf("snapshot: %w", err)
	}
	schema := paramspec.NewSchema(params)
	carriers, enbVendor, err := readCarriers(&in)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	net := &lte.Network{Markets: in.Markets, Carriers: carriers}
	for i, e := range in.ENodeBs {
		vendor := e.Vendor
		if enbVendor != nil {
			vendor = enbVendor[i]
		}
		net.ENodeBs = append(net.ENodeBs, lte.ENodeB{
			ID: e.ID, Market: e.Market, Vendor: vendor,
			Lat: e.Lat, Lon: e.Lon, Carriers: e.Carriers,
		})
	}
	if err := net.Validate(); err != nil {
		return nil, nil, nil, 0, fmt.Errorf("snapshot: %w", err)
	}
	if len(in.Singular) != len(net.Carriers) {
		return nil, nil, nil, 0, fmt.Errorf("snapshot: %d singular rows for %d carriers",
			len(in.Singular), len(net.Carriers))
	}
	cfg := lte.NewConfig(schema, len(net.Carriers))
	singularIdx := schema.Singular()
	for ci, row := range in.Singular {
		if len(row) != len(singularIdx) {
			return nil, nil, nil, 0, fmt.Errorf("snapshot: carrier %d has %d singular values, want %d",
				ci, len(row), len(singularIdx))
		}
		for j, pi := range singularIdx {
			cfg.Set(lte.CarrierID(ci), pi, row[j])
		}
	}
	pairIdx := schema.PairWise()
	for _, pv := range in.Pairs {
		if pv.From < 0 || int(pv.From) >= len(net.Carriers) || pv.To < 0 || int(pv.To) >= len(net.Carriers) {
			return nil, nil, nil, 0, fmt.Errorf("snapshot: relation %d->%d outside the %d carriers",
				pv.From, pv.To, len(net.Carriers))
		}
		if len(pv.Values) != len(pairIdx) {
			return nil, nil, nil, 0, fmt.Errorf("snapshot: relation %d->%d has %d values, want %d",
				pv.From, pv.To, len(pv.Values), len(pairIdx))
		}
		for j, pi := range pairIdx {
			cfg.SetPair(pv.From, pv.To, pi, pv.Values[j])
		}
	}
	seen := make(map[lte.CarrierID]bool, len(in.Tombstones))
	for _, id := range in.Tombstones {
		if id < 0 || int(id) >= len(net.Carriers) {
			return nil, nil, nil, 0, fmt.Errorf("snapshot: tombstone %d outside the %d carriers", id, len(net.Carriers))
		}
		if seen[id] {
			return nil, nil, nil, 0, fmt.Errorf("snapshot: carrier %d tombstoned twice", id)
		}
		seen[id] = true
	}
	return net, cfg, in.Tombstones, in.JournalSeq, nil
}

// readCarriers rebuilds the carrier inventory of either format. Format 2
// resolves the string columns through their dictionaries (arriving
// interned for free); format 1 carriers decode with one fresh string per
// field, so the attribute-bearing fields are interned here — the sharing
// a generated world (and the dataset layer's column dictionaries
// downstream) start from. The second result is the per-eNodeB vendor
// column (nil for format 1, whose eNodeB records carry vendors inline).
func readCarriers(in *file) ([]lte.Carrier, []string, error) {
	if in.Format == 1 {
		intern := make(map[string]string)
		share := func(s string) string {
			if v, ok := intern[s]; ok {
				return v
			}
			intern[s] = s
			return s
		}
		for i := range in.Carriers {
			c := &in.Carriers[i]
			c.Info = share(c.Info)
			c.MIMOMode = share(c.MIMOMode)
			c.Hardware = share(c.Hardware)
			c.Vendor = share(c.Vendor)
			c.SoftwareVersion = share(c.SoftwareVersion)
		}
		for i := range in.ENodeBs {
			in.ENodeBs[i].Vendor = share(in.ENodeBs[i].Vendor)
		}
		return in.Carriers, nil, nil
	}
	n := len(in.CarrierCores)
	col := func(name string, rows int) ([]string, error) {
		c, ok := in.Columns[name]
		if !ok {
			return nil, fmt.Errorf("snapshot: missing column %q", name)
		}
		vals, err := c.decode(rows)
		if err != nil {
			return nil, fmt.Errorf("snapshot: column %q: %w", name, err)
		}
		return vals, nil
	}
	info, err := col("info", n)
	if err != nil {
		return nil, nil, err
	}
	mimo, err := col("mimoMode", n)
	if err != nil {
		return nil, nil, err
	}
	hw, err := col("hardware", n)
	if err != nil {
		return nil, nil, err
	}
	vendor, err := col("vendor", n)
	if err != nil {
		return nil, nil, err
	}
	sw, err := col("softwareVersion", n)
	if err != nil {
		return nil, nil, err
	}
	enbVendor, err := col("enbVendor", len(in.ENodeBs))
	if err != nil {
		return nil, nil, err
	}
	carriers := make([]lte.Carrier, n)
	for i, cc := range in.CarrierCores {
		carriers[i] = lte.Carrier{
			ID: cc.ID, ENodeB: cc.ENodeB, Face: cc.Face,
			FrequencyMHz: cc.FrequencyMHz, Type: cc.Type, Morphology: cc.Morphology,
			BandwidthMHz: cc.BandwidthMHz, CellSizeMi: cc.CellSizeMi, TAC: cc.TAC,
			Market: cc.Market, NeighborChan: cc.NeighborChan,
			NeighborsOnENB: cc.NeighborsOnENB, Terrain: cc.Terrain,
			Lat: cc.Lat, Lon: cc.Lon,
			Info: info[i], MIMOMode: mimo[i], Hardware: hw[i],
			Vendor: vendor[i], SoftwareVersion: sw[i],
		}
	}
	return carriers, enbVendor, nil
}
