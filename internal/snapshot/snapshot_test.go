package snapshot

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"auric/internal/lte"
	"auric/internal/netsim"
)

func TestRoundTripFile(t *testing.T) {
	w := netsim.Generate(netsim.Options{Seed: 17, Markets: 2, ENodeBsPerMarket: 10})
	path := filepath.Join(t.TempDir(), "net.json.gz")
	if err := Save(path, w.Net, w.Current); err != nil {
		t.Fatal(err)
	}
	net, cfg, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Carriers) != len(w.Net.Carriers) || len(net.ENodeBs) != len(w.Net.ENodeBs) {
		t.Fatal("topology size changed through round trip")
	}
	// Attributes survive.
	for i := range net.Carriers {
		if net.Carriers[i] != w.Net.Carriers[i] {
			t.Fatalf("carrier %d changed through round trip", i)
		}
	}
	// Singular values survive.
	for _, pi := range w.Schema.Singular() {
		for ci := range net.Carriers {
			if cfg.Get(lte.CarrierID(ci), pi) != w.Current.Get(lte.CarrierID(ci), pi) {
				t.Fatalf("singular value changed (carrier %d, param %d)", ci, pi)
			}
		}
	}
	// Pair-wise values survive.
	if cfg.NumEdges() != w.Current.NumEdges() {
		t.Fatalf("edge count %d != %d", cfg.NumEdges(), w.Current.NumEdges())
	}
	pi := w.Schema.PairWise()[3]
	for _, e := range w.Current.Edges()[:50] {
		want, _ := w.Current.GetPair(e.From, e.To, pi)
		got, ok := cfg.GetPair(e.From, e.To, pi)
		if !ok || got != want {
			t.Fatalf("pair value changed on %v", e)
		}
	}
	// Schema survives.
	if cfg.Schema().Len() != w.Schema.Len() {
		t.Fatal("schema size changed")
	}
	p, ok := cfg.Schema().ByName("hysA3Offset")
	if !ok || p.Step != 0.5 {
		t.Fatal("schema parameter lost")
	}
}

func TestReadRejectsBadInput(t *testing.T) {
	if _, _, err := Read(strings.NewReader("not json")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, _, err := Read(strings.NewReader(`{"format": 99}`)); err == nil {
		t.Error("unknown format accepted")
	}
	// Inconsistent singular row count.
	w := netsim.Generate(netsim.Options{Seed: 18, Markets: 1, ENodeBsPerMarket: 6})
	var buf bytes.Buffer
	if err := Write(&buf, w.Net, w.Current); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	// Truncate the singular matrix by replacing the first row with nothing
	// is brittle; instead corrupt the format marker only as a sanity path.
	if _, _, err := Read(strings.NewReader(s)); err != nil {
		t.Fatalf("clean snapshot rejected: %v", err)
	}
	// A relation from or to a carrier the snapshot does not have.
	for _, end := range []string{"from", "to"} {
		var doc map[string]any
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		doc["pairs"].([]any)[0].(map[string]any)[end] = len(w.Net.Carriers)
		bad, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := Read(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("relation %s an unknown carrier: err = %v", end, err)
		}
	}
}

// TestWriteDeterministic requires two Writes of one network and
// configuration to produce identical bytes: relations are written in
// (From, To) order, not map order.
func TestWriteDeterministic(t *testing.T) {
	w := netsim.Generate(netsim.Options{Seed: 17, Markets: 2, ENodeBsPerMarket: 10})
	var a, b bytes.Buffer
	if err := Write(&a, w.Net, w.Current); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, w.Net, w.Current); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two Writes of one snapshot differ (%d vs %d bytes)", a.Len(), b.Len())
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, _, err := Load(filepath.Join(t.TempDir(), "absent.gz")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestReadsFormatV1 pins backward compatibility: a format-1 snapshot
// (inline carrier strings, no columns) still loads, producing the same
// network and configuration as the current format.
func TestReadsFormatV1(t *testing.T) {
	w := netsim.Generate(netsim.Options{Seed: 23, Markets: 1, ENodeBsPerMarket: 8})

	// Assemble the v1 shape in-package: full carrier records and inline
	// eNodeB vendors, exactly what a pre-v2 Write produced.
	v1 := file{Format: 1, Markets: w.Net.Markets, Carriers: w.Net.Carriers}
	schema := w.Current.Schema()
	for i := 0; i < schema.Len(); i++ {
		p := schema.At(i)
		v1.Schema = append(v1.Schema, paramSpec{
			Name: p.Name, Kind: int(p.Kind), Min: p.Min, Max: p.Max, Step: p.Step,
		})
	}
	for i := range w.Net.ENodeBs {
		e := &w.Net.ENodeBs[i]
		v1.ENodeBs = append(v1.ENodeBs, enodeb{
			ID: e.ID, Market: e.Market, Vendor: e.Vendor,
			Lat: e.Lat, Lon: e.Lon, Carriers: e.Carriers,
		})
	}
	singularIdx := schema.Singular()
	v1.Singular = make([][]float64, len(w.Net.Carriers))
	for ci := range w.Net.Carriers {
		row := make([]float64, len(singularIdx))
		for j, pi := range singularIdx {
			row[j] = w.Current.Get(lte.CarrierID(ci), pi)
		}
		v1.Singular[ci] = row
	}
	pairIdx := schema.PairWise()
	for _, edge := range w.Current.Edges() {
		pv := pairValues{From: edge.From, To: edge.To, Values: make([]float64, len(pairIdx))}
		for j, pi := range pairIdx {
			v, _ := w.Current.GetPair(edge.From, edge.To, pi)
			pv.Values[j] = v
		}
		v1.Pairs = append(v1.Pairs, pv)
	}
	raw, err := json.Marshal(&v1)
	if err != nil {
		t.Fatal(err)
	}

	net, cfg, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("reading format-1 snapshot: %v", err)
	}
	for i := range net.Carriers {
		if net.Carriers[i] != w.Net.Carriers[i] {
			t.Fatalf("carrier %d changed through v1 load", i)
		}
	}
	for i := range net.ENodeBs {
		if net.ENodeBs[i].Vendor != w.Net.ENodeBs[i].Vendor {
			t.Fatalf("eNodeB %d vendor changed through v1 load", i)
		}
	}
	if cfg.Schema().Len() != schema.Len() || cfg.NumEdges() != w.Current.NumEdges() {
		t.Fatal("configuration changed through v1 load")
	}
}

// TestWriteProducesColumnarV2 pins the current on-disk shape: format 2,
// no inline carrier records, and one dictionary + code column per string
// attribute, with code columns as long as the inventory.
func TestWriteProducesColumnarV2(t *testing.T) {
	w := netsim.Generate(netsim.Options{Seed: 23, Markets: 1, ENodeBsPerMarket: 8})
	var buf bytes.Buffer
	if err := Write(&buf, w.Net, w.Current); err != nil {
		t.Fatal(err)
	}
	var out file
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Format != 2 {
		t.Fatalf("format = %d, want 2", out.Format)
	}
	if len(out.Carriers) != 0 {
		t.Errorf("v2 snapshot still carries %d inline carrier records", len(out.Carriers))
	}
	if len(out.CarrierCores) != len(w.Net.Carriers) {
		t.Fatalf("carrier cores = %d, want %d", len(out.CarrierCores), len(w.Net.Carriers))
	}
	for _, name := range []string{"info", "mimoMode", "hardware", "vendor", "softwareVersion"} {
		c, ok := out.Columns[name]
		if !ok {
			t.Fatalf("missing column %q", name)
		}
		if len(c.Codes) != len(w.Net.Carriers) {
			t.Errorf("column %q has %d codes, want %d", name, len(c.Codes), len(w.Net.Carriers))
		}
		if len(c.Dict) == 0 || len(c.Dict) >= len(w.Net.Carriers) {
			t.Errorf("column %q dictionary size %d is not deduplicated", name, len(c.Dict))
		}
	}
	if c, ok := out.Columns["enbVendor"]; !ok || len(c.Codes) != len(w.Net.ENodeBs) {
		t.Errorf("enbVendor column missing or wrong length")
	}
	for i := range out.ENodeBs {
		if out.ENodeBs[i].Vendor != "" {
			t.Errorf("v2 eNodeB %d still carries an inline vendor", i)
		}
	}

	// Unknown future formats are rejected.
	bad := bytes.Replace(buf.Bytes(), []byte(`"format":2`), []byte(`"format":9`), 1)
	if _, _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("format 9 accepted")
	}
}

// TestRoundTripTombstones pins the compacted-snapshot extension: tombstoned
// carrier ids and the folded journal sequence survive the round trip,
// LoadFull returns them, and the tombstone-unaware Load refuses the file
// instead of resurrecting retired carriers.
func TestRoundTripTombstones(t *testing.T) {
	w := netsim.Generate(netsim.Options{Seed: 17, Markets: 2, ENodeBsPerMarket: 6})
	path := filepath.Join(t.TempDir(), "net.json.gz")
	tombs := []lte.CarrierID{3, 11}
	if err := SaveFull(path, w.Net, w.Current, tombs, 42); err != nil {
		t.Fatal(err)
	}
	net, _, gotTombs, seq, err := LoadFull(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Carriers) != len(w.Net.Carriers) {
		t.Fatal("inventory size changed (tombstoned carriers must stay in the id space)")
	}
	if len(gotTombs) != 2 || gotTombs[0] != 3 || gotTombs[1] != 11 || seq != 42 {
		t.Fatalf("LoadFull tombstones %v seq %d, want [3 11] 42", gotTombs, seq)
	}
	if _, _, err := Load(path); err == nil || !strings.Contains(err.Error(), "tombstones") {
		t.Fatalf("Load of compacted snapshot: err = %v, want tombstone refusal", err)
	}
	// Out-of-range and duplicate tombstones are rejected as corrupt input.
	bad := filepath.Join(t.TempDir(), "bad.json.gz")
	if err := SaveFull(bad, w.Net, w.Current, []lte.CarrierID{lte.CarrierID(len(w.Net.Carriers))}, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := LoadFull(bad); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("out-of-range tombstone: err = %v", err)
	}
	if err := SaveFull(bad, w.Net, w.Current, []lte.CarrierID{1, 1}, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := LoadFull(bad); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate tombstone: err = %v", err)
	}
}
