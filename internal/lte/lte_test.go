package lte

import (
	"testing"

	"auric/internal/paramspec"
)

func TestStringers(t *testing.T) {
	if Urban.String() != "urban" || Rural.String() != "rural" {
		t.Error("Morphology.String mismatch")
	}
	if FirstNet.String() != "firstnet" || NBIoT.String() != "nb-iot" {
		t.Error("CarrierType.String mismatch")
	}
	if MountainFacing.String() != "mountain" || FreewayFacing.String() != "freeway" {
		t.Error("Terrain.String mismatch")
	}
}

func testCarrier() *Carrier {
	return &Carrier{
		ID: 7, ENodeB: 3, Face: 1,
		FrequencyMHz: 1900, Type: Standard, Info: "border",
		Morphology: Suburban, BandwidthMHz: 15, MIMOMode: "4x4",
		Hardware: "RRH2", CellSizeMi: 3, TAC: 8888, Market: 4,
		Vendor: "VendorB", NeighborChan: 555, NeighborsOnENB: 9,
		SoftwareVersion: "RAN20Q2", Terrain: TallBuildings,
	}
}

func TestAttributeVector(t *testing.T) {
	c := testCarrier()
	v := c.AttributeVector()
	if len(v) != int(NumAttributes) {
		t.Fatalf("attribute vector length %d, want %d", len(v), NumAttributes)
	}
	want := map[Attribute]string{
		AttrFrequency:       "1900",
		AttrCarrierType:     "standard",
		AttrCarrierInfo:     "border",
		AttrMorphology:      "suburban",
		AttrBandwidth:       "15",
		AttrMIMOMode:        "4x4",
		AttrHardware:        "RRH2",
		AttrCellSize:        "3",
		AttrTAC:             "8888",
		AttrMarket:          "4",
		AttrVendor:          "VendorB",
		AttrNeighborChannel: "555",
		AttrNeighborsOnENB:  "9",
		AttrSoftwareVersion: "RAN20Q2",
	}
	for a, w := range want {
		if v[a] != w {
			t.Errorf("attribute %v = %q, want %q", a, v[a], w)
		}
	}
}

func TestAttributeVectorExcludesTerrain(t *testing.T) {
	names := AttributeNames()
	for _, n := range names {
		if n == "terrain" || n == "terrainType" {
			t.Fatalf("terrain leaked into learner-visible attributes: %q", n)
		}
	}
	if len(names) != int(NumAttributes) {
		t.Fatalf("AttributeNames length %d, want %d", len(names), NumAttributes)
	}
}

func TestPairAttributeVector(t *testing.T) {
	a, b := testCarrier(), testCarrier()
	b.FrequencyMHz = 700
	v := PairAttributeVector(a, b)
	if len(v) != 2*int(NumAttributes) {
		t.Fatalf("pair vector length %d, want %d", len(v), 2*NumAttributes)
	}
	if v[AttrFrequency] != "1900" || v[int(NumAttributes)+int(AttrFrequency)] != "700" {
		t.Error("pair vector does not concatenate carrier then neighbor attributes")
	}
	names := PairAttributeNames()
	if len(names) != 2*int(NumAttributes) {
		t.Fatalf("pair names length %d", len(names))
	}
	if names[int(NumAttributes)] != "neighbor.carrierFrequency" {
		t.Errorf("neighbor attribute name = %q", names[int(NumAttributes)])
	}
}

func TestConfigSingularRoundTrip(t *testing.T) {
	schema := paramspec.Default()
	cfg := NewConfig(schema, 4)
	ip := schema.IndexOf("pMax")
	cfg.Set(2, ip, 30.1) // quantizes to grid: 30.0 (step 0.6)
	got := cfg.Get(2, ip)
	if !schema.At(ip).Valid(got) {
		t.Fatalf("stored value %v is off-grid", got)
	}
	if got != schema.At(ip).Quantize(30.1) {
		t.Errorf("Get = %v, want %v", got, schema.At(ip).Quantize(30.1))
	}
	// Untouched carriers hold the parameter minimum.
	if cfg.Get(0, ip) != schema.At(ip).Min {
		t.Errorf("default value = %v, want Min %v", cfg.Get(0, ip), schema.At(ip).Min)
	}
}

func TestConfigPairRoundTrip(t *testing.T) {
	schema := paramspec.Default()
	cfg := NewConfig(schema, 4)
	ip := schema.IndexOf("hysA3Offset")
	if _, ok := cfg.GetPair(0, 1, ip); ok {
		t.Fatal("GetPair reported an unconfigured edge as configured")
	}
	cfg.SetPair(0, 1, ip, 7.5)
	v, ok := cfg.GetPair(0, 1, ip)
	if !ok || v != 7.5 {
		t.Fatalf("GetPair = (%v, %v), want (7.5, true)", v, ok)
	}
	// Direction matters.
	if _, ok := cfg.GetPair(1, 0, ip); ok {
		t.Error("reverse edge should be unconfigured")
	}
	if n := len(cfg.Edges()); n != 1 {
		t.Errorf("len(Edges()) = %d, want 1", n)
	}
}

func TestConfigKindMismatchPanics(t *testing.T) {
	schema := paramspec.Default()
	cfg := NewConfig(schema, 1)
	defer func() {
		if recover() == nil {
			t.Error("Get on a pair-wise parameter did not panic")
		}
	}()
	cfg.Get(0, schema.IndexOf("hysA3Offset"))
}

func TestConfigClone(t *testing.T) {
	schema := paramspec.Default()
	cfg := NewConfig(schema, 2)
	is := schema.IndexOf("capacityThreshold")
	ipw := schema.IndexOf("a3Offset")
	cfg.Set(0, is, 70)
	cfg.SetPair(0, 1, ipw, 3)
	cl := cfg.Clone()
	cfg.Set(0, is, 10)
	cfg.SetPair(0, 1, ipw, -3)
	if cl.Get(0, is) != 70 {
		t.Error("clone shares singular storage with original")
	}
	if v, _ := cl.GetPair(0, 1, ipw); v != 3 {
		t.Error("clone shares pair-wise storage with original")
	}
}

// TestCarrierValues reads back every singular value of one carrier: all
// 39 singular parameters are stored, unwritten ones at their range
// minimum, and a written value comes back quantized to its grid.
func TestCarrierValues(t *testing.T) {
	schema := paramspec.Default()
	cfg := NewConfig(schema, 1)
	cfg.Set(0, schema.IndexOf("pMax"), 42)
	sing := schema.Singular()
	if len(sing) != 39 {
		t.Fatalf("%d singular parameters, want 39", len(sing))
	}
	for _, pi := range sing {
		want := schema.At(pi).Min
		if schema.At(pi).Name == "pMax" {
			want = schema.At(pi).Quantize(42)
		}
		if got := cfg.Get(0, pi); got != want {
			t.Errorf("%s = %v, want %v", schema.At(pi).Name, got, want)
		}
	}
}

func TestNetworkValidate(t *testing.T) {
	n := &Network{
		Markets: []Market{{ID: 0, Name: "M0", Timezone: "Eastern"}},
		ENodeBs: []ENodeB{{ID: 0, Market: 0, Carriers: []CarrierID{0}}},
		Carriers: []Carrier{
			{ID: 0, ENodeB: 0, Face: 0, Market: 0},
		},
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("valid network failed validation: %v", err)
	}
	n.Carriers[0].Face = 5
	if err := n.Validate(); err == nil {
		t.Error("invalid face not caught")
	}
	n.Carriers[0].Face = 0
	n.Carriers[0].ENodeB = 9
	if err := n.Validate(); err == nil {
		t.Error("dangling eNodeB reference not caught")
	}
}
