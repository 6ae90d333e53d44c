package geo

import (
	"slices"
	"testing"

	"auric/internal/lte"
)

// gridNetwork builds a tiny 2-market network: market 0 has a 3x3 grid of
// eNodeBs spaced 0.05 degrees apart (within the default X2 radius of their
// orthogonal neighbors), market 1 has one distant eNodeB. Each eNodeB has
// two carriers, at 700 and 1900 MHz.
func gridNetwork() *lte.Network {
	n := &lte.Network{
		Markets: []lte.Market{
			{ID: 0, Name: "M0", Timezone: "Eastern"},
			{ID: 1, Name: "M1", Timezone: "Pacific"},
		},
	}
	add := func(market int, lat, lon float64) {
		id := lte.ENodeBID(len(n.ENodeBs))
		e := lte.ENodeB{ID: id, Market: market, Lat: lat, Lon: lon}
		for _, f := range []int{700, 1900} {
			cid := lte.CarrierID(len(n.Carriers))
			n.Carriers = append(n.Carriers, lte.Carrier{
				ID: cid, ENodeB: id, Market: market, FrequencyMHz: f,
				Lat: lat, Lon: lon,
			})
			e.Carriers = append(e.Carriers, cid)
		}
		n.ENodeBs = append(n.ENodeBs, e)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			add(0, float64(i)*0.05, float64(j)*0.05)
		}
	}
	add(1, 100, 100)
	if err := n.Validate(); err != nil {
		panic(err)
	}
	return n
}

func TestENodeBAdjacency(t *testing.T) {
	n := gridNetwork()
	g := BuildX2(n, Options{})
	// Center eNodeB (index 4 at 0.05,0.05) should neighbor its 4
	// orthogonal grid neighbors (diagonals are at 0.0707 > 0.06 radius).
	nbs := g.ENodeBNeighbors(4)
	if len(nbs) != 4 {
		t.Fatalf("center eNodeB has %d X2 neighbors, want 4: %v", len(nbs), nbs)
	}
	want := map[lte.ENodeBID]bool{1: true, 3: true, 5: true, 7: true}
	for _, nb := range nbs {
		if !want[nb] {
			t.Errorf("unexpected neighbor %d", nb)
		}
	}
	// Corner eNodeB (index 0) has 2 orthogonal neighbors.
	if got := len(g.ENodeBNeighbors(0)); got != 2 {
		t.Errorf("corner eNodeB has %d neighbors, want 2", got)
	}
	// The isolated other-market eNodeB has none.
	if got := len(g.ENodeBNeighbors(9)); got != 0 {
		t.Errorf("isolated eNodeB has %d neighbors, want 0", got)
	}
}

func TestMarketBoundary(t *testing.T) {
	// Two eNodeBs within radius but in different markets must not relate.
	n := &lte.Network{
		Markets: []lte.Market{{ID: 0}, {ID: 1}},
		ENodeBs: []lte.ENodeB{
			{ID: 0, Market: 0, Lat: 0, Lon: 0},
			{ID: 1, Market: 1, Lat: 0.01, Lon: 0},
		},
	}
	g := BuildX2(n, Options{})
	if len(g.ENodeBNeighbors(0)) != 0 || len(g.ENodeBNeighbors(1)) != 0 {
		t.Error("X2 relation crossed a market boundary")
	}
}

func TestCarrierNeighbors(t *testing.T) {
	n := gridNetwork()
	g := BuildX2(n, Options{})
	// Carrier 8 is the 700 MHz carrier of the center eNodeB (eNodeB 4):
	// carriers are numbered 2 per eNodeB, so eNodeB 4 hosts carriers 8, 9.
	nbs := g.CarrierNeighbors(8)
	if len(nbs) == 0 {
		t.Fatal("center carrier has no neighbors")
	}
	sameENB, sameFreq := 0, 0
	for _, nb := range nbs {
		o := &n.Carriers[nb]
		if o.ENodeB == 4 {
			sameENB++
			if o.FrequencyMHz == 700 {
				t.Error("co-sited neighbor has the same frequency")
			}
		} else {
			sameFreq++
			if o.FrequencyMHz != 700 {
				t.Errorf("inter-eNodeB neighbor at %d MHz, want 700", o.FrequencyMHz)
			}
		}
	}
	if sameENB != 1 {
		t.Errorf("co-sited neighbors = %d, want 1 (the 1900 carrier)", sameENB)
	}
	if sameFreq != 4 {
		t.Errorf("inter-eNodeB same-frequency neighbors = %d, want 4", sameFreq)
	}
}

func TestMaxCarrierNeighborsCap(t *testing.T) {
	n := gridNetwork()
	g := BuildX2(n, Options{MaxCarrierNeighbors: 2})
	for i := range n.Carriers {
		if got := len(g.CarrierNeighbors(lte.CarrierID(i))); got > 2 {
			t.Fatalf("carrier %d has %d neighbors, cap 2", i, got)
		}
	}
}

func TestCarriersWithinHops(t *testing.T) {
	n := gridNetwork()
	g := BuildX2(n, Options{})
	// Hop 0: only the co-sited carrier.
	h0 := g.CarriersWithinHops(n, 8, 0)
	if len(h0) != 1 || h0[0] != 9 {
		t.Fatalf("hops=0 scope = %v, want [9]", h0)
	}
	// Hop 1: own eNodeB + 4 orthogonal neighbors = 5 eNodeBs x2 carriers -1.
	h1 := g.CarriersWithinHops(n, 8, 1)
	if len(h1) != 9 {
		t.Fatalf("hops=1 scope has %d carriers, want 9: %v", len(h1), h1)
	}
	// Hop 2 covers all 9 grid eNodeBs (center reaches all within 2 hops).
	h2 := g.CarriersWithinHops(n, 8, 2)
	if len(h2) != 17 {
		t.Fatalf("hops=2 scope has %d carriers, want 17", len(h2))
	}
	// The carrier itself is never in scope.
	for _, c := range h2 {
		if c == 8 {
			t.Fatal("carrier appears in its own scope")
		}
	}
	// The other market is unreachable at any hop count.
	for _, c := range g.CarriersWithinHops(n, 8, 10) {
		if n.Carriers[c].Market != 0 {
			t.Fatal("scope leaked across markets")
		}
	}
}

func TestGraphSizes(t *testing.T) {
	n := gridNetwork()
	g := BuildX2(n, Options{})
	if g.NumENodeBs() != len(n.ENodeBs) || g.NumCarriers() != len(n.Carriers) {
		t.Error("graph sizes disagree with network")
	}
}

func TestX2PropertiesOnGeneratedWorld(t *testing.T) {
	// Structural invariants over a realistic generated topology.
	n := gridNetwork()
	g := BuildX2(n, Options{})
	for i := range n.ENodeBs {
		id := lte.ENodeBID(i)
		for _, nb := range g.ENodeBNeighbors(id) {
			if nb == id {
				t.Fatal("eNodeB is its own X2 neighbor")
			}
			if n.ENodeBs[nb].Market != n.ENodeBs[id].Market {
				t.Fatal("X2 relation crosses markets")
			}
			// Symmetry: within-radius relations are mutual unless the
			// per-eNodeB cap truncated one side; with a 3x3 grid the cap
			// never binds.
			mutual := false
			for _, back := range g.ENodeBNeighbors(nb) {
				if back == id {
					mutual = true
				}
			}
			if !mutual {
				t.Fatalf("asymmetric X2 relation %d -> %d", id, nb)
			}
		}
	}
	for i := range n.Carriers {
		id := lte.CarrierID(i)
		for _, nb := range g.CarrierNeighbors(id) {
			if nb == id {
				t.Fatal("carrier is its own neighbor")
			}
			o := &n.Carriers[nb]
			c := &n.Carriers[id]
			sameENB := o.ENodeB == c.ENodeB
			if sameENB && o.FrequencyMHz == c.FrequencyMHz {
				t.Fatal("co-sited same-frequency neighbor")
			}
			if !sameENB && o.FrequencyMHz != c.FrequencyMHz {
				t.Fatal("inter-eNodeB neighbor on a different frequency")
			}
		}
	}
}

func TestCarriersNearENodeBMatchesCarrierScope(t *testing.T) {
	n := gridNetwork()
	g := BuildX2(n, Options{})
	// For an existing carrier, scoping by its eNodeB and excluding itself
	// must equal CarriersWithinHops.
	byCarrier := g.CarriersWithinHops(n, 8, 1)
	byENodeB := g.CarriersNearENodeB(n, n.Carriers[8].ENodeB, 1)
	filtered := byENodeB[:0:0]
	for _, c := range byENodeB {
		if c != 8 {
			filtered = append(filtered, c)
		}
	}
	if len(filtered) != len(byCarrier) {
		t.Fatalf("scopes differ: %v vs %v", filtered, byCarrier)
	}
	for i := range filtered {
		if filtered[i] != byCarrier[i] {
			t.Fatalf("scopes differ at %d", i)
		}
	}
}

// TestRebuildMarketsMatchesBuildX2 changes market 0 of the grid — a carrier
// leaves its eNodeB, one moves, one is added — and requires the rebuilt
// graph to equal a full BuildX2 under the options the old graph was built
// with, to share market 1's lists, and to leave the old graph's market
// index alone.
func TestRebuildMarketsMatchesBuildX2(t *testing.T) {
	n := gridNetwork()
	opts := Options{MaxCarrierNeighbors: 3}
	g := BuildX2(n, opts)

	n2 := &lte.Network{Markets: n.Markets, ENodeBs: slices.Clone(n.ENodeBs), Carriers: slices.Clone(n.Carriers)}
	for i := range n2.ENodeBs {
		n2.ENodeBs[i].Carriers = slices.Clone(n2.ENodeBs[i].Carriers)
	}
	n2.ENodeBs[0].Carriers = slices.DeleteFunc(n2.ENodeBs[0].Carriers, func(id lte.CarrierID) bool { return id == 0 })
	// Moving carrier 2 off eNodeB 1 also changes the list of carrier 0,
	// which no eNodeB hosts any more.
	n2.ENodeBs[1].Carriers = slices.DeleteFunc(n2.ENodeBs[1].Carriers, func(id lte.CarrierID) bool { return id == 2 })
	n2.Carriers[2].ENodeB = 4
	n2.ENodeBs[4].Carriers = append(n2.ENodeBs[4].Carriers, 2)
	added := lte.Carrier{ID: 20, ENodeB: 4, Market: 0, FrequencyMHz: 700}
	n2.Carriers = append(n2.Carriers, added)
	n2.ENodeBs[4].Carriers = append(n2.ENodeBs[4].Carriers, 20)

	// Market 0 is not listed: a new carrier's market counts as listed.
	g2 := g.RebuildMarkets(n2, nil)
	want := BuildX2(n2, opts)
	for i := 0; i < want.NumCarriers(); i++ {
		id := lte.CarrierID(i)
		if got, w := g2.CarrierNeighbors(id), want.CarrierNeighbors(id); !slices.Equal(got, w) {
			t.Errorf("carrier %d neighbors %v, BuildX2 %v", id, got, w)
		}
	}
	for i := 0; i < want.NumENodeBs(); i++ {
		id := lte.ENodeBID(i)
		if got, w := g2.ENodeBNeighbors(id), want.ENodeBNeighbors(id); !slices.Equal(got, w) {
			t.Errorf("eNodeB %d neighbors %v, BuildX2 %v", id, got, w)
		}
	}
	for _, id := range g.MarketCarriers(1) {
		if &g2.CarrierNeighbors(id)[0] != &g.CarrierNeighbors(id)[0] {
			t.Errorf("carrier %d of the untouched market got a new neighbor list", id)
		}
	}

	// A second rebuild from the old graph must not write into the market
	// index of the first, or of the old graph.
	n3 := &lte.Network{Markets: n.Markets, ENodeBs: slices.Clone(n.ENodeBs), Carriers: slices.Clone(n.Carriers)}
	n3.Carriers = append(n3.Carriers,
		lte.Carrier{ID: 20, ENodeB: 9, Market: 1, FrequencyMHz: 700},
		lte.Carrier{ID: 21, ENodeB: 8, Market: 0, FrequencyMHz: 700})
	n3.ENodeBs[9].Carriers = append(slices.Clone(n3.ENodeBs[9].Carriers), 20)
	n3.ENodeBs[8].Carriers = append(slices.Clone(n3.ENodeBs[8].Carriers), 21)
	g3 := g.RebuildMarkets(n3, nil)
	market0 := []lte.CarrierID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}
	for _, c := range []struct {
		name string
		g    *Graph
		want [2][]lte.CarrierID
	}{
		{"old", g, [2][]lte.CarrierID{market0, {18, 19}}},
		{"first rebuild", g2, [2][]lte.CarrierID{append(slices.Clone(market0), 20), {18, 19}}},
		{"second rebuild", g3, [2][]lte.CarrierID{append(slices.Clone(market0), 21), {18, 19, 20}}},
	} {
		for m, w := range c.want {
			if got := c.g.MarketCarriers(m); !slices.Equal(got, w) {
				t.Errorf("%s graph: MarketCarriers(%d) = %v, want %v", c.name, m, got, w)
			}
		}
	}
}
