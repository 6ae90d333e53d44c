// Package geo builds the X2 neighbor-relation graph that Auric uses as its
// notion of geographical proximity (Sec 3.3: "we use the X2 LTE neighbor
// relations to capture geographically nearby neighbors for the carriers").
//
// X2 relations exist between eNodeBs; carrier-level neighbor relations are
// derived from them: a carrier's neighbors are the same-frequency carriers
// on X2-adjacent eNodeBs (inter-eNodeB, intra-frequency handover targets)
// plus the other-frequency carriers co-sited on its own eNodeB
// (inter-frequency layer-management targets).
package geo

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"auric/internal/lte"
)

// Options controls X2 graph construction.
type Options struct {
	// RadiusDeg is the maximum distance (in the synthetic degree plane)
	// between two eNodeBs for an X2 relation to exist. Zero means the
	// default of 0.06.
	RadiusDeg float64
	// MaxENodeBNeighbors caps the number of X2 relations per eNodeB,
	// keeping the nearest ones. Zero means the default of 8.
	MaxENodeBNeighbors int
	// MaxCarrierNeighbors caps the number of neighbor carriers per
	// carrier. Zero means the default of 10.
	MaxCarrierNeighbors int
}

func (o Options) withDefaults() Options {
	if o.RadiusDeg == 0 {
		o.RadiusDeg = 0.06
	}
	if o.MaxENodeBNeighbors == 0 {
		o.MaxENodeBNeighbors = 8
	}
	if o.MaxCarrierNeighbors == 0 {
		o.MaxCarrierNeighbors = 10
	}
	return o
}

// Graph is an X2 neighbor-relation graph over a network. Build one with
// BuildX2; a built graph is logically immutable and safe for concurrent use
// (the neighborhood memo below is internally synchronized).
type Graph struct {
	opts    Options // with defaults applied
	enb     [][]lte.ENodeBID
	carrier [][]lte.CarrierID
	// market lists every carrier of each market in ascending id order,
	// whether or not an eNodeB still hosts it. Each list is clipped so that
	// a rebuild appending to it never writes into a shared array.
	market [][]lte.CarrierID

	// hoods memoizes the sorted carrier list per (eNodeB, hops) BFS — the
	// hot query of the local learner, issued once per (carrier, parameter)
	// by serving and evaluation. The list depends only on the start eNodeB
	// and radius, so per-carrier exclusion filters a cached copy.
	hoodMu sync.RWMutex
	hoods  map[hoodKey][]lte.CarrierID
}

type hoodKey struct {
	enb  lte.ENodeBID
	hops int
}

// BuildX2 derives the X2 graph of n from eNodeB positions. eNodeBs within
// opts.RadiusDeg of each other and in the same market are X2-adjacent
// (subject to the per-eNodeB cap, nearest first).
func BuildX2(n *lte.Network, opts Options) *Graph {
	g := &Graph{
		opts:    opts.withDefaults(),
		enb:     make([][]lte.ENodeBID, len(n.ENodeBs)),
		carrier: make([][]lte.CarrierID, len(n.Carriers)),
	}
	g.buildENodeBAdjacency(n)
	g.indexMarkets(n, 0)
	for i := range n.Carriers {
		g.carrier[i] = g.carrierNeighbors(n, lte.CarrierID(i))
	}
	return g
}

// RebuildMarkets returns the X2 graph of n, a network that differs from the
// one g was built over only in the carriers of the listed markets: carriers
// there may be added, replaced, or moved between eNodeBs of their market,
// while every eNodeB keeps its id, position and market and every carrier
// its market. Because X2 is intra-market, the result shares g's eNodeB
// adjacency and the neighbor lists of every other market's carriers, and
// recomputes only the lists of the listed markets' carriers — the same
// lists BuildX2 derives with g's options. The market of every carrier added
// since g counts as listed.
func (g *Graph) RebuildMarkets(n *lte.Network, markets []int) *Graph {
	if len(n.ENodeBs) != len(g.enb) || len(n.Carriers) < len(g.carrier) {
		panic(fmt.Sprintf("geo: RebuildMarkets over %d eNodeBs and %d carriers, graph has %d and %d",
			len(n.ENodeBs), len(n.Carriers), len(g.enb), len(g.carrier)))
	}
	out := &Graph{
		opts:    g.opts,
		enb:     g.enb,
		carrier: make([][]lte.CarrierID, len(n.Carriers)),
		market:  slices.Clone(g.market),
	}
	copy(out.carrier, g.carrier)
	out.indexMarkets(n, len(g.carrier))
	for i := len(g.carrier); i < len(n.Carriers); i++ {
		if m := n.Carriers[i].Market; !slices.Contains(markets, m) {
			markets = append(markets[:len(markets):len(markets)], m)
		}
	}
	for _, m := range markets {
		for _, id := range out.MarketCarriers(m) {
			out.carrier[id] = out.carrierNeighbors(n, id)
		}
	}
	return out
}

// indexMarkets appends carriers from onward to their markets' lists.
func (g *Graph) indexMarkets(n *lte.Network, from int) {
	for i := from; i < len(n.Carriers); i++ {
		m := n.Carriers[i].Market
		for m >= len(g.market) {
			g.market = append(g.market, nil)
		}
		g.market[m] = append(g.market[m], lte.CarrierID(i))
	}
	for m := range g.market {
		g.market[m] = slices.Clip(g.market[m])
	}
}

// MarketCarriers returns every carrier of market m in ascending id order,
// including carriers no eNodeB hosts any more. The returned slice must not
// be modified.
func (g *Graph) MarketCarriers(m int) []lte.CarrierID {
	if m < 0 || m >= len(g.market) {
		return nil
	}
	return g.market[m]
}

// buildENodeBAdjacency bins eNodeBs into a uniform grid with cells of the
// search radius so that neighbor candidates are confined to the 3x3 cell
// neighborhood.
func (g *Graph) buildENodeBAdjacency(n *lte.Network) {
	opts := g.opts
	type cellKey struct{ x, y int }
	cells := make(map[cellKey][]lte.ENodeBID)
	cellOf := func(lat, lon float64) cellKey {
		return cellKey{int(math.Floor(lat / opts.RadiusDeg)), int(math.Floor(lon / opts.RadiusDeg))}
	}
	for i := range n.ENodeBs {
		k := cellOf(n.ENodeBs[i].Lat, n.ENodeBs[i].Lon)
		cells[k] = append(cells[k], lte.ENodeBID(i))
	}
	r2 := opts.RadiusDeg * opts.RadiusDeg
	type cand struct {
		id lte.ENodeBID
		d2 float64
	}
	for i := range n.ENodeBs {
		e := &n.ENodeBs[i]
		k := cellOf(e.Lat, e.Lon)
		var cands []cand
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range cells[cellKey{k.x + dx, k.y + dy}] {
					if int(j) == i {
						continue
					}
					o := &n.ENodeBs[j]
					if o.Market != e.Market {
						continue
					}
					dlat := o.Lat - e.Lat
					dlon := o.Lon - e.Lon
					d2 := dlat*dlat + dlon*dlon
					if d2 <= r2 {
						cands = append(cands, cand{j, d2})
					}
				}
			}
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].d2 != cands[b].d2 {
				return cands[a].d2 < cands[b].d2
			}
			return cands[a].id < cands[b].id
		})
		if len(cands) > opts.MaxENodeBNeighbors {
			cands = cands[:opts.MaxENodeBNeighbors]
		}
		out := make([]lte.ENodeBID, len(cands))
		for j, c := range cands {
			out[j] = c.id
		}
		g.enb[i] = out
	}
}

// carrierNeighbors derives one carrier's neighbor list from the eNodeB
// adjacency: the other-frequency carriers co-sited on its eNodeB, then the
// same-frequency carriers on its X2-adjacent eNodeBs, capped at
// MaxCarrierNeighbors.
func (g *Graph) carrierNeighbors(n *lte.Network, id lte.CarrierID) []lte.CarrierID {
	opts := g.opts
	c := &n.Carriers[id]
	var out []lte.CarrierID
	// Inter-frequency co-sited carriers on the same eNodeB.
	for _, other := range n.ENodeBs[c.ENodeB].Carriers {
		if other == c.ID {
			continue
		}
		if n.Carriers[other].FrequencyMHz != c.FrequencyMHz {
			out = append(out, other)
		}
	}
	// Intra-frequency carriers on X2-adjacent eNodeBs.
	for _, enb := range g.enb[c.ENodeB] {
		for _, other := range n.ENodeBs[enb].Carriers {
			if n.Carriers[other].FrequencyMHz == c.FrequencyMHz {
				out = append(out, other)
			}
		}
		if len(out) >= opts.MaxCarrierNeighbors*2 {
			break
		}
	}
	if len(out) > opts.MaxCarrierNeighbors {
		out = out[:opts.MaxCarrierNeighbors]
	}
	return out
}

// ENodeBNeighbors returns the X2-adjacent eNodeBs of id (nearest first).
// The returned slice must not be modified.
func (g *Graph) ENodeBNeighbors(id lte.ENodeBID) []lte.ENodeBID { return g.enb[id] }

// CarrierNeighbors returns the neighbor carriers of id. The returned slice
// must not be modified.
func (g *Graph) CarrierNeighbors(id lte.CarrierID) []lte.CarrierID { return g.carrier[id] }

// NumENodeBs reports the number of eNodeBs in the graph.
func (g *Graph) NumENodeBs() int { return len(g.enb) }

// NumCarriers reports the number of carriers in the graph.
func (g *Graph) NumCarriers() int { return len(g.carrier) }

// CarriersWithinHops returns the set of carriers hosted on eNodeBs within
// the given number of X2 hops of the carrier's own eNodeB (hops >= 0; the
// carrier's own eNodeB is hop 0). The carrier itself is excluded. This is
// the candidate scope of the paper's local learner (Sec 4.2 uses hops=1).
func (g *Graph) CarriersWithinHops(n *lte.Network, id lte.CarrierID, hops int) []lte.CarrierID {
	return g.carriersNear(n, n.Carriers[id].ENodeB, hops, id)
}

// CarriersNearENodeB returns the carriers hosted on eNodeBs within the
// given number of X2 hops of enb. Unlike CarriersWithinHops it needs no
// carrier in the graph, so it also scopes carriers that are about to be
// added (the new-carrier launch path).
func (g *Graph) CarriersNearENodeB(n *lte.Network, enb lte.ENodeBID, hops int) []lte.CarrierID {
	return g.carriersNear(n, enb, hops, -1)
}

func (g *Graph) carriersNear(n *lte.Network, start lte.ENodeBID, hops int, exclude lte.CarrierID) []lte.CarrierID {
	all := g.hood(n, start, hops)
	// Callers own the returned slice, so the memoized list is copied even
	// when nothing is excluded.
	out := make([]lte.CarrierID, 0, len(all))
	for _, c := range all {
		if c != exclude {
			out = append(out, c)
		}
	}
	return out
}

// hood returns the memoized sorted carrier list within hops of start,
// running the BFS on the first query per key. Concurrent first queries may
// compute the same list twice; both results are identical, so last-write
// wins harmlessly.
func (g *Graph) hood(n *lte.Network, start lte.ENodeBID, hops int) []lte.CarrierID {
	k := hoodKey{start, hops}
	g.hoodMu.RLock()
	h, ok := g.hoods[k]
	g.hoodMu.RUnlock()
	if ok {
		return h
	}
	visited := map[lte.ENodeBID]bool{start: true}
	frontier := []lte.ENodeBID{start}
	for hp := 0; hp < hops; hp++ {
		var next []lte.ENodeBID
		for _, e := range frontier {
			for _, nb := range g.enb[e] {
				if !visited[nb] {
					visited[nb] = true
					next = append(next, nb)
				}
			}
		}
		frontier = next
	}
	var out []lte.CarrierID
	for e := range visited {
		out = append(out, n.ENodeBs[e].Carriers...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	g.hoodMu.Lock()
	if g.hoods == nil {
		g.hoods = make(map[hoodKey][]lte.CarrierID, 64)
	}
	g.hoods[k] = out
	g.hoodMu.Unlock()
	return out
}
