package netsim

import (
	"fmt"

	"auric/internal/lte"
	"auric/internal/rng"
)

// NewCarrierAt synthesizes a carrier ready to be launched on an existing
// eNodeB: a new radio channel on a frequency the eNodeB does not host yet
// (or, failing that, a capacity duplicate of an existing layer), with
// attributes inherited from the site. The returned carrier has the given
// ID and is NOT added to the network; the launch workflow owns
// integration.
func (w *World) NewCarrierAt(enb lte.ENodeBID, id lte.CarrierID, r *rng.RNG) *lte.Carrier {
	e := &w.Net.ENodeBs[enb]
	// Candidate frequencies: anything the site does not already host.
	hosted := map[int]bool{}
	var donor *lte.Carrier
	for _, cid := range e.Carriers {
		c := &w.Net.Carriers[cid]
		hosted[c.FrequencyMHz] = true
		if donor == nil || c.Face == 0 {
			donor = c
		}
	}
	var candidates []int
	for _, f := range []int{700, 850, 1700, 1900, 2100, 2300} {
		if !hosted[f] {
			candidates = append(candidates, f)
		}
	}
	freq := donor.FrequencyMHz
	if len(candidates) > 0 {
		freq = candidates[r.Intn(len(candidates))]
	}
	nc := *donor // inherit site attributes (morphology, hardware, TAC, ...)
	nc.ID = id
	nc.ENodeB = enb
	nc.Face = r.Intn(3)
	nc.FrequencyMHz = freq
	nc.Type = lte.Standard
	nc.BandwidthMHz = bandwidthOf(freq, donor.Market)
	nc.MIMOMode = mimoOf(freq, donor.Hardware)
	nc.CellSizeMi = cellSize(freq, donor.Morphology)
	nc.NeighborsOnENB = len(e.Carriers) // it joins the existing ones
	return &nc
}

// IntendedSingularFor returns the engineer-intended singular values for a
// carrier hosted on one of the world's eNodeBs — the oracle a perfectly
// up-to-date regional configuration template would produce. The slice is
// indexed by schema parameter index; pair-wise positions are zero.
func (w *World) IntendedSingularFor(c *lte.Carrier) []float64 {
	if int(c.ENodeB) >= len(w.ENodeBCluster) {
		panic(fmt.Sprintf("netsim: carrier references unknown eNodeB %d", c.ENodeB))
	}
	cluster := w.ENodeBCluster[c.ENodeB]
	attrs := c.AttributeVector()
	out := make([]float64, w.Schema.Len())
	for _, pi := range w.Schema.Singular() {
		p := w.Schema.At(pi)
		bi, _ := w.intendedIndex(p, w.TrueDependencies(pi), attrs, c.Market, cluster, c.Terrain)
		out[pi] = p.ValueAt(bi)
	}
	return out
}

// RulebookSingularFor returns the pre-tuning rulebook base values for a
// carrier: what a stale, region-unaware vendor template produces — no
// market style, no cluster overrides, no roll-outs (Sec 5: "mistakes by
// vendors, out-of-date rulebooks, or pending tuning"). The slice is
// indexed by schema parameter index; pair-wise positions are zero.
func (w *World) RulebookSingularFor(c *lte.Carrier) []float64 {
	attrs := c.AttributeVector()
	out := make([]float64, w.Schema.Len())
	for _, pi := range w.Schema.Singular() {
		p := w.Schema.At(pi)
		bi := w.baseIndex(p, w.TrueDependencies(pi), attrs)
		out[pi] = p.ValueAt(bi)
	}
	return out
}
