package lte

import (
	"fmt"
	"slices"
	"sync/atomic"

	"auric/internal/paramspec"
)

// EdgeKey identifies a directed carrier→neighbor X2 relation.
type EdgeKey struct {
	From, To CarrierID
}

// Config holds a full configuration snapshot for a network: one value per
// (carrier, singular parameter) and one per (carrier, neighbor, pair-wise
// parameter). Values are always on the parameter's grid.
//
// Values are stored per carrier: a row of singular values, and a row of
// outgoing relations sorted by neighbor id with their pair-wise values.
// Clone is copy-on-write: it copies only the two outer per-carrier slices,
// and the first write to a carrier's row afterwards, on either copy, copies
// that one row. Reads never write, so any number of goroutines may read a
// Config, or Clone it, at the same time; a write needs the written Config
// to itself, but not its clones.
type Config struct {
	schema *paramspec.Schema
	// kindPos maps schema parameter index -> position within its kind's
	// value rows.
	kindPos     []int
	numSingular int
	numPairWise int
	// singMin and pairMin are the initial value rows: every parameter of
	// the kind at its Min.
	singMin, pairMin []float64

	singular []valueRow    // [carrier]
	pair     []relationRow // [carrier]
	numEdges int

	// epoch names the Config as the owner of the rows stamped with it; a
	// row with any other stamp is shared and is copied before a write.
	// Clone moves both copies to fresh epochs, so every row either holds
	// becomes shared. It is atomic because concurrent Clones of one source
	// all store it.
	epoch atomic.Uint64
}

// valueRow is one carrier's singular values.
type valueRow struct {
	v   []float64 // [singular pos]
	own uint64    // epoch of the Config that may write v in place
}

// relationRow is one carrier's outgoing relations.
type relationRow struct {
	to  []CarrierID // ascending
	v   []float64   // [relation index * numPairWise + pairwise pos]
	own uint64      // epoch of the Config that may write to and v in place
}

// epochs hands out Config epochs; each is used by one Config only.
var epochs atomic.Uint64

// NewConfig allocates a configuration snapshot for numCarriers carriers
// under the given schema. All values start at each parameter's Min.
func NewConfig(schema *paramspec.Schema, numCarriers int) *Config {
	c := &Config{
		schema:  schema,
		kindPos: make([]int, schema.Len()),
	}
	for i := 0; i < schema.Len(); i++ {
		p := schema.At(i)
		if p.Kind == paramspec.Singular {
			c.kindPos[i] = c.numSingular
			c.numSingular++
			c.singMin = append(c.singMin, p.Min)
		} else {
			c.kindPos[i] = c.numPairWise
			c.numPairWise++
			c.pairMin = append(c.pairMin, p.Min)
		}
	}
	c.epoch.Store(epochs.Add(1))
	c.Grow(numCarriers)
	return c
}

// Schema returns the parameter schema the config is laid out against.
func (c *Config) Schema() *paramspec.Schema { return c.schema }

// Grow extends the configuration to cover n additional carriers, whose
// singular values start at each parameter's Min. It is used when new
// carriers are integrated into a live network (the launch workflow).
func (c *Config) Grow(n int) {
	own := c.epoch.Load()
	ns := c.numSingular
	backing := make([]float64, n*ns)
	c.singular = slices.Grow(c.singular, n)
	for i := 0; i < n; i++ {
		row := backing[i*ns : (i+1)*ns : (i+1)*ns]
		copy(row, c.singMin)
		c.singular = append(c.singular, valueRow{v: row, own: own})
	}
	c.pair = append(c.pair, make([]relationRow, n)...)
}

// NumCarriers reports the number of carriers the config covers.
func (c *Config) NumCarriers() int { return len(c.singular) }

// Get returns the value of singular parameter param (schema index) on the
// carrier.
func (c *Config) Get(id CarrierID, param int) float64 {
	c.mustKind(param, paramspec.Singular)
	return c.singular[id].v[c.kindPos[param]]
}

// Set stores the value of singular parameter param on the carrier,
// quantizing it to the parameter grid.
func (c *Config) Set(id CarrierID, param int, v float64) {
	c.mustKind(param, paramspec.Singular)
	r := &c.singular[id]
	if own := c.epoch.Load(); r.own != own {
		r.v = slices.Clone(r.v)
		r.own = own
	}
	r.v[c.kindPos[param]] = c.schema.At(param).Quantize(v)
}

// GetPair returns the value of pair-wise parameter param on the directed
// carrier→neighbor relation, and whether the relation has been configured.
func (c *Config) GetPair(from, to CarrierID, param int) (float64, bool) {
	c.mustKind(param, paramspec.PairWise)
	if from < 0 || int(from) >= len(c.pair) {
		return 0, false
	}
	r := &c.pair[from]
	i, ok := slices.BinarySearch(r.to, to)
	if !ok {
		return 0, false
	}
	return r.v[i*c.numPairWise+c.kindPos[param]], true
}

// SetPair stores the value of pair-wise parameter param on the directed
// carrier→neighbor relation, creating the relation on first use. New
// relations start with every pair-wise parameter at its Min. The from
// carrier must be covered by the config.
func (c *Config) SetPair(from, to CarrierID, param int, v float64) {
	c.mustKind(param, paramspec.PairWise)
	r := &c.pair[from]
	np := c.numPairWise
	i, ok := slices.BinarySearch(r.to, to)
	switch own := c.epoch.Load(); {
	case !ok:
		// A new relation rebuilds the row, owned by c and sized exactly:
		// append's doubling would leave up to half of every row unused.
		nto := make([]CarrierID, len(r.to)+1)
		copy(nto, r.to[:i])
		nto[i] = to
		copy(nto[i+1:], r.to[i:])
		nv := make([]float64, len(r.v)+np)
		copy(nv, r.v[:i*np])
		copy(nv[i*np:], c.pairMin)
		copy(nv[(i+1)*np:], r.v[i*np:])
		*r = relationRow{to: nto, v: nv, own: own}
		c.numEdges++
	case r.own != own:
		r.to, r.v, r.own = slices.Clone(r.to), slices.Clone(r.v), own
	}
	r.v[i*np+c.kindPos[param]] = c.schema.At(param).Quantize(v)
}

// Edges returns all configured directed relations in ascending (From, To)
// order.
func (c *Config) Edges() []EdgeKey {
	out := make([]EdgeKey, 0, c.numEdges)
	for from := range c.pair {
		for _, to := range c.pair[from].to {
			out = append(out, EdgeKey{CarrierID(from), to})
		}
	}
	return out
}

// Clone returns a copy of the configuration that shares every carrier's
// row with c until either side writes it (see Config). It allocates the
// two outer per-carrier slices and nothing per row or relation.
func (c *Config) Clone() *Config {
	out := &Config{
		schema:      c.schema,
		kindPos:     c.kindPos,
		numSingular: c.numSingular,
		numPairWise: c.numPairWise,
		singMin:     c.singMin,
		pairMin:     c.pairMin,
		singular:    slices.Clone(c.singular),
		pair:        slices.Clone(c.pair),
		numEdges:    c.numEdges,
	}
	out.epoch.Store(epochs.Add(1))
	c.epoch.Store(epochs.Add(1))
	return out
}

func (c *Config) mustKind(param int, k paramspec.Kind) {
	if param < 0 || param >= c.schema.Len() {
		panic(fmt.Sprintf("lte: parameter index %d out of range", param))
	}
	if c.schema.At(param).Kind != k {
		panic(fmt.Sprintf("lte: parameter %s is %v, accessed as %v",
			c.schema.At(param).Name, c.schema.At(param).Kind, k))
	}
}
