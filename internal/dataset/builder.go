package dataset

import (
	"math"
	"slices"
	"sync"
	"time"

	"auric/internal/geo"
	"auric/internal/lte"
	"auric/internal/obs"
	"auric/internal/paramspec"
)

// labelSeconds times per-parameter table assembly, the stage upstream of
// every model fit; it is fed from the Train worker pool concurrently.
var labelSeconds = obs.Default().Histogram("auric_dataset_label_seconds",
	"Seconds assembling one per-parameter learning table (Builder.Labeled).", obs.DefBuckets)

// Builder assembles learning tables for many parameters of one network
// slice without rebuilding the parameter-independent parts. The attribute
// columns and sites are identical for every singular parameter (one sample
// per kept carrier) and for every pair-wise parameter (one sample per kept
// directed X2 relation), so the builder interns each columnar base once
// and Labeled only attaches the per-parameter label and value columns.
//
// Pair-wise tables also share their rows: Labeled hands out one row-index
// slice and one Sites slice per distinct set of configured relations, so
// the pair-wise tables of a network slice usually hold one copy between
// them, and equal Table.RowSet values tell a learner which tables it may
// share row-derived structures between.
//
// Bases are built lazily on first use and are immutable afterwards; a
// Builder is safe for concurrent use by multiple goroutines, which is how
// core.Engine.Train shares one builder across its worker pool. Tables
// returned by Labeled share the base's columns, dictionaries and site
// slices — treat them as read-only, exactly like the output of Build. The
// shared row-index and Sites slices are handed out at full capacity, so
// the first AppendSample on a rebased table copies them instead of writing
// into an array its siblings read.
type Builder struct {
	net  *lte.Network
	x2   *geo.Graph
	keep Filter

	singOnce  sync.Once
	singCols  *columns
	singSites []Site

	pairOnce  sync.Once
	pairCols  *columns
	pairSites []Site

	// rowsMu guards rowSets, the distinct configured-relation sets of the
	// pair-wise tables labeled so far.
	rowsMu  sync.Mutex
	rowSets []pairRows
}

// pairRows is one configured-relation set of the pair base: the base rows
// and their sites, both at full capacity.
type pairRows struct {
	idx   []int32
	sites []Site
}

// NewBuilder prepares table assembly over the kept carriers of a network.
// x2 supplies the pair-wise relations and may be nil when only singular
// parameters will be labeled; a nil keep includes every carrier.
func NewBuilder(net *lte.Network, x2 *geo.Graph, keep Filter) *Builder {
	return &Builder{net: net, x2: x2, keep: keep}
}

func (b *Builder) singularBase() (*columns, []Site) {
	b.singOnce.Do(func() {
		b.singCols = newColumns(int(lte.NumAttributes))
		for ci := range b.net.Carriers {
			id := lte.CarrierID(ci)
			if b.keep != nil && !b.keep(id) {
				continue
			}
			b.singCols.appendRow(b.net.Carriers[ci].AttributeVector())
			b.singSites = append(b.singSites, Site{From: id, To: -1})
		}
	})
	return b.singCols, b.singSites
}

func (b *Builder) pairBase() (*columns, []Site) {
	if b.x2 == nil {
		panic("dataset: pair-wise parameter requires an X2 graph")
	}
	b.pairOnce.Do(func() {
		b.pairCols = newColumns(2 * int(lte.NumAttributes))
		for ci := range b.net.Carriers {
			id := lte.CarrierID(ci)
			if b.keep != nil && !b.keep(id) {
				continue
			}
			c := &b.net.Carriers[ci]
			for _, nb := range b.x2.CarrierNeighbors(id) {
				b.pairCols.appendRow(lte.PairAttributeVector(c, &b.net.Carriers[nb]))
				b.pairSites = append(b.pairSites, Site{From: id, To: nb})
			}
		}
	})
	return b.pairCols, b.pairSites
}

// Labeled returns the learning table of parameter pi (a schema index of
// cfg's schema) over the builder's carriers. It is equivalent to
// Build(net, x2, cfg, pi, keep) — same rows, labels, values and sites in
// the same order — but reuses the shared interned base across calls.
func (b *Builder) Labeled(cfg *lte.Config, pi int) *Table {
	defer obs.Since(labelSeconds, time.Now())
	schema := cfg.Schema()
	spec := schema.At(pi)
	t := &Table{Param: pi, Spec: spec, LabelDict: NewDict()}
	// Values sit on the parameter's grid, so a table holds few distinct
	// ones: each is formatted and interned once and its code shared by
	// every row.
	codes := make(map[uint64]int32)
	label := func(v float64) int32 {
		k := math.Float64bits(v)
		c, ok := codes[k]
		if !ok {
			c = t.LabelDict.Intern(spec.Format(v))
			codes[k] = c
		}
		return c
	}
	if spec.Kind == paramspec.Singular {
		cols, sites := b.singularBase()
		t.ColNames = lte.AttributeNames()
		t.base = cols
		t.Sites = sites[:len(sites):len(sites)]
		t.LabelCodes = make([]int32, cols.n)
		t.Values = make([]float64, cols.n)
		for i, s := range sites {
			v := cfg.Get(s.From, pi)
			t.Values[i] = v
			t.LabelCodes[i] = label(v)
		}
		return t
	}
	cols, sites := b.pairBase()
	t.ColNames = lte.PairAttributeNames()
	t.base = cols
	// Only configured relations carry a sample; unconfigured ones are
	// skipped exactly as Build does, so the shared base is filtered here
	// through the row-index view.
	idx := make([]int32, 0, cols.n)
	t.LabelCodes = make([]int32, 0, cols.n)
	t.Values = make([]float64, 0, cols.n)
	for i, s := range sites {
		v, ok := cfg.GetPair(s.From, s.To, pi)
		if !ok {
			continue
		}
		idx = append(idx, int32(i))
		t.LabelCodes = append(t.LabelCodes, label(v))
		t.Values = append(t.Values, v)
	}
	t.rowIdx, t.Sites = b.shareRows(idx, sites)
	return t
}

// shareRows returns the row-index and Sites slices of the configured
// relation set idx (base rows of the pair base, whose sites are sites):
// those of an equal set labeled earlier, or idx and its gathered sites,
// recorded for the tables that follow. Both come back at full capacity.
func (b *Builder) shareRows(idx []int32, sites []Site) ([]int32, []Site) {
	b.rowsMu.Lock()
	defer b.rowsMu.Unlock()
	for _, rs := range b.rowSets {
		if slices.Equal(rs.idx, idx) {
			return rs.idx, rs.sites
		}
	}
	if len(idx) < cap(idx) {
		idx = slices.Clone(idx)
	}
	rs := pairRows{idx: idx[:len(idx):len(idx)], sites: make([]Site, len(idx))}
	for j, i := range idx {
		rs.sites[j] = sites[i]
	}
	b.rowSets = append(b.rowSets, rs)
	return rs.idx, rs.sites
}
