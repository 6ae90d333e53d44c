// Package dataset assembles per-parameter learning tables from a network
// snapshot: the predictor matrix X of carrier attributes and the predictee
// vector Y of configuration values (Sec 3.1, Fig 6).
//
// Singular parameters yield one sample per carrier, with the carrier's
// attribute vector as predictors. Pair-wise parameters yield one sample
// per directed X2 relation, with the concatenated carrier+neighbor
// attribute vector (Sec 4.1).
//
// Attribute storage is interned and columnar: every column holds int32
// codes into a per-column Dict instead of raw strings, built once per
// attribute base and shared immutably across all tables derived from it
// (per-parameter labelings, subsets, samples). Learners work on codes —
// exact matching, contingency counting and distance computation are int32
// operations over dense arrays — while Row/At recover the string view for
// explanations and baselines.
//
// The label column Y is interned the same way, but per table: each table's
// LabelDict holds exactly its own labels, coded in first-seen row order,
// so learners tally votes and class counts over LabelCodes without
// re-interning strings, and Label recovers the string.
//
// The shared base is also how live ingest stays cheap: ExtendBase grows a
// published base copy-on-write (new rows appended past the published
// length, dictionaries cloned only for columns that saw a new value), and
// Extension.Rebase moves every table derived from the old base onto the
// grown one without copying its rows or its label dictionary — the
// data-layer half of the incremental-fit path, where cf.Model.Update
// patches models over the rebased tables while readers of the previous
// generation keep serving.
package dataset

import (
	"fmt"

	"auric/internal/geo"
	"auric/internal/lte"
	"auric/internal/paramspec"
	"auric/internal/rng"
)

// Site identifies the network location a sample was taken from.
type Site struct {
	From lte.CarrierID
	To   lte.CarrierID // -1 for singular parameters
}

// columns is an interned columnar attribute base: one Dict and one code
// slice per column, all of equal length n. A base is mutable only while it
// is being assembled (Builder construction or Table.AppendRow); once a
// table over it is shared it must be treated as immutable, which makes it
// safe to share between tables and goroutines.
type columns struct {
	dicts []*Dict
	codes [][]int32 // [col][row]
	n     int
}

func newColumns(ncols int) *columns {
	c := &columns{dicts: make([]*Dict, ncols), codes: make([][]int32, ncols)}
	for i := range c.dicts {
		c.dicts[i] = NewDict()
	}
	return c
}

func (c *columns) appendRow(row []string) {
	for i, v := range row {
		c.codes[i] = append(c.codes[i], c.dicts[i].Intern(v))
	}
	c.n++
}

// Table is the learning table of one configuration parameter. Attribute
// rows live in an interned columnar base reached through the code and
// string accessors; LabelCodes, Values and Sites are per-sample slices
// aligned with table row order.
type Table struct {
	// Param is the schema index of the parameter.
	Param int
	// Spec is the parameter definition.
	Spec paramspec.Param
	// ColNames names the predictor columns.
	ColNames []string
	// LabelCodes holds each sample's canonical categorical value label
	// (paramspec.Param.Format of the value) as a code into LabelDict.
	LabelCodes []int32
	// LabelDict interns the table's labels: exactly the labels its samples
	// hold, coded in first-seen row order, so learners can tally votes and
	// class counts by code. Treat it as read-only; a rebased table shares
	// its source's dictionary until AppendSample adds a new label.
	LabelDict *Dict
	// Values holds the numeric value per sample.
	Values []float64
	// Sites locates each sample in the network.
	Sites []Site

	// base holds the interned attribute columns, possibly shared with
	// other tables built from the same Builder.
	base *columns
	// rowIdx maps table rows to base rows; nil means the identity (table
	// row i is base row i), the common case for singular tables.
	rowIdx []int32
	// mutable marks a hand-assembled table whose base AppendRow may still
	// grow; tables from Builder or Subset share their base and are not.
	mutable bool
	// sharedLabels marks a LabelDict borrowed from the table this one was
	// rebased from; AppendSample clones it before interning a new label.
	sharedLabels bool
}

// Len reports the number of samples.
func (t *Table) Len() int {
	if t.rowIdx != nil {
		return len(t.rowIdx)
	}
	if t.base != nil {
		return t.base.n
	}
	return 0
}

// Label returns the value label of sample i.
func (t *Table) Label(i int) string { return t.LabelDict.String(t.LabelCodes[i]) }

// NumCols reports the number of predictor columns.
func (t *Table) NumCols() int { return len(t.ColNames) }

func (t *Table) baseRow(i int) int32 {
	if t.rowIdx != nil {
		return t.rowIdx[i]
	}
	return int32(i)
}

// Code returns the interned code of sample i in column c.
func (t *Table) Code(i, c int) int32 {
	return t.base.codes[c][t.baseRow(i)]
}

// At returns the string value of sample i in column c.
func (t *Table) At(i, c int) string {
	return t.base.dicts[c].String(t.Code(i, c))
}

// Row materializes the string attribute vector of sample i (a fresh
// slice; the columnar codes remain the primary representation).
func (t *Table) Row(i int) []string {
	out := make([]string, len(t.ColNames))
	for c := range out {
		out[c] = t.At(i, c)
	}
	return out
}

// RowSet identifies the base rows a table reads, in order. Equal RowSets
// mean the same rows of the same columnar base: every identity view of one
// base, and the pair-wise tables Builder.Labeled gave the same configured
// relation set (they share one row-index slice). Structures derived from
// the attribute codes of the rows alone, like cf's posting lists, can be
// shared between tables with equal RowSets. The comparison is by identity,
// so tables that hold equal rows in separate slices differ; and it holds
// only while neither table is appended to.
type RowSet struct {
	base  *columns
	first *int32 // &rowIdx[0]; nil for an identity view or no rows
	n     int
}

// RowSet returns the identity of t's rows (see the RowSet type).
func (t *Table) RowSet() RowSet {
	rs := RowSet{base: t.base, n: t.Len()}
	if len(t.rowIdx) > 0 {
		rs.first = &t.rowIdx[0]
	}
	return rs
}

// Dict returns the dictionary of column c. Treat it as read-only.
func (t *Table) Dict(c int) *Dict { return t.base.dicts[c] }

// SharesBase reports whether t and o read their attribute columns from the
// same interned columnar base — same dictionaries, same code space — so a
// row encoded against one table decodes identically on the other. Tables
// labeled by one Builder (and any Subset/Sample of them) share a base.
func (t *Table) SharesBase(o *Table) bool {
	return t.base != nil && o != nil && t.base == o.base
}

// ColumnCodes returns the codes of column c in table row order. Identity
// views return the shared base slice without copying; derived views
// (Subset, pair-wise labelings) gather a fresh slice. Either way the
// result must be treated as read-only.
func (t *Table) ColumnCodes(c int) []int32 {
	col := t.base.codes[c]
	if t.rowIdx == nil {
		return col
	}
	out := make([]int32, len(t.rowIdx))
	for j, i := range t.rowIdx {
		out[j] = col[i]
	}
	return out
}

// ColumnCodesScratch returns the codes of column c in table row order,
// using buf as gather space for derived views: identity views return the
// shared base slice directly (buf is untouched), derived views gather into
// buf, growing it as needed. Callers that process columns one at a time
// can reuse one buffer across every column instead of paying ColumnCodes'
// per-column allocation. Either way the result is read-only and valid only
// until buf is reused.
func (t *Table) ColumnCodesScratch(buf []int32, c int) []int32 {
	col := t.base.codes[c]
	if t.rowIdx == nil {
		return col
	}
	buf = buf[:0]
	for _, i := range t.rowIdx {
		buf = append(buf, col[i])
	}
	return buf
}

// AppendRow appends one sample to a hand-assembled table (test fixtures,
// ad-hoc baselines): it interns the attribute row and the label and
// appends the value and site. It panics on tables that share a Builder
// base or were derived by Subset — those are immutable by contract — and
// on a row width that does not match ColNames.
func (t *Table) AppendRow(row []string, label string, value float64, site Site) {
	if len(row) != len(t.ColNames) {
		panic(fmt.Sprintf("dataset: AppendRow width %d, want %d", len(row), len(t.ColNames)))
	}
	if t.base == nil {
		t.base = newColumns(len(t.ColNames))
		t.mutable = true
		t.LabelDict = NewDict()
	}
	if !t.mutable || t.rowIdx != nil {
		panic("dataset: AppendRow on a shared or derived table")
	}
	t.base.appendRow(row)
	t.appendSample(label, value, site)
}

// Filter selects the carriers included in a table build; nil includes all.
type Filter func(lte.CarrierID) bool

// MarketFilter returns a Filter keeping only carriers of market m.
func MarketFilter(net *lte.Network, m int) Filter {
	return func(id lte.CarrierID) bool { return net.Carriers[id].Market == m }
}

// Build assembles the learning table for parameter pi (a schema index of
// cfg's schema). For pair-wise parameters, x2 supplies the relations; a
// sample is emitted for every directed relation whose From carrier passes
// the filter and whose value is configured. For singular parameters x2 may
// be nil.
//
// Build is the one-shot form; callers labeling many parameters of the same
// network slice should share a Builder, which materializes the attribute
// base once instead of per parameter.
func Build(net *lte.Network, x2 *geo.Graph, cfg *lte.Config, pi int, keep Filter) *Table {
	return NewBuilder(net, x2, keep).Labeled(cfg, pi)
}

// Subset returns a new table containing the rows at the given indices
// (shared columnar base, fresh per-sample slices). Its labels are coded
// afresh in the subset's own first-seen order.
func (t *Table) Subset(idx []int) *Table {
	out := &Table{Param: t.Param, Spec: t.Spec, ColNames: t.ColNames, base: t.base, LabelDict: NewDict()}
	out.rowIdx = make([]int32, len(idx))
	out.LabelCodes = make([]int32, len(idx))
	out.Values = make([]float64, len(idx))
	out.Sites = make([]Site, len(idx))
	for j, i := range idx {
		out.rowIdx[j] = t.baseRow(i)
		out.LabelCodes[j] = out.LabelDict.Intern(t.Label(i))
		out.Values[j] = t.Values[i]
		out.Sites[j] = t.Sites[i]
	}
	return out
}

// Sample returns a random subset of at most n rows (all rows when
// n >= Len), drawn without replacement using the seeded stream.
func (t *Table) Sample(n int, seed uint64) *Table {
	if n >= t.Len() {
		return t
	}
	r := rng.New(seed)
	perm := r.Perm(t.Len())
	return t.Subset(perm[:n])
}

// GroupedFolds splits rows into k folds such that all rows sharing a From
// carrier land in the same fold. This implements the paper's evaluation
// stance of treating each carrier as a new carrier (Sec 4.2): when a
// carrier is under test, none of its own pair-wise relations are available
// as training evidence. It panics for k < 2 or k > the number of distinct
// From carriers.
func (t *Table) GroupedFolds(k int, seed uint64) [][]int {
	groups := make(map[lte.CarrierID][]int)
	var order []lte.CarrierID
	for i, s := range t.Sites {
		if _, ok := groups[s.From]; !ok {
			order = append(order, s.From)
		}
		groups[s.From] = append(groups[s.From], i)
	}
	if k < 2 || k > len(order) {
		panic(fmt.Sprintf("dataset: cannot split %d carriers into %d folds", len(order), k))
	}
	r := rng.New(seed)
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	folds := make([][]int, k)
	for i, c := range order {
		folds[i%k] = append(folds[i%k], groups[c]...)
	}
	return folds
}

// TrainTest returns the complement split for fold f of folds: all indices
// not in folds[f] as train, folds[f] as test.
func TrainTest(folds [][]int, f int) (train, test []int) {
	test = folds[f]
	for i, fold := range folds {
		if i != f {
			train = append(train, fold...)
		}
	}
	return train, test
}
