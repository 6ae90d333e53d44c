package stats

import (
	"math"
	"slices"
)

// CountTable is a dense two-way contingency table over pre-encoded
// categorical codes: cell (r, c) counts co-occurrences of attribute code r
// with label code c. It is the columnar counterpart of Contingency for the
// CF hot path — counting is two slice indexings per sample instead of two
// map lookups, and the statistics match Contingency exactly because rows
// and columns with zero marginals are excluded from the effective
// dimensions (a code never observed in the table contributes nothing, just
// as an un-interned string never enters a Contingency).
//
// A CountTable is reusable scratch: Reset reshapes it for the next column
// without releasing its backing arrays, which is how cf.Fit counts all 65
// parameters' columns through one pooled table instead of allocating a
// fresh one per column. Marginals are computed once per counting pass and
// cached until the next Add or Reset, so ChiSquare followed by CramersV
// walks the cells only once. A CountTable is not safe for concurrent use.
type CountTable struct {
	r, c   int
	counts []int // row-major [r][c]
	total  int

	// Cached marginals, valid while dirty is false. Add and Reset
	// invalidate; marginals() recomputes on demand.
	dirty      bool
	rowSums    []float64
	colSums    []float64
	reff, ceff int
}

// NewCountTable returns a zeroed r x c table. Dimensions are the code
// cardinalities of the attribute and label dictionaries.
func NewCountTable(r, c int) *CountTable {
	return &CountTable{r: r, c: c, counts: make([]int, r*c), dirty: true}
}

// Add counts one observation of (attribute code, label code).
func (t *CountTable) Add(r, c int) {
	t.counts[r*t.c+c]++
	t.total++
	t.dirty = true
}

// Sub removes one observation of (attribute code, label code). Counts must
// not go negative; Sub is the removal half of incremental count maintenance
// (live ingest tombstones), mirroring Add.
func (t *CountTable) Sub(r, c int) {
	t.counts[r*t.c+c]--
	t.total--
	t.dirty = true
}

// Count returns the cell count for (attribute code, label code).
func (t *CountTable) Count(r, c int) int { return t.counts[r*t.c+c] }

// Rows reports the table's row dimension (the attribute dictionary
// cardinality it was shaped for, not the effective observed rows).
func (t *CountTable) Rows() int { return t.r }

// Clone returns an independent copy of the table. Incremental fit clones a
// model's persistent count tables before patching them, so the previous
// generation's fitted state stays immutable for its concurrent readers.
func (t *CountTable) Clone() *CountTable {
	out := &CountTable{r: t.r, c: t.c, total: t.total, dirty: true}
	out.counts = make([]int, len(t.counts))
	copy(out.counts, t.counts)
	return out
}

// Grow reshapes the table to r x c (which must not shrink either
// dimension), preserving every existing count — the dictionary-growth path
// of live ingest, when an upserted carrier introduces a new attribute value
// or parameter label code.
func (t *CountTable) Grow(r, c int) {
	if r < t.r || c < t.c {
		panic("stats: CountTable.Grow cannot shrink")
	}
	if r == t.r && c == t.c {
		return
	}
	counts := make([]int, r*c)
	for i := 0; i < t.r; i++ {
		copy(counts[i*c:i*c+t.c], t.counts[i*t.c:(i+1)*t.c])
	}
	t.r, t.c, t.counts, t.dirty = r, c, counts, true
}

// marginals returns the row and column sums and the effective dimensions
// (rows and columns with at least one observation). The returned slices
// are cached scratch owned by the table: treat them as read-only and
// invalid after the next Add or Reset.
func (t *CountTable) marginals() (rowSums, colSums []float64, reff, ceff int) {
	if !t.dirty {
		return t.rowSums, t.colSums, t.reff, t.ceff
	}
	if cap(t.rowSums) < t.r {
		t.rowSums = make([]float64, t.r)
	}
	if cap(t.colSums) < t.c {
		t.colSums = make([]float64, t.c)
	}
	t.rowSums = t.rowSums[:t.r]
	t.colSums = t.colSums[:t.c]
	clear(t.rowSums)
	clear(t.colSums)
	for i := 0; i < t.r; i++ {
		base := i * t.c
		for j := 0; j < t.c; j++ {
			n := float64(t.counts[base+j])
			t.rowSums[i] += n
			t.colSums[j] += n
		}
	}
	t.reff, t.ceff = 0, 0
	for _, s := range t.rowSums {
		if s > 0 {
			t.reff++
		}
	}
	for _, s := range t.colSums {
		if s > 0 {
			t.ceff++
		}
	}
	t.dirty = false
	return t.rowSums, t.colSums, t.reff, t.ceff
}

// RowTotals returns the per-attribute-code observation counts (the row
// marginals) as cached scratch: read-only, invalid after Add or Reset.
func (t *CountTable) RowTotals() []float64 {
	rowSums, _, _, _ := t.marginals()
	return rowSums
}

// ChiSquare computes the chi-square statistic of Eq. (3) with the expected
// counts of Eq. (4), and the degrees of freedom (R-1)(C-1) over the
// effective (observed) dimensions. Tables with fewer than 2 observed rows
// or 2 observed columns carry no information about dependence and return
// (0, 0) — identical to Contingency.ChiSquare over the same observations.
//
// The per-cell terms are summed in sorted order, so the statistic is a
// bit-exact function of the cell-count multiset, independent of how codes
// were assigned. Live ingest depends on this: a patched model's
// dictionaries append new codes while a from-scratch refit interns them in
// row order, and without a canonical summation order the two accumulate
// the same terms with different ULP-level rounding — enough to flip
// Cramér's-V ties and reorder the dependency ladder.
func (t *CountTable) ChiSquare() (stat float64, df int) {
	rowSums, colSums, reff, ceff := t.marginals()
	if reff < 2 || ceff < 2 || t.total == 0 {
		return 0, 0
	}
	n := float64(t.total)
	// The terms slice is local, not pooled scratch: once a table is fitted
	// (marginals cached), ChiSquare must stay read-only — fitted models
	// share count tables across generations and call it concurrently, and
	// the sort dominates the cost of one allocation anyway.
	terms := make([]float64, 0, reff*ceff)
	for i := 0; i < t.r; i++ {
		if rowSums[i] == 0 {
			continue
		}
		base := i * t.c
		for j := 0; j < t.c; j++ {
			expected := rowSums[i] * colSums[j] / n
			if expected == 0 {
				continue
			}
			d := float64(t.counts[base+j]) - expected
			terms = append(terms, d*d/expected)
		}
	}
	slices.Sort(terms)
	for _, v := range terms {
		stat += v
	}
	return stat, (reff - 1) * (ceff - 1)
}

// CramersV normalizes a chi-square statistic of the table into Cramér's V:
// sqrt(chi2 / (n * (min(R, C) - 1))) over the effective dimensions, an
// association strength in [0, 1] comparable across attribute
// cardinalities. Degenerate tables return 0 — identical to
// Contingency.CramersV over the same observations.
func (t *CountTable) CramersV(stat float64) float64 {
	_, _, reff, ceff := t.marginals()
	k := reff
	if ceff < k {
		k = ceff
	}
	if t.total == 0 || k < 2 {
		return 0
	}
	return math.Sqrt(stat / (float64(t.total) * float64(k-1)))
}
