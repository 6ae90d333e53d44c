package stats

import (
	"math"
	"slices"
)

// Contingency is a two-way contingency table between a categorical
// attribute (rows) and a categorical configuration parameter (columns),
// exactly like the example table in Fig 9 of the paper. Labels are interned
// on first use; cells count co-occurrences.
type Contingency struct {
	rowIdx map[string]int
	colIdx map[string]int
	rows   []string
	cols   []string
	counts [][]int // [row][col]
	total  int
}

// NewContingency returns an empty table.
func NewContingency() *Contingency {
	return &Contingency{
		rowIdx: make(map[string]int),
		colIdx: make(map[string]int),
	}
}

// Add counts one observation of (attribute value, parameter value).
func (t *Contingency) Add(row, col string) { t.AddN(row, col, 1) }

// AddN counts n observations of (attribute value, parameter value).
func (t *Contingency) AddN(row, col string, n int) {
	ri, ok := t.rowIdx[row]
	if !ok {
		ri = len(t.rows)
		t.rowIdx[row] = ri
		t.rows = append(t.rows, row)
		t.counts = append(t.counts, make([]int, len(t.cols)))
	}
	ci, ok := t.colIdx[col]
	if !ok {
		ci = len(t.cols)
		t.colIdx[col] = ci
		t.cols = append(t.cols, col)
		for i := range t.counts {
			t.counts[i] = append(t.counts[i], 0)
		}
	}
	t.counts[ri][ci] += n
	t.total += n
}

// Rows returns the distinct attribute values in first-seen order.
func (t *Contingency) Rows() []string { return t.rows }

// Cols returns the distinct parameter values in first-seen order.
func (t *Contingency) Cols() []string { return t.cols }

// Total returns the number of observations.
func (t *Contingency) Total() int { return t.total }

// Count returns the cell count for (row, col) labels; missing labels count
// as zero.
func (t *Contingency) Count(row, col string) int {
	ri, ok := t.rowIdx[row]
	if !ok {
		return 0
	}
	ci, ok := t.colIdx[col]
	if !ok {
		return 0
	}
	return t.counts[ri][ci]
}

// ChiSquare computes the chi-square statistic of Eq. (3) with the expected
// counts of Eq. (4), and the degrees of freedom (R-1)(C-1). Tables with
// fewer than 2 rows or 2 columns carry no information about dependence and
// return (0, 0).
//
// Like CountTable.ChiSquare, the per-cell terms are summed in sorted order:
// the statistic is a bit-exact function of the cell-count multiset,
// independent of the order observations were added in.
func (t *Contingency) ChiSquare() (stat float64, df int) {
	r, c := len(t.rows), len(t.cols)
	if r < 2 || c < 2 || t.total == 0 {
		return 0, 0
	}
	rowSums := make([]float64, r)
	colSums := make([]float64, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			rowSums[i] += float64(t.counts[i][j])
			colSums[j] += float64(t.counts[i][j])
		}
	}
	n := float64(t.total)
	terms := make([]float64, 0, r*c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			expected := rowSums[i] * colSums[j] / n
			if expected == 0 {
				continue
			}
			d := float64(t.counts[i][j]) - expected
			terms = append(terms, d*d/expected)
		}
	}
	slices.Sort(terms)
	for _, v := range terms {
		stat += v
	}
	return stat, (r - 1) * (c - 1)
}

// CramersV normalizes a chi-square statistic of the table into Cramér's V:
// sqrt(chi2 / (n * (min(R, C) - 1))), an association strength in [0, 1]
// comparable across attribute cardinalities. Degenerate tables (empty, or
// fewer than 2 rows or columns) return 0.
func (t *Contingency) CramersV(stat float64) float64 {
	n := float64(t.total)
	k := len(t.rows)
	if c := len(t.cols); c < k {
		k = c
	}
	if n == 0 || k < 2 {
		return 0
	}
	return math.Sqrt(stat / (n * float64(k-1)))
}
