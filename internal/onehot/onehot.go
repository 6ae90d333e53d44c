// Package onehot implements the one-hot encoding of Sec 3.1: nominal
// attribute (and parameter) values are translated into binary indicator
// columns, one per observed category, so that "if a vector x takes values
// a, b and c, one-hot encoding creates three vectors x=a, x=b and x=c, and
// the carrier with value b has values 0, 1, 0".
package onehot

import (
	"fmt"

	"auric/internal/dataset"
)

type column struct {
	categories []string
	index      map[string]int
	offset     int // first output column of this block
}

// Encoder maps rows of categorical string values to dense binary vectors.
// Build one with FitTable; a fitted encoder is safe for concurrent
// TransformTo calls.
type Encoder struct {
	cols  []column
	width int
}

// FitTable learns the category vocabulary of each column of a dataset
// table from its interned codes, without materializing string rows.
// Categories are numbered in first-seen table row order, per column, which
// is deterministic for a deterministic table.
func FitTable(t *dataset.Table) *Encoder {
	e := &Encoder{cols: make([]column, t.NumCols())}
	for ci := range e.cols {
		c := &e.cols[ci]
		*c = column{index: make(map[string]int)}
		d := t.Dict(ci)
		seen := make([]int, d.Len())
		for i := range seen {
			seen[i] = -1
		}
		for _, code := range t.ColumnCodes(ci) {
			if seen[code] < 0 {
				v := d.String(code)
				seen[code] = len(c.categories)
				c.index[v] = seen[code]
				c.categories = append(c.categories, v)
			}
		}
	}
	off := 0
	for i := range e.cols {
		e.cols[i].offset = off
		off += len(e.cols[i].categories)
	}
	e.width = off
	return e
}

// TransformTable encodes every row of a dataset table into a dense
// row-major buffer of shape t.Len() x Width(), equivalent to TransformTo
// on each of the table's string rows but driven column-major by the
// interned codes through a per-column code -> output-column table.
func (e *Encoder) TransformTable(t *dataset.Table) []float64 {
	if t.NumCols() != len(e.cols) {
		panic(fmt.Sprintf("onehot: table width %d, want %d", t.NumCols(), len(e.cols)))
	}
	out := make([]float64, t.Len()*e.width)
	for ci := range e.cols {
		c := &e.cols[ci]
		d := t.Dict(ci)
		lut := make([]int, d.Len())
		for code := range lut {
			if j, ok := c.index[d.String(int32(code))]; ok {
				lut[code] = c.offset + j
			} else {
				lut[code] = -1 // category outside the fitted vocabulary
			}
		}
		for i, code := range t.ColumnCodes(ci) {
			if j := lut[code]; j >= 0 {
				out[i*e.width+j] = 1
			}
		}
	}
	return out
}

// Width reports the number of output columns (the total category count).
func (e *Encoder) Width() int { return e.width }

// TransformTo encodes one row into dst, which must have length Width().
// dst is zeroed first. Unseen categories encode as an all-zero block for
// their column, which is the natural "no match" representation for a new
// carrier whose attribute value was never observed (Sec 6, "bootstrapping
// configuration for the unobserved").
func (e *Encoder) TransformTo(dst []float64, row []string) {
	if len(row) != len(e.cols) {
		panic(fmt.Sprintf("onehot: row width %d, want %d", len(row), len(e.cols)))
	}
	if len(dst) != e.width {
		panic(fmt.Sprintf("onehot: dst width %d, want %d", len(dst), e.width))
	}
	for i := range dst {
		dst[i] = 0
	}
	for i, v := range row {
		c := &e.cols[i]
		if j, ok := c.index[v]; ok {
			dst[c.offset+j] = 1
		}
	}
}
