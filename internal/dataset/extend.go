package dataset

import "fmt"

// Extension captures the copy-on-write growth of one shared columnar base:
// new attribute rows are appended past the published length, new values are
// interned into cloned dictionaries, and every table over the old base can
// be rebased onto the grown one. This is the data-layer half of live
// ingest — the published base and all tables over it stay valid for
// concurrent readers while a single writer extends the world.
//
// Concurrency contract: extensions must be produced by one writer at a
// time, always from the latest generation (the base most recently returned
// by Rebase). Appends write only at positions at or beyond the published
// row count, which concurrent readers of earlier generations never index,
// so no locking is needed on the read side.
type Extension struct {
	old *columns
	neu *columns
}

// ExtendBase appends the given attribute rows to t's shared columnar base,
// copy-on-write: the returned Extension holds a new base of t.base's
// columns plus the rows, with dictionaries cloned only for columns that saw
// a previously-unseen value. t itself is not modified.
func ExtendBase(t *Table, rows [][]string) *Extension {
	if t.base == nil {
		panic("dataset: ExtendBase on a table without a columnar base")
	}
	old := t.base
	neu := &columns{
		dicts: make([]*Dict, len(old.dicts)),
		codes: make([][]int32, len(old.codes)),
		n:     old.n + len(rows),
	}
	copy(neu.dicts, old.dicts)
	copy(neu.codes, old.codes)
	for _, row := range rows {
		if len(row) != len(neu.dicts) {
			panic(fmt.Sprintf("dataset: ExtendBase row width %d, want %d", len(row), len(neu.dicts)))
		}
		for c, v := range row {
			d := neu.dicts[c]
			code := d.Code(v)
			if code < 0 {
				if d == old.dicts[c] {
					d = d.CloneForIntern()
					neu.dicts[c] = d
				}
				code = d.Intern(v)
			}
			neu.codes[c] = append(neu.codes[c], code)
		}
	}
	return &Extension{old: old, neu: neu}
}

// FirstRow returns the base row id of the first appended row; the k-th
// appended row is base row FirstRow()+k.
func (e *Extension) FirstRow() int32 { return int32(e.old.n) }

// Rebase returns a view of t over the extended base: same samples, same
// row mapping, new code space. The result is a fresh Table whose
// per-sample slices and label dictionary still alias t's until the caller
// appends to them (see AppendSample); t itself is untouched and keeps
// serving readers of the previous generation.
func (e *Extension) Rebase(t *Table) *Table {
	if t.base != e.old && t.base != e.neu {
		panic("dataset: Rebase on a table from a different base family")
	}
	return &Table{
		Param:        t.Param,
		Spec:         t.Spec,
		ColNames:     t.ColNames,
		LabelCodes:   t.LabelCodes,
		LabelDict:    t.LabelDict,
		Values:       t.Values,
		Sites:        t.Sites,
		base:         e.neu,
		rowIdx:       t.rowIdx,
		sharedLabels: true,
	}
}

// AppendSample appends one sample referencing base row baseRow to a
// rebased table. Identity views (rowIdx == nil) must append base rows in
// order, keeping table row i == base row i; derived views record the base
// row in their row mapping. Appends use copy-on-write slice growth: they
// may write in place past the published lengths, which readers of earlier
// generations never index. The row-index and Sites slices Builder.Labeled
// shares between sibling tables come at full capacity, so a sibling's
// first append copies them and never writes where another table reads.
// The label is interned copy-on-write too: the first label the source
// table never held clones the shared dictionary, and later samples with
// that label reuse its code.
func (t *Table) AppendSample(baseRow int32, label string, value float64, site Site) {
	if t.rowIdx != nil {
		t.rowIdx = append(t.rowIdx, baseRow)
	} else if int(baseRow) != len(t.LabelCodes) {
		panic(fmt.Sprintf("dataset: identity table sample at base row %d, want %d", baseRow, len(t.LabelCodes)))
	}
	t.appendSample(label, value, site)
}

// appendSample appends one sample's label, value and site.
func (t *Table) appendSample(label string, value float64, site Site) {
	code := t.LabelDict.Code(label)
	if code < 0 {
		if t.sharedLabels {
			t.LabelDict = t.LabelDict.CloneForIntern()
			t.sharedLabels = false
		}
		code = t.LabelDict.Intern(label)
	}
	t.LabelCodes = append(t.LabelCodes, code)
	t.Values = append(t.Values, value)
	t.Sites = append(t.Sites, site)
}
