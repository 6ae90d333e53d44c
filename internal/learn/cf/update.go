package cf

import (
	"fmt"
	"slices"

	"auric/internal/dataset"
	"auric/internal/learn"
	"auric/internal/stats"
)

// Update absorbs a batch of row changes into the fitted state and returns
// a new Model, leaving the receiver untouched (readers of the current
// generation keep serving from it). t must be the receiver's table rebased
// onto an extended columnar base (dataset.Extension.Rebase) with the new
// samples appended past the old length by AppendSample; removed lists the
// Sites whose live rows are to be tombstoned (sites matching no live row
// are ignored, which is how pair-wise models skip relations they never saw
// configured). Only a table derived that way keeps the receiver's label
// codes and extends its LabelDict, which the patched tallies index; Update
// rejects a dictionary shorter than the receiver's but cannot detect one
// numbered differently.
//
// Update patches the match structures in place of a refit: posting lists
// and exact-index groups are rewritten only for the codes the changed rows
// touch, tombstoned rows keep their row ids (excluded from every structure
// via the dead mask), and appended rows take the next ids, so the patch
// cost scales with the change, not the table. The chi-square dependency
// set is re-derived from the patched counts. A new relaxation order alone
// changes no match structure, since the exact index is keyed in column
// order. When the set itself shifts, columns entering it get posting lists
// over the live rows, columns leaving it drop theirs, and the exact index
// is rebuilt over the live rows. The returned bool reports whether the
// dependent set stayed the same. The returned model's table is t, and its
// predictions are byte-identical to a from-scratch refit over the same
// live samples; the equivalence tests in this package pin that down.
//
// Update is a single-writer operation: updates must be applied to the
// latest generation only (the core engine serializes ingest under its load
// lock).
func (m *Model) Update(t *dataset.Table, removed []dataset.Site) (*Model, bool, error) {
	oldN, newN := m.t.Len(), t.Len()
	if newN < oldN {
		return nil, false, fmt.Errorf("cf: Update table shrank from %d to %d rows", oldN, newN)
	}
	if len(t.LabelCodes) != newN {
		return nil, false, fmt.Errorf("cf: Update table has %d samples for %d rows (identity tables need a sample per appended base row)", len(t.LabelCodes), newN)
	}
	if t.LabelDict.Len() < len(m.labelCounts) {
		return nil, false, fmt.Errorf("cf: Update table has %d labels, fewer than the model's %d (t must extend the model's table)", t.LabelDict.Len(), len(m.labelCounts))
	}

	// Resolve tombstoned sites against the live rows.
	var rm []int32
	if len(removed) > 0 {
		for i := 0; i < oldN; i++ {
			if !m.isLive(i) {
				continue
			}
			for _, r := range removed {
				if t.Sites[i] == r {
					rm = append(rm, int32(i))
					break
				}
			}
		}
	}
	added := newN - oldN
	nm := m.cloneFor(t)
	if added == 0 && len(rm) == 0 {
		// Pure rebase: the base grew for other parameters' sake, this
		// model's samples are untouched. All fitted state carries over.
		return nm, true, nil
	}

	live := m.live + added - len(rm)
	if live == 0 {
		return nil, false, learn.ErrEmptyTable
	}

	// The rebased table's label space extends the old one (AppendSample
	// interns a new label past the old codes), so the tallies only grow.
	lc := t.LabelCodes
	numLabels := t.LabelDict.Len()
	counts := make([]int32, numLabels)
	copy(counts, m.labelCounts)
	for _, c := range lc[oldN:] {
		counts[c]++
	}
	for _, ri := range rm {
		counts[lc[ri]]--
	}
	nm.labelCounts = counts
	nm.live = live

	// Tombstone mask, extended to the new length.
	dead := make([]bool, newN)
	copy(dead, m.dead)
	for _, ri := range rm {
		dead[ri] = true
	}
	nm.dead = dead

	// Patch every column's contingency table: clone, grow to the (possibly
	// extended) dictionary cardinality and label space, subtract the
	// tombstoned rows, add the appended ones.
	ncols := t.NumCols()
	cc := make([]*stats.CountTable, ncols)
	for c := 0; c < ncols; c++ {
		ct := m.colCounts[c].Clone()
		ct.Grow(t.Dict(c).Len(), numLabels)
		cc[c] = ct
	}
	for _, ri := range rm {
		yc := int(lc[ri])
		for c := 0; c < ncols; c++ {
			cc[c].Sub(int(t.Code(int(ri), c)), yc)
		}
	}
	for i := oldN; i < newN; i++ {
		yc := int(lc[i])
		for c := 0; c < ncols; c++ {
			cc[c].Add(int(t.Code(i, c)), yc)
		}
	}
	nm.colCounts = cc

	// Re-derive the dependency set from the patched counts through the
	// exact code path Fit uses, then patch the match structures
	// copy-on-write. Appended row ids exceed every existing id (rows are
	// only ever appended; dead rows keep their ids), so additions go at
	// list tails and stay sorted.
	nm.computeDeps()
	sameSet := slices.Equal(nm.keyCols, m.keyCols)
	sc := getFitScratch(newN)
	defer fitScratchPool.Put(sc)
	nm.post = m.patchPostings(nm, sc, rm, oldN)
	if sameSet {
		nm.index, nm.indexAdd, nm.idxLists = m.patchIndex(t, rm, oldN, newN)
	} else {
		nm.buildIndex(sc)
	}
	nm.setGlobal()
	return nm, sameSet, nil
}

// cloneFor returns a Model carrying all of m's fitted state over table t.
// Fields the caller mutates must be replaced wholesale (copy-on-write);
// the sync.Once and lazy site rows deliberately start fresh.
func (m *Model) cloneFor(t *dataset.Table) *Model {
	return &Model{
		t:    t,
		opts: m.opts,

		deps:     m.deps,
		depStats: m.depStats,
		keyCols:  m.keyCols,

		labelCounts: m.labelCounts,
		colCounts:   m.colCounts,

		index:    m.index,
		indexAdd: m.indexAdd,
		idxLists: m.idxLists,
		post:     m.post,

		valueShare: m.valueShare,
		valuePin:   m.valuePin,

		dead: m.dead,
		live: m.live,

		globalLabel: m.globalLabel,
		globalShare: m.globalShare,
	}
}

// patchPostings returns nm's posting lists, carried over from m. For each
// column that stays dependent it rewrites only the per-code lists the
// changed rows touch; every untouched list is shared with the previous
// generation. Edits are grouped by code so each touched list is rebuilt
// once with a single allocation, not re-cloned per changed row — the
// difference between O(edits) and O(touched lists) full-list copies, which
// dominates Update when a delta carries many pair rows. A column entering
// the dependent set gets fresh lists over nm's live rows, built with sc;
// the lists of a column leaving it are dropped.
func (m *Model) patchPostings(nm *Model, sc *fitScratch, rm []int32, oldN int) [][][]int32 {
	t := nm.t
	newN := t.Len()
	post := make([][][]int32, t.NumCols())
	var codes []int32
	for _, d := range nm.deps {
		if _, kept := slices.BinarySearch(m.keyCols, d); !kept {
			post[d] = nm.buildPosting(sc, d)
			continue
		}
		card := t.Dict(d).Len()
		p := make([][]int32, card)
		copy(p, m.post[d]) // old cardinality may be smaller; the tail stays nil
		codes = codes[:0]
		for _, ri := range rm {
			codes = append(codes, t.Code(int(ri), d))
		}
		for i := oldN; i < newN; i++ {
			codes = append(codes, t.Code(i, d))
		}
		slices.Sort(codes)
		codes = slices.Compact(codes)
		for _, code := range codes {
			old := p[code]
			adds := 0
			for i := oldN; i < newN; i++ {
				if t.Code(i, d) == code {
					adds++
				}
			}
			out := make([]int32, 0, len(old)+adds)
			j := 0
			for _, x := range old {
				for j < len(rm) && rm[j] < x {
					j++
				}
				if j < len(rm) && rm[j] == x {
					j++
					continue
				}
				out = append(out, x)
			}
			// Appended row ids (oldN..newN) exceed every surviving id, so
			// the list stays sorted without a search.
			for i := oldN; i < newN; i++ {
				if t.Code(i, d) == code {
					out = append(out, int32(i))
				}
			}
			if len(out) == 0 {
				out = nil // match Fit's representation of an absent code
			}
			p[code] = out
		}
		post[d] = p
	}
	return post
}

// patchIndex rewrites only the exact-match groups the changed rows fall
// into. Keys first seen after fit go into the indexAdd overlay (the base
// map stays shared and immutable); a group emptied by tombstones keeps its
// id with a nil list, which votes exactly like a missing key.
func (m *Model) patchIndex(t *dataset.Table, rm []int32, oldN, newN int) (map[string]int32, map[string]int32, [][]int32) {
	idxLists := make([][]int32, len(m.idxLists), len(m.idxLists)+newN-oldN)
	copy(idxLists, m.idxLists)
	indexAdd := m.indexAdd
	if indexAdd != nil {
		indexAdd = make(map[string]int32, len(m.indexAdd)+newN-oldN)
		for k, v := range m.indexAdd {
			indexAdd[k] = v
		}
	}
	lookup := func(key string) (int32, bool) {
		if g, ok := m.index[key]; ok {
			return g, true
		}
		if indexAdd != nil {
			if g, ok := indexAdd[key]; ok {
				return g, true
			}
		}
		return 0, false
	}
	kb := make([]byte, 0, 4*len(m.keyCols))
	rowKey := func(i int) []byte {
		kb = kb[:0]
		for _, d := range m.keyCols {
			kb = appendCode(kb, t.Code(i, d))
		}
		return kb
	}
	for _, ri := range rm {
		if g, ok := lookup(string(rowKey(int(ri)))); ok {
			idxLists[g] = removeSortedRow(idxLists[g], ri)
		}
	}
	for i := oldN; i < newN; i++ {
		key := rowKey(i)
		g, ok := lookup(string(key))
		if !ok {
			g = int32(len(idxLists))
			idxLists = append(idxLists, nil)
			if indexAdd == nil {
				indexAdd = make(map[string]int32, newN-oldN)
			}
			indexAdd[string(key)] = g // string(key) copies: durable map key
		}
		idxLists[g] = appendSortedRow(idxLists[g], int32(i))
	}
	return m.index, indexAdd, idxLists
}

// removeSortedRow returns l without x, copy-on-write. A list emptied by
// the removal becomes nil, matching Fit's representation of an absent
// code.
func removeSortedRow(l []int32, x int32) []int32 {
	i, ok := slices.BinarySearch(l, x)
	if !ok {
		return l
	}
	if len(l) == 1 {
		return nil
	}
	out := make([]int32, len(l)-1)
	copy(out, l[:i])
	copy(out[i:], l[i+1:])
	return out
}

// appendSortedRow returns l with x appended, copy-on-write. x must exceed
// every element (appended rows take the highest ids), keeping the list
// sorted without a search.
func appendSortedRow(l []int32, x int32) []int32 {
	if n := len(l); n > 0 && l[n-1] >= x {
		panic("cf: appendSortedRow out of order")
	}
	out := make([]int32, len(l)+1)
	copy(out, l)
	out[len(l)] = x
	return out
}
