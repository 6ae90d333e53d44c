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
// samples appended past the old length; removed lists the Sites whose live
// rows are to be tombstoned (sites matching no live row are ignored, which
// is how pair-wise models skip relations they never saw configured).
//
// When the chi-square dependency set and its relaxation ordering are
// unchanged by the new counts, Update patches the match structures in
// place of a refit: posting lists and exact-index groups are rewritten
// only for the codes the changed rows touch, tombstoned rows keep their
// row ids (excluded from every structure via the dead mask), and appended
// rows take the next ids, so the patch cost scales with the change, not
// the table. When the dependency set shifts — a structural change — Update
// falls back to refitting this one parameter over the surviving rows and
// reports patched=false. Either way the returned model's predictions are
// byte-identical to a from-scratch refit over the same live samples; the
// equivalence tests in this package pin that down.
//
// Update is a single-writer operation: updates must be applied to the
// latest generation only (the core engine serializes ingest under its load
// lock).
func (m *Model) Update(t *dataset.Table, removed []dataset.Site) (*Model, bool, error) {
	oldN, newN := m.t.Len(), t.Len()
	if newN < oldN {
		return nil, false, fmt.Errorf("cf: Update table shrank from %d to %d rows", oldN, newN)
	}
	if len(t.Labels) != newN {
		return nil, false, fmt.Errorf("cf: Update table has %d samples for %d rows (identity tables need a sample per appended base row)", len(t.Labels), newN)
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

	// Intern the appended rows' labels, growing the label space
	// copy-on-write when a value never seen by this parameter arrives.
	lc := m.labelCodes
	ld := m.labelDict
	labels := m.labels
	counts := slices.Clone(m.labelCounts)
	for i := oldN; i < newN; i++ {
		lab := t.Labels[i]
		code := ld.Code(lab)
		if code < 0 {
			if ld == m.labelDict {
				ld = ld.CloneForIntern()
			}
			code = ld.Intern(lab)
			labels = append(labels, lab)
			counts = append(counts, 0)
		}
		lc = append(lc, code)
		counts[code]++
	}
	for _, ri := range rm {
		counts[lc[ri]]--
	}
	nm.labelCodes, nm.labelDict, nm.labels, nm.labelCounts = lc, ld, labels, counts
	nm.live = live
	numLabels := len(labels)

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
	// exact code path Fit uses. If selection or ordering shifted, the match
	// structures cannot be patched — refit this one parameter.
	nm.computeDeps()
	if !slices.Equal(nm.deps, m.deps) {
		return m.refitLive(t, dead, live)
	}

	// Dependencies held: patch the match structures copy-on-write. Appended
	// row ids exceed every existing id (rows are only ever appended; dead
	// rows keep their ids), so additions go at list tails and stay sorted.
	nm.post = m.patchPostings(t, rm, oldN, newN)
	nm.index, nm.indexAdd, nm.idxLists = m.patchIndex(t, rm, oldN, newN)
	nm.all = patchRows(m.all, rm, oldN, newN, live)

	// Global fallback from the dense label tallies; identical tie-breaking
	// (lexicographically smallest label) and share arithmetic to
	// learn.MajorityLabel over the live labels.
	best := -1
	for c := range counts {
		if counts[c] == 0 {
			continue
		}
		if best < 0 || counts[c] > counts[best] ||
			(counts[c] == counts[best] && labels[c] < labels[best]) {
			best = c
		}
	}
	nm.globalLabel = labels[best]
	nm.globalShare = float64(counts[best]) / float64(live)
	return nm, true, nil
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

		labels:      m.labels,
		labelCodes:  m.labelCodes,
		labelDict:   m.labelDict,
		labelCounts: m.labelCounts,
		colCounts:   m.colCounts,

		index:    m.index,
		indexAdd: m.indexAdd,
		idxLists: m.idxLists,
		post:     m.post,
		all:      m.all,

		valueShare: m.valueShare,
		valuePin:   m.valuePin,

		dead: m.dead,
		live: m.live,

		globalLabel: m.globalLabel,
		globalShare: m.globalShare,
	}
}

// refitLive refits the parameter from scratch over the surviving rows — a
// structural change (the dependency set or its ordering shifted) makes
// patching unsound. Still orders of magnitude cheaper than retraining the
// whole engine: one parameter, one pass.
func (m *Model) refitLive(t *dataset.Table, dead []bool, live int) (*Model, bool, error) {
	idx := make([]int, 0, live)
	for i := 0; i < t.Len(); i++ {
		if !dead[i] {
			idx = append(idx, i)
		}
	}
	nm, err := Fit(t.Subset(idx), m.opts)
	return nm, false, err
}

// patchPostings rewrites, for each dependent column, only the per-code
// lists the changed rows touch; every untouched list is shared with the
// previous generation. Edits are grouped by code so each touched list is
// rebuilt once with a single allocation, not re-cloned per changed row —
// the difference between O(edits) and O(touched lists) full-list copies,
// which dominates Update when a delta carries many pair rows.
func (m *Model) patchPostings(t *dataset.Table, rm []int32, oldN, newN int) [][][]int32 {
	post := make([][][]int32, t.NumCols())
	copy(post, m.post)
	var codes []int32
	for _, d := range m.deps {
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
	kb := make([]byte, 0, 4*len(m.deps))
	rowKey := func(i int) []byte {
		kb = kb[:0]
		for _, d := range m.deps {
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

// patchRows rebuilds one ascending row list under the change set: the
// tombstoned ids (ascending) drop out, the appended range goes on the end.
func patchRows(rows, rm []int32, oldN, newN, live int) []int32 {
	out := make([]int32, 0, live)
	ri := 0
	for _, r := range rows {
		if ri < len(rm) && rm[ri] == r {
			ri++
			continue
		}
		out = append(out, r)
	}
	for i := oldN; i < newN; i++ {
		out = append(out, int32(i))
	}
	return out
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
