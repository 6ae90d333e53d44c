// Package tree implements the decision-tree learner of Sec 3.2: splits are
// chosen by Gini impurity reduction and the tree is expanded until leaves
// are pure (all samples share a label), matching the evaluation setup of
// Sec 4.2. Because all predictors are one-hot encoded categoricals, every
// split is an equality test "attribute == category", which keeps the
// explanations the paper's engineers valued (Fig 8) directly readable.
//
// Fitting runs directly on the columnar substrate of the dataset layer:
// a Frame remaps the table's shared dictionary codes to table-first-seen
// local ids once (flat per-column remap arrays, one column-major code
// arena), split search reads Gini for every category off a dense
// [cardinality x labels] count table filled in one pass per column, and
// node row sets are partitioned in place inside a single backing slice.
// All per-node working storage comes from a pooled arena, so growing a
// tree allocates little beyond the node array — the same playbook as the
// collaborative-filtering fit path (DESIGN.md "Columnar tree/forest
// fit"). Predictions are byte-identical to the original row-based
// builder, which survives as refBuilder in the equivalence tests.
package tree

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"auric/internal/dataset"
	"auric/internal/learn"
	"auric/internal/rng"
)

func init() { learn.Register("decision-tree", func() learn.Learner { return New() }) }

// Options are the tree hyperparameters.
type Options struct {
	// MinLeaf is the minimum number of samples in a leaf; below it the
	// node stops splitting. Zero means 1 (grow to purity, the paper's
	// setting).
	MinLeaf int
	// MaxDepth limits tree depth; zero means unlimited.
	MaxDepth int
	// ColsPerSplit samples this many candidate columns at each node
	// (random-forest style). Zero considers every column.
	ColsPerSplit int
	// OneHotFeatureSample, when set, samples ceil(sqrt(W)) candidate
	// (column, category) pairs per node, where W is the total one-hot
	// width (the number of distinct (column, category) pairs). This is
	// how scikit-learn's random forest sees one-hot encoded data — each
	// binary indicator is one feature — and is weaker per node than
	// ColsPerSplit, which admits every category of a sampled column.
	OneHotFeatureSample bool
	// Seed drives feature sampling.
	Seed uint64
}

// Learner fits decision trees.
type Learner struct {
	Opts Options
}

// New returns a tree learner with the paper's defaults (Gini, pure leaves).
func New() *Learner { return &Learner{} }

// Name implements learn.Learner.
func (l *Learner) Name() string { return "decision-tree" }

// Fit implements learn.Learner.
func (l *Learner) Fit(t *dataset.Table) (learn.Model, error) {
	if t.Len() == 0 {
		return nil, learn.ErrEmptyTable
	}
	idx := make([]int, t.Len())
	for i := range idx {
		idx[i] = i
	}
	return l.FitIndices(t, idx)
}

// FitIndices fits a tree on the given row subset (with repetitions allowed,
// as produced by bootstrap sampling). Callers fitting many trees over the
// same table (the random-forest learner) should build one Frame and use
// FitFrame, which shares the encoded columns across the ensemble.
func (l *Learner) FitIndices(t *dataset.Table, idx []int) (*Tree, error) {
	if len(idx) == 0 {
		return nil, learn.ErrEmptyTable
	}
	return l.FitFrame(NewFrame(t), idx)
}

// Frame is the columnar encoded view of one learning table: the table's
// shared dictionary codes remapped to table-first-seen local ids (flat
// []int32 remap per column, codes laid out in one column-major arena),
// plus the table's label codes and the per-column vocabularies. A Frame
// is immutable once built, so any number of trees — including concurrent
// bootstrap fits — can grow over the same Frame; trees retain its
// vocabulary slices, never its code columns.
type Frame struct {
	cols      []string
	n         int
	numLabels int
	codes     [][]int32 // per-column local codes in table row order
	y         []int32   // the table's label codes, first-seen order
	labels    []string  // the table's label dictionary, in code order
	colVocab  []map[string]int32
	catNames  [][]string // reverse of colVocab: local id -> category name
	cards     []int32    // per-column local vocabulary size
	colOff    []int32    // prefix sums of cards (flattened one-hot offsets)
	width     int        // total one-hot width (sum of cards)
	maxCard   int
	allCols   []int32 // 0..ncols-1, the no-sampling candidate list
}

// NewFrame encodes a table once for tree growth. Category numbering (and
// with it split tie-breaking and explanations) depends only on this
// table's row order, not on the shared base the dictionary was interned
// into — the same first-seen remap the original row-based builder applied
// per fit, now computed once per table.
func NewFrame(t *dataset.Table) *Frame {
	n, ncols := t.Len(), t.NumCols()
	f := &Frame{
		cols:     t.ColNames,
		n:        n,
		codes:    make([][]int32, ncols),
		colVocab: make([]map[string]int32, ncols),
		catNames: make([][]string, ncols),
		cards:    make([]int32, ncols),
		colOff:   make([]int32, ncols+1),
		allCols:  make([]int32, ncols),
	}
	arena := make([]int32, n*ncols)
	var colBuf, remap []int32
	for c := 0; c < ncols; c++ {
		f.allCols[c] = int32(c)
		src := t.ColumnCodesScratch(colBuf, c)
		if len(src) > 0 && cap(colBuf) < len(src) {
			colBuf = src[:0] // keep the gather buffer ColumnCodesScratch grew
		}
		dict := t.Dict(c)
		if cap(remap) < dict.Len() {
			remap = make([]int32, dict.Len())
		}
		rm := remap[:dict.Len()]
		for i := range rm {
			rm[i] = -1
		}
		vocab := make(map[string]int32)
		var names []string
		dst := arena[c*n : (c+1)*n]
		for i, code := range src {
			id := rm[code]
			if id < 0 {
				id = int32(len(names))
				rm[code] = id
				name := dict.String(code)
				vocab[name] = id
				names = append(names, name)
			}
			dst[i] = id
		}
		f.codes[c] = dst
		f.colVocab[c] = vocab
		f.catNames[c] = names
		f.cards[c] = int32(len(names))
		f.colOff[c+1] = f.colOff[c] + int32(len(names))
		if len(names) > f.maxCard {
			f.maxCard = len(names)
		}
	}
	f.width = int(f.colOff[ncols])

	f.y = t.LabelCodes
	f.labels = t.LabelDict.Strings()
	f.numLabels = len(f.labels)
	return f
}

// Labels returns the frame's label vocabulary in first-seen order. Leaf
// label codes of every tree grown over the frame index into it.
func (f *Frame) Labels() []string { return f.labels }

// EncodeRowInto translates a query row into the frame's local code space
// (one code per column, -1 for categories never seen in the table),
// appending into dst. Rows encoded once this way can be pushed through
// Tree.PredictCodes on every tree sharing the frame — the forest vote
// path's per-call amortization.
func (f *Frame) EncodeRowInto(dst []int32, row []string) []int32 {
	dst = dst[:0]
	for c := range f.colVocab {
		if id, ok := f.colVocab[c][row[c]]; ok {
			dst = append(dst, id)
		} else {
			dst = append(dst, -1)
		}
	}
	return dst
}

// FitFrame fits a tree on the given row subset of an encoded frame. It is
// the ensemble fitting primitive: the forest learner encodes its table
// once and grows every bootstrap tree over the shared frame, possibly
// concurrently.
func (l *Learner) FitFrame(f *Frame, idx []int) (*Tree, error) {
	if len(idx) == 0 {
		return nil, learn.ErrEmptyTable
	}
	opts := l.Opts
	if opts.MinLeaf <= 0 {
		opts.MinLeaf = 1
	}
	sc := fitScratchPool.Get().(*fitScratch)
	sc.reserve(f, len(idx))
	// Deduplicate the row set into (row, multiplicity) pairs — bootstrap
	// samples repeat ~37% of their rows, and every growth decision consumes
	// only label/category counts, so counting each distinct row once with
	// its weight yields the exact same integers (and the exact same tree)
	// while shrinking every pass over the node. The counting pass also
	// leaves rows sorted, so column gathers run in table order.
	occ := sc.occ[:f.n]
	for _, v := range idx {
		occ[v]++
	}
	m := 0
	for i, c := range occ {
		if c != 0 {
			sc.idx[m] = int32(i)
			sc.w[m] = c
			occ[i] = 0
			m++
		}
	}
	b := &builder{f: f, opts: opts, sc: sc, r: rng.New(opts.Seed)}
	root := b.grow(0, m, 0)
	tr := &Tree{
		cols:     f.cols,
		colVocab: f.colVocab,
		catNames: f.catNames,
		labels:   f.labels,
		nodes:    b.nodes,
		root:     root,
	}
	// Not deferred: a panic mid-grow would return scratch that violates
	// the zeroed counts invariant, so poisoned arenas are dropped instead.
	fitScratchPool.Put(sc)
	return tr, nil
}

// Tree is a fitted decision tree.
type Tree struct {
	cols     []string
	colVocab []map[string]int32
	catNames [][]string
	labels   []string
	nodes    []node
	root     int32
}

type node struct {
	// Internal nodes test row[col] == cat: equal goes left.
	col, cat    int32
	left, right int32
	// Leaves carry a label and its purity.
	leaf   bool
	label  int32
	purity float64
	n      int
}

// NumNodes reports the tree size.
func (tr *Tree) NumNodes() int { return len(tr.nodes) }

// Predict implements learn.Model.
func (tr *Tree) Predict(row []string) learn.Prediction {
	var path strings.Builder
	ni := tr.root
	for {
		nd := &tr.nodes[ni]
		if nd.leaf {
			return learn.Prediction{
				Label:      tr.labels[nd.label],
				Confidence: nd.purity,
				Explanation: fmt.Sprintf("decision path %s→ %s (leaf purity %.2f, n=%d)",
					path.String(), tr.labels[nd.label], nd.purity, nd.n),
			}
		}
		colName := tr.cols[nd.col]
		catName := tr.catName(nd.col, nd.cat)
		if tr.encodeValue(nd.col, row[nd.col]) == nd.cat {
			fmt.Fprintf(&path, "%s=%s ", colName, catName)
			ni = nd.left
		} else {
			fmt.Fprintf(&path, "%s≠%s ", colName, catName)
			ni = nd.right
		}
	}
}

// PredictLabel implements learn.LabelModel: the label Predict would
// return, without assembling the decision-path explanation — the
// allocation-free form of the evaluation hot loop.
func (tr *Tree) PredictLabel(row []string) string {
	return tr.labels[tr.leaf(row).label]
}

// leaf walks the tree for one query row and returns its leaf node.
func (tr *Tree) leaf(row []string) *node {
	ni := tr.root
	for {
		nd := &tr.nodes[ni]
		if nd.leaf {
			return nd
		}
		if tr.encodeValue(nd.col, row[nd.col]) == nd.cat {
			ni = nd.left
		} else {
			ni = nd.right
		}
	}
}

// PredictCodes walks the tree over a row pre-encoded against the fitting
// frame (Frame.EncodeRowInto) and returns the leaf's label code into
// Frame.Labels. The ensemble vote path encodes each query row once and
// reuses the codes across every tree of the forest.
func (tr *Tree) PredictCodes(codes []int32) int32 {
	ni := tr.root
	for {
		nd := &tr.nodes[ni]
		if nd.leaf {
			return nd.label
		}
		if codes[nd.col] == nd.cat {
			ni = nd.left
		} else {
			ni = nd.right
		}
	}
}

// catName resolves a local category id to its name through the reverse
// vocabulary built at fit time (the explanation path runs this on every
// internal node, so it must not scan the map).
func (tr *Tree) catName(col, cat int32) string {
	if names := tr.catNames[col]; cat >= 0 && int(cat) < len(names) {
		return names[cat]
	}
	return fmt.Sprintf("cat(%d)", cat)
}

func (tr *Tree) encodeValue(col int32, v string) int32 {
	if id, ok := tr.colVocab[col][v]; ok {
		return id
	}
	return -1 // unseen category never equals a split category
}

// fitScratch is the arena-style working storage of one tree growth: the
// in-place node partition arena, the dense per-column count table of the
// split search, and the sampling/permutation buffers. Fits draw scratch
// from fitScratchPool — the forest's parallel bootstrap fan-out reuses
// one arena per worker instead of allocating per node. Invariant: counts
// and catN are all-zero between uses (bestSplit re-zeroes what it
// touched — by memclr or by re-walking the node's rows, whichever is
// cheaper), so pool reuse never pays an up-front clear.
// Nothing in a fitScratch may be retained by the fitted Tree.
type fitScratch struct {
	idx     []int32 // node row sets (distinct rows), partitioned in place
	w       []int32 // per-row multiplicities, partitioned alongside idx
	part    []int32 // stable-partition spill buffer (right halves)
	partW   []int32 // multiplicity spill, parallel to part
	occ     []int32 // per-table-row occurrence counts for dedup (zeroed)
	counts  []int32 // [card x labels] per-column count table (zeroed)
	catN    []int32 // per-category row counts within a node (zeroed)
	nodeLab []int32 // label histogram of the current node
	rest    []int32 // complement label counts of a candidate split
	perm    []int   // permutation buffer for feature sampling
	cand    []int32 // candidate columns or sampled pairs of the current node
}

var fitScratchPool = sync.Pool{New: func() any { return new(fitScratch) }}

// reserve sizes every buffer for one growth over n rows of frame f.
func (sc *fitScratch) reserve(f *Frame, n int) {
	if cap(sc.idx) < n {
		sc.idx = make([]int32, n)
		sc.w = make([]int32, n)
	}
	sc.idx = sc.idx[:n]
	sc.w = sc.w[:n]
	if cap(sc.part) < n {
		sc.part = make([]int32, 0, n)
		sc.partW = make([]int32, 0, n)
	}
	if cap(sc.occ) < f.n {
		sc.occ = make([]int32, f.n)
	}
	if need := f.maxCard * f.numLabels; cap(sc.counts) < need {
		sc.counts = make([]int32, need)
	}
	if cap(sc.catN) < f.maxCard {
		sc.catN = make([]int32, f.maxCard)
	}
	if cap(sc.nodeLab) < f.numLabels {
		sc.nodeLab = make([]int32, f.numLabels)
		sc.rest = make([]int32, f.numLabels)
	}
	permLen := f.width
	if len(f.codes) > permLen {
		permLen = len(f.codes)
	}
	if cap(sc.perm) < permLen {
		sc.perm = make([]int, permLen)
	}
}

// builder grows one tree over a frame.
type builder struct {
	f     *Frame
	opts  Options
	sc    *fitScratch
	nodes []node
	r     *rng.RNG
}

// grow builds the subtree over sc.idx[lo:hi] and returns its node index.
// The row set is partitioned in place: children operate on disjoint
// subranges of the same backing slice, so growth allocates no per-node
// index copies.
func (b *builder) grow(lo, hi, depth int) int32 {
	idx := b.sc.idx[lo:hi]
	w := b.sc.w[lo:hi]
	majority, purity, total, pure := b.leafStats(idx, w)
	if pure || total <= b.opts.MinLeaf ||
		(b.opts.MaxDepth > 0 && depth >= b.opts.MaxDepth) {
		return b.addLeaf(majority, purity, total)
	}
	col, cat, gain := b.bestSplit(idx, w, total)
	if gain <= 1e-12 {
		return b.addLeaf(majority, purity, total)
	}
	// Stable in-place partition: rows matching the split compact to the
	// front, the rest spill to the side buffer and copy back behind them.
	// Relative order is preserved on both sides, exactly as the original
	// builder's append-grown left/right copies were ordered.
	codes := b.f.codes[col]
	part := b.sc.part[:0]
	partW := b.sc.partW[:0]
	mid := lo
	for j, i := range idx {
		if codes[i] == cat {
			b.sc.idx[mid] = i
			b.sc.w[mid] = w[j]
			mid++
		} else {
			part = append(part, i)
			partW = append(partW, w[j])
		}
	}
	copy(b.sc.idx[mid:hi], part)
	copy(b.sc.w[mid:hi], partW)
	b.sc.part = part[:0]
	b.sc.partW = partW[:0]
	// Reserve the node before recursing so children get later indices.
	ni := int32(len(b.nodes))
	b.nodes = append(b.nodes, node{col: col, cat: cat})
	l := b.grow(lo, mid, depth+1)
	r := b.grow(mid, hi, depth+1)
	b.nodes[ni].left = l
	b.nodes[ni].right = r
	return ni
}

func (b *builder) addLeaf(label int32, purity float64, n int) int32 {
	ni := int32(len(b.nodes))
	b.nodes = append(b.nodes, node{leaf: true, label: label, purity: purity, n: n})
	return ni
}

// leafStats returns the majority label of the node, its share, the node's
// total sample count (row multiplicities summed), and whether the node is
// pure. It leaves the node's label histogram in sc.nodeLab for bestSplit
// to reuse.
func (b *builder) leafStats(idx, w []int32) (majority int32, purity float64, total int, pure bool) {
	counts := b.sc.nodeLab[:b.f.numLabels]
	clear(counts)
	y := b.f.y
	distinct := 0
	for j, i := range idx {
		if counts[y[i]] == 0 {
			distinct++
		}
		counts[y[i]] += w[j]
		total += int(w[j])
	}
	bestN := int32(-1)
	for l, n := range counts {
		if n > bestN {
			majority, bestN = int32(l), n
		}
	}
	return majority, float64(bestN) / float64(total), total, distinct == 1
}

// bestSplit scans candidate (column, category) equality splits and returns
// the one with the largest Gini impurity decrease. Each candidate column
// is counted into a dense [cardinality x labels] table in one pass over
// the node's rows; the Gini of every category split is then read off the
// table, so the per-column cost is O(rows + cardinality·labels) with zero
// allocations. All accumulation runs in fixed category/label order —
// columns ascending, categories ascending within a column — so results
// are bit-for-bit deterministic and identical to the original
// per-candidate slice accumulation.
func (b *builder) bestSplit(idx, w []int32, total int) (bestCol, bestCat int32, bestGain float64) {
	bestCol, bestCat, bestGain = -1, -1, 0
	f := b.f
	numLabels := f.numLabels
	// leafStats filled the node histogram for this node just before.
	nodeLabels := b.sc.nodeLab[:numLabels]
	parentGini := giniOf(nodeLabels, total)
	rest := b.sc.rest[:numLabels]
	y := f.y

	// eval scores splitting on category cat of column c, reading the
	// candidate's row count and label histogram from slot j of the count
	// table — the slot holds exactly what a full [card×labels] count of
	// the column would hold for cat, so gains (and their tie-breaking,
	// columns then categories ascending) are bit-identical however the
	// table was filled.
	eval := func(c int32, cat, j int, ct, catN []int32) {
		nl := int(catN[j])
		nr := total - nl
		if nl == 0 || nr == 0 {
			return
		}
		row := ct[j*numLabels : (j+1)*numLabels]
		giniL := giniOf(row, nl)
		for l := 0; l < numLabels; l++ {
			rest[l] = nodeLabels[l] - row[l]
		}
		giniR := giniOf(rest, nr)
		gain := parentGini - (float64(nl)*giniL+float64(nr)*giniR)/float64(total)
		if gain > bestGain ||
			(gain == bestGain && (c < bestCol || (c == bestCol && int32(cat) < bestCat))) {
			bestCol, bestCat, bestGain = c, int32(cat), gain
		}
	}

	// evalSum scores a candidate whose row count is derived from the count
	// table itself: summing the label row yields exactly the integer a
	// per-category total would hold, so the gain arithmetic (and its
	// tie-breaking) is unchanged. The sampled path uses it to keep its
	// counting loop down to a single read-modify-write per row — only a
	// handful of sampled categories are ever evaluated per column, so the
	// per-candidate label-row sum is far cheaper than maintaining totals
	// for every category of every row.
	evalSum := func(c int32, cat int, row []int32) {
		nl := 0
		for l, v := range row {
			nl += int(v)
			rest[l] = nodeLabels[l] - v
		}
		nr := total - nl
		if nl == 0 || nr == 0 {
			return
		}
		giniL := giniOf(row, nl)
		giniR := giniOf(rest, nr)
		gain := parentGini - (float64(nl)*giniL+float64(nr)*giniR)/float64(total)
		if gain > bestGain ||
			(gain == bestGain && (c < bestCol || (c == bestCol && int32(cat) < bestCat))) {
			bestCol, bestCat, bestGain = c, int32(cat), gain
		}
	}

	if b.opts.OneHotFeatureSample {
		// Sampled pairs arrive as sorted flat one-hot indices, so walking
		// them groups by column with categories ascending — the evaluation
		// order of the full sweep, restricted to the sample. Each column is
		// histogrammed once (branch-free, all categories) and shared by
		// every sampled category that lands in it.
		pairs := b.samplePairs()
		// On big nodes the counting pass dominates, so it is kept to one
		// read-modify-write per row and candidate totals are summed from
		// the table (evalSum). On small nodes the fixed per-candidate
		// label-row sweep would dominate instead, so per-category totals
		// are maintained for eval's O(1) absent-category early-out. The
		// same integers reach the gain arithmetic either way.
		big := len(idx) >= 4*numLabels
		for pi := 0; pi < len(pairs); {
			c := f.colOfFlat(int(pairs[pi]))
			base := f.colOff[c]
			card := int(f.cards[c])
			codes := f.codes[c]
			ct := b.sc.counts[:card*numLabels]
			if big {
				for j := 0; j < len(idx); j++ {
					ct[int(codes[idx[j]])*numLabels+int(y[idx[j]])] += w[j]
				}
				for pi < len(pairs) && pairs[pi] < base+int32(card) {
					cat := int(pairs[pi] - base)
					evalSum(c, cat, ct[cat*numLabels:(cat+1)*numLabels])
					pi++
				}
				// Restore the all-zero invariant: memclr when the table is
				// small against the node, otherwise re-walk the rows and
				// clear each row's category row (re-clearing a shared
				// category is harmless, and in the wide-column regime that
				// triggers the re-walk, rows rarely share one).
				if card*numLabels <= 2*len(idx) {
					clear(ct)
				} else {
					for _, i := range idx {
						cat := int(codes[i])
						clear(ct[cat*numLabels : (cat+1)*numLabels])
					}
				}
				continue
			}
			catN := b.sc.catN[:card]
			for j, i := range idx {
				cat := codes[i]
				catN[cat] += w[j]
				ct[int(cat)*numLabels+int(y[i])] += w[j]
			}
			for pi < len(pairs) && pairs[pi] < base+int32(card) {
				cat := int(pairs[pi] - base)
				eval(c, cat, cat, ct, catN)
				pi++
			}
			if card*numLabels <= 2*len(idx) {
				clear(ct)
				clear(catN)
			} else {
				for _, i := range idx {
					cat := codes[i]
					if catN[cat] != 0 {
						catN[cat] = 0
						clear(ct[int(cat)*numLabels : (int(cat)+1)*numLabels])
					}
				}
			}
		}
	} else {
		for _, c := range b.candidateCols() {
			card := int(f.cards[c])
			codes := f.codes[c]
			ct := b.sc.counts[:card*numLabels]
			catN := b.sc.catN[:card]
			for j, i := range idx {
				cat := codes[i]
				catN[cat] += w[j]
				ct[int(cat)*numLabels+int(y[i])] += w[j]
			}
			for cat := 0; cat < card; cat++ {
				eval(c, cat, cat, ct, catN)
			}
			// Restore the all-zero invariant: memclr when the table is
			// small against the node, otherwise re-walk the rows and clear
			// only the category rows this node touched.
			if card*numLabels <= 2*len(idx) {
				clear(ct)
				clear(catN)
			} else {
				for _, i := range idx {
					cat := codes[i]
					if catN[cat] != 0 {
						catN[cat] = 0
						clear(ct[int(cat)*numLabels : (int(cat)+1)*numLabels])
					}
				}
			}
		}
	}
	return bestCol, bestCat, bestGain
}

// samplePairs draws ceil(sqrt(W)) distinct (column, category) pairs from
// the W one-hot indicators — the leading k elements of a Fisher–Yates
// permutation, drawn in the exact RNG order of rng.Perm — and returns
// them as sorted flat indices into the frame's one-hot space.
func (b *builder) samplePairs() []int32 {
	f := b.f
	total := f.width
	if total == 0 {
		return nil
	}
	k := int(math.Ceil(math.Sqrt(float64(total))))
	if k < 1 {
		k = 1
	}
	p := b.sc.perm[:total]
	for i := range p {
		p[i] = i
	}
	for i := total - 1; i > 0; i-- {
		j := b.r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	pairs := b.sc.cand[:0]
	for _, flat := range p[:k] {
		pairs = append(pairs, int32(flat))
	}
	slices.Sort(pairs)
	b.sc.cand = pairs
	return pairs
}

// colOfFlat maps a flattened one-hot indicator index to its column.
func (f *Frame) colOfFlat(flat int) int32 {
	// Binary search over the column offsets: first col with colOff[col+1]
	// > flat.
	lo, hi := 0, len(f.colOff)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if int(f.colOff[mid+1]) > flat {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return int32(lo)
}

// candidateCols returns the columns considered at this node: all of them,
// or a random sample of ColsPerSplit for forests.
func (b *builder) candidateCols() []int32 {
	n := len(b.f.codes)
	if b.opts.ColsPerSplit <= 0 || b.opts.ColsPerSplit >= n {
		return b.f.allCols
	}
	p := b.sc.perm[:n]
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := b.r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	cols := b.sc.cand[:0]
	for i := 0; i < b.opts.ColsPerSplit; i++ {
		cols = append(cols, int32(p[i]))
	}
	b.sc.cand = cols
	return cols
}

func giniOf(counts []int32, total int) float64 {
	if total == 0 {
		return 0
	}
	sum := 0.0
	for _, n := range counts {
		if n == 0 {
			continue
		}
		p := float64(n) / float64(total)
		sum += p * p
	}
	return 1 - sum
}
