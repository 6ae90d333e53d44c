package tree

// The pre-columnar row-based tree builder, kept verbatim (renamed) as the
// reference implementation. The property test below pins the columnar
// builder to it: over randomized hyperparameters, tables, and bootstrap
// index sets, every prediction — label, confidence, and the formatted
// explanation string — must match byte for byte. This is the same
// refModel pattern the cf package used for its columnar rewrite.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"auric/internal/dataset"
	"auric/internal/learn"
	"auric/internal/learn/internal/learntest"
	"auric/internal/rng"
)

// refTree is a tree fitted by the reference builder.
type refTree struct {
	cols     []string
	colVocab []map[string]int32
	labels   []string
	nodes    []refNode
	root     int32
}

type refNode struct {
	col, cat    int32
	left, right int32
	leaf        bool
	label       int32
	purity      float64
	n           int
}

func (tr *refTree) NumNodes() int { return len(tr.nodes) }

func (tr *refTree) Predict(row []string) learn.Prediction {
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

func (tr *refTree) catName(col, cat int32) string {
	for name, id := range tr.colVocab[col] {
		if id == cat {
			return name
		}
	}
	return fmt.Sprintf("cat(%d)", cat)
}

func (tr *refTree) encodeValue(col int32, v string) int32 {
	if id, ok := tr.colVocab[col][v]; ok {
		return id
	}
	return -1
}

// refBuilder holds the interned training data during growth: a private
// [][]int32 copy of the table rows, append-grown left/right partitions.
type refBuilder struct {
	opts     Options
	rows     [][]int32
	y        []int32
	labels   []string
	colVocab []map[string]int32
	nodes    []refNode
	r        *rng.RNG
}

func fitRef(t *dataset.Table, idx []int, opts Options) *refTree {
	b := newRefBuilder(t, opts)
	root := b.grow(idx, 0)
	return &refTree{
		cols:     t.ColNames,
		colVocab: b.colVocab,
		labels:   b.labels,
		nodes:    b.nodes,
		root:     root,
	}
}

func newRefBuilder(t *dataset.Table, opts Options) *refBuilder {
	if opts.MinLeaf <= 0 {
		opts.MinLeaf = 1
	}
	b := &refBuilder{
		opts:     opts,
		colVocab: make([]map[string]int32, len(t.ColNames)),
		r:        rng.New(opts.Seed),
	}
	for c := range b.colVocab {
		b.colVocab[c] = make(map[string]int32)
	}
	labelIdx := make(map[string]int32)
	b.rows = make([][]int32, t.Len())
	b.y = make([]int32, t.Len())
	remap := make([][]int32, t.NumCols())
	for c := range remap {
		rm := make([]int32, t.Dict(c).Len())
		for i := range rm {
			rm[i] = -1
		}
		remap[c] = rm
	}
	for i := 0; i < t.Len(); i++ {
		enc := make([]int32, t.NumCols())
		for c := range enc {
			code := t.Code(i, c)
			id := remap[c][code]
			if id < 0 {
				id = int32(len(b.colVocab[c]))
				remap[c][code] = id
				b.colVocab[c][t.Dict(c).String(code)] = id
			}
			enc[c] = id
		}
		b.rows[i] = enc
		l, ok := labelIdx[t.Label(i)]
		if !ok {
			l = int32(len(b.labels))
			labelIdx[t.Label(i)] = l
			b.labels = append(b.labels, t.Label(i))
		}
		b.y[i] = l
	}
	return b
}

func (b *refBuilder) grow(idx []int, depth int) int32 {
	majority, purity, pure := b.leafStats(idx)
	if pure || len(idx) <= b.opts.MinLeaf ||
		(b.opts.MaxDepth > 0 && depth >= b.opts.MaxDepth) {
		return b.addLeaf(majority, purity, len(idx))
	}
	col, cat, gain := b.bestSplit(idx)
	if gain <= 1e-12 {
		return b.addLeaf(majority, purity, len(idx))
	}
	var left, right []int
	for _, i := range idx {
		if b.rows[i][col] == cat {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	ni := int32(len(b.nodes))
	b.nodes = append(b.nodes, refNode{col: col, cat: cat})
	l := b.grow(left, depth+1)
	r := b.grow(right, depth+1)
	b.nodes[ni].left = l
	b.nodes[ni].right = r
	return ni
}

func (b *refBuilder) addLeaf(label int32, purity float64, n int) int32 {
	ni := int32(len(b.nodes))
	b.nodes = append(b.nodes, refNode{leaf: true, label: label, purity: purity, n: n})
	return ni
}

func (b *refBuilder) leafStats(idx []int) (majority int32, purity float64, pure bool) {
	counts := make([]int, len(b.labels))
	distinct := 0
	for _, i := range idx {
		if counts[b.y[i]] == 0 {
			distinct++
		}
		counts[b.y[i]]++
	}
	bestN := -1
	for l, n := range counts {
		if n > bestN {
			majority, bestN = int32(l), n
		}
	}
	return majority, float64(bestN) / float64(len(idx)), distinct == 1
}

func (b *refBuilder) bestSplit(idx []int) (bestCol, bestCat int32, bestGain float64) {
	bestCol, bestCat, bestGain = -1, -1, 0
	numLabels := len(b.labels)
	nodeLabels := make([]int, numLabels)
	for _, i := range idx {
		nodeLabels[b.y[i]]++
	}
	total := len(idx)
	parentGini := refGiniOf(nodeLabels, total)

	var sampledCats map[int32]map[int32]bool
	var cols []int32
	if b.opts.OneHotFeatureSample {
		sampledCats = b.samplePairs()
		cols = make([]int32, 0, len(sampledCats))
		for c := range sampledCats {
			cols = append(cols, c)
		}
		for i := 1; i < len(cols); i++ {
			for j := i; j > 0 && cols[j] < cols[j-1]; j-- {
				cols[j], cols[j-1] = cols[j-1], cols[j]
			}
		}
	} else {
		cols = b.candidateCols()
	}
	rest := make([]int, numLabels)
	for _, c := range cols {
		numCats := len(b.colVocab[c])
		catN := make([]int, numCats)
		catLabels := make([][]int, numCats)
		for _, i := range idx {
			cat := b.rows[i][c]
			if catLabels[cat] == nil {
				catLabels[cat] = make([]int, numLabels)
			}
			catN[cat]++
			catLabels[cat][b.y[i]]++
		}
		for cat := 0; cat < numCats; cat++ {
			if sampledCats != nil && !sampledCats[c][int32(cat)] {
				continue
			}
			nl := catN[cat]
			nr := total - nl
			if nl == 0 || nr == 0 {
				continue
			}
			giniL := refGiniOf(catLabels[cat], nl)
			for l := 0; l < numLabels; l++ {
				rest[l] = nodeLabels[l] - catLabels[cat][l]
			}
			giniR := refGiniOf(rest, nr)
			gain := parentGini - (float64(nl)*giniL+float64(nr)*giniR)/float64(total)
			if gain > bestGain ||
				(gain == bestGain && (c < bestCol || (c == bestCol && int32(cat) < bestCat))) {
				bestCol, bestCat, bestGain = c, int32(cat), gain
			}
		}
	}
	return bestCol, bestCat, bestGain
}

func (b *refBuilder) samplePairs() map[int32]map[int32]bool {
	total := 0
	for _, v := range b.colVocab {
		total += len(v)
	}
	k := int(math.Ceil(math.Sqrt(float64(total))))
	if k < 1 {
		k = 1
	}
	perm := b.r.Perm(total)
	out := make(map[int32]map[int32]bool, k)
	for _, flat := range perm[:k] {
		col, cat := 0, flat
		for cat >= len(b.colVocab[col]) {
			cat -= len(b.colVocab[col])
			col++
		}
		m := out[int32(col)]
		if m == nil {
			m = make(map[int32]bool, 2)
			out[int32(col)] = m
		}
		m[int32(cat)] = true
	}
	return out
}

func (b *refBuilder) candidateCols() []int32 {
	n := len(b.colVocab)
	if b.opts.ColsPerSplit <= 0 || b.opts.ColsPerSplit >= n {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(i)
		}
		return out
	}
	perm := b.r.Perm(n)
	out := make([]int32, b.opts.ColsPerSplit)
	for i := range out {
		out[i] = int32(perm[i])
	}
	return out
}

func refGiniOf(counts []int, total int) float64 {
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

// TestColumnarMatchesReference fits the columnar and reference builders
// over randomized hyperparameters, table sizes/noise, and bootstrap index
// sets, and requires byte-identical predictions — including explanation
// strings — on every training row and on rows with unseen category values.
func TestColumnarMatchesReference(t *testing.T) {
	minLeafs := []int{0, 1, 2, 5, 20}
	maxDepths := []int{0, 1, 3, 8}
	colsPer := []int{0, 1, 2, 3}
	r := rng.New(99)
	for trial := 0; trial < 40; trial++ {
		n := 30 + r.Intn(170)
		noise := float64(r.Intn(4)) * 0.1
		tbl := learntest.RuleTable(n, noise, uint64(trial)*7+1)
		opts := Options{
			MinLeaf:             minLeafs[r.Intn(len(minLeafs))],
			MaxDepth:            maxDepths[r.Intn(len(maxDepths))],
			ColsPerSplit:        colsPer[r.Intn(len(colsPer))],
			OneHotFeatureSample: r.Bool(0.5),
			Seed:                r.Uint64(),
		}
		// Alternate identity index sets with bootstrap samples (repeats,
		// omissions) — the forest's use of the fitting primitive.
		idx := make([]int, tbl.Len())
		if trial%2 == 0 {
			for i := range idx {
				idx[i] = i
			}
		} else {
			for i := range idx {
				idx[i] = r.Intn(tbl.Len())
			}
		}
		l := &Learner{Opts: opts}
		got, err := l.FitIndices(tbl, idx)
		if err != nil {
			t.Fatalf("trial %d: fit: %v", trial, err)
		}
		want := fitRef(tbl, idx, opts)
		if got.NumNodes() != want.NumNodes() {
			t.Fatalf("trial %d (%+v): nodes %d, ref %d", trial, opts, got.NumNodes(), want.NumNodes())
		}
		for i := 0; i < tbl.Len(); i++ {
			row := tbl.Row(i)
			g, w := got.Predict(row), want.Predict(row)
			if g != w {
				t.Fatalf("trial %d (%+v) row %d:\n got %+v\nwant %+v", trial, opts, i, g, w)
			}
			if lab := got.PredictLabel(row); lab != w.Label {
				t.Fatalf("trial %d row %d: PredictLabel %q, Predict label %q", trial, i, lab, w.Label)
			}
			// Unseen category in one column must follow the same (not-equal)
			// branches in both implementations.
			row[i%len(row)] = fmt.Sprintf("unseen-%d", i)
			g, w = got.Predict(row), want.Predict(row)
			if g != w {
				t.Fatalf("trial %d (%+v) unseen row %d:\n got %+v\nwant %+v", trial, opts, i, g, w)
			}
		}
	}
}
