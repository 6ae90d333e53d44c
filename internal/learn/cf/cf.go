// Package cf implements Auric's collaborative-filtering learner (Sec 3.2),
// the paper's core contribution: chi-square tests of independence select
// the carrier attributes each configuration parameter actually depends on,
// similarity is exact matching on those dependent attributes, and the
// recommendation is the value supported by at least 75% of the matching
// carriers.
//
// The learner runs entirely on the dataset package's interned columnar
// codes: the chi-square pass counts into dense [cardinality x labels]
// arrays, exact matching on the full dependent set is a code-keyed index
// lookup, and every relaxed level of the ladder intersects per-column
// sorted posting lists (smallest list first) instead of scanning the
// table. Geographic scoping rides the same walk: a learn.Scope is a site
// set (the From carriers of the 1-hop X2 neighborhood, Sec 3.3), built
// once per query carrier and valid for every model, and the local vote at
// each ladder level tallies the level's network-wide candidates that the
// scope admits, so a scoped prediction matches no more rows than the
// network-wide one. Matching, voting and confidences are exactly
// equivalent to the string-matching formulation — a code comparison
// succeeds iff the string comparison would — so predictions and
// explanations are byte-identical to the naive implementation (the
// equivalence tests in this package pin that down). Every vote, scoped or
// network-wide, runs the one ladder behind PredictCodes; Predict only
// encodes the row first.
//
// Fit and Predict are allocation-lean: both draw their working storage
// (count tables, gather buffers, key arenas, vote tallies) from
// sync.Pool-backed scratch that is reused across the engine's 65-parameter
// fan-out. The exact-match index keeps one key per group of rows with
// identical dependent codes, all substrings of one durable string, in a map
// sized by the groups. Models fitted together through a Shared, as the
// engine fits a market's 65 parameters, build each posting list once per
// (row set, column) and share it. Scratch never escapes into fitted state,
// so models stay immutable and safe for any number of concurrent readers.
//
// Fitted models are also incrementally updatable, which is the learner's
// role in the live ingest path: a Model retains the dense per-column count
// tables Fit selected dependencies from, and Update patches them — plus the
// posting lists, the exact-match index and the label tallies — for a batch
// of appended and tombstoned rows, producing a new immutable Model without
// touching the old one (copy-on-write throughout, so readers of the
// previous generation are undisturbed). Because Update re-derives the
// dependency set and relaxation ordering from the same counts with the same
// float operations as Fit, a patched model's predictions are byte-identical
// to a from-scratch refit over the surviving rows. A shift of the
// dependency set is one more patch: the exact index is keyed in column
// order, so a reordered set re-keys nothing, and a changed set builds only
// the posting lists of the columns that enter it and a new exact index.
//
// The paper leaves two situations unspecified, which this implementation
// resolves as follows (every choice is visible in the prediction's
// explanation, and DESIGN.md discusses the deviations):
//
//   - Sparse evidence: when the carriers matching the full dependent set
//     are too few to vote (fewer than MinMatches and neither unanimous nor
//     at the support threshold), the least informative dependent attribute
//     is relaxed and the vote retried. Relaxation order is per query:
//     attributes whose observed value is a rare, strongly-associated
//     "profile" value (FirstNet, NB-IoT, ...) are retained longest, and
//     the rest rank by Cramér's V (chi-square association normalized
//     across attribute cardinalities).
//   - Local scoping (Sec 3.3): the 1-hop X2 neighborhood vote is used
//     only when it is decisive at a relaxation level at least as specific
//     as the network-wide vote, so locality sharpens the global answer
//     and never substitutes vaguer evidence for it.
package cf

import (
	"bytes"
	"hash/maphash"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"auric/internal/dataset"
	"auric/internal/learn"
	"auric/internal/lte"
	"auric/internal/obs"
	"auric/internal/stats"
)

func init() { learn.Register("collaborative-filtering", func() learn.Learner { return New() }) }

// Relaxation telemetry: the ladder level a vote settles at is the single
// best signal of evidence quality in production (level 0 = copy/paste
// similarity, higher levels = progressively vaguer pools), so every
// prediction counts its level and whether it resolved through the exact
// full-key index. The counters live on the default registry next to the
// CF latency histograms, letting operators alert on evidence erosion
// (e.g. rising level-2+ share after an attribute taxonomy change).
// Predict and PredictCodes count each prediction as it leaves the model; a
// batch fan-out predicts through PredictCodesUncounted and publishes one
// Levels tally per batch instead.
var (
	relaxationLevel = obs.Default().CounterVec(
		"auric_cf_relaxation_level_total",
		"CF predictions by the relaxation-ladder level the vote settled at (0 = full dependent set matched; fallback = no evidence at any level).",
		"level")
	exactIndexHits = obs.Default().Counter(
		"auric_cf_exact_index_hits_total",
		"CF predictions resolved through the exact full-dependent-set index (relaxation level 0).")

	// Pre-resolved level counters for the hot path: ladders deeper than
	// the array fall back to the (allocating) label lookup, which only
	// happens for tables with 17+ dependent attributes.
	relaxLevelFast [17]*obs.Counter
	relaxFallback  *obs.Counter
)

func init() {
	for i := range relaxLevelFast {
		relaxLevelFast[i] = relaxationLevel.With(strconv.Itoa(i))
	}
	relaxFallback = relaxationLevel.With("fallback")
}

// DefaultSupport is the paper's voting-support threshold (Sec 3.2): a
// value held by at least 75% of the matching carriers is a supported
// recommendation. Options.Support defaults to it, and the engine flags
// recommendations against it.
const DefaultSupport = 0.75

// Options are the collaborative-filtering hyperparameters.
type Options struct {
	// Alpha is the chi-square significance level; zero means the paper's
	// 0.01.
	Alpha float64
	// Support is the voting-support threshold; zero means
	// DefaultSupport.
	Support float64
	// MinMatches is the minimum number of matching carriers required for
	// a vote to count as evidence: with fewer matches the weakest
	// dependent attribute is relaxed and the vote retried, so that the
	// recommendation never rests on one or two (possibly noisy) carriers.
	// Zero means 5.
	MinMatches int
}

// Learner fits collaborative-filtering models.
type Learner struct {
	Opts Options
}

// New returns a CF learner with the paper's settings (p=0.01, 75% support).
func New() *Learner { return &Learner{} }

// Name implements learn.Learner.
func (l *Learner) Name() string { return "collaborative-filtering" }

func (o Options) withDefaults() Options {
	if o.Alpha == 0 {
		o.Alpha = 0.01
	}
	if o.Support == 0 {
		o.Support = DefaultSupport
	}
	if o.MinMatches == 0 {
		o.MinMatches = 5
	}
	return o
}

// fitScratch is the arena-style working storage of one Fit call: the
// column gather buffer, the counting-sort cursors, and the key arena and
// hash slots the match structures are built through. (The chi-square
// count tables are NOT scratch — they are retained on the Model for
// incremental Update.) Fits
// running on the engine's worker pool draw scratch from fitScratchPool and
// return it when done, so the 65-parameter train fan-out reuses a handful
// of arenas instead of allocating per column. Nothing in a fitScratch may
// be retained by the fitted Model.
type fitScratch struct {
	colBuf   []int32 // gather space for derived-view columns
	cnt      []int32 // per-code counters, then write cursors
	off      []int32 // per-code offsets into the posting arena
	keys     []byte  // row-major exact-match key arena
	rows     []int32 // live row ids, ascending
	rowGroup []int32 // exact-index group id per live row
	groupN   []int32 // rows per exact-index group, then write cursors
	first    []int32 // first live-row position of each exact-index group
	slots    []int32 // open-addressing table of group ids, -1 when empty
}

var fitScratchPool = sync.Pool{New: func() any { return new(fitScratch) }}

// getFitScratch draws pooled fit scratch with a gather buffer for n rows;
// the caller returns it to fitScratchPool.
func getFitScratch(n int) *fitScratch {
	sc := fitScratchPool.Get().(*fitScratch)
	if cap(sc.colBuf) < n {
		sc.colBuf = make([]int32, 0, n)
	}
	return sc
}

// Fit implements learn.Learner through the package-level Fit. A failed fit
// returns a nil interface, not one wrapping a nil *Model.
func (l *Learner) Fit(t *dataset.Table) (learn.Model, error) {
	m, err := Fit(t, l.Opts)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Fit runs the chi-square test of Eq. (3) between every attribute column
// and the parameter values over dense code-indexed count arrays, keeps the
// dependent columns ordered by statistic (strongest first), and builds the
// two match structures — the exact index over the full dependent-set key
// and one sorted posting list per (dependent column, code) for the
// relaxation ladder. Zero options take the paper's settings. Working
// storage comes from a pooled fitScratch and is reused across calls.
func Fit(t *dataset.Table, opts Options) (*Model, error) { return fit(t, opts, nil) }

// Shared holds the fitted state that models fitted over the same rows can
// share: one posting list set per (dataset.RowSet, column). The first Fit
// that needs a column's lists builds them and every later Fit over the same
// row set reuses them, so a market's singular models share one set per
// column, and so do its pair-wise models whenever their configured
// relations coincide. A Shared is safe for concurrent Fits, as the engine's
// train fan-out makes them; it is only needed while those models are
// fitted. Update never writes a posting list it did not allocate, so a
// shared list stays valid for every model holding it.
type Shared struct {
	mu   sync.Mutex
	post map[postKey]*sharedPosting
}

type postKey struct {
	rows dataset.RowSet
	col  int
}

// sharedPosting is one column's posting lists over one row set, built once.
type sharedPosting struct {
	once sync.Once
	p    [][]int32
}

// NewShared returns an empty Shared for one group of fits.
func NewShared() *Shared { return &Shared{post: make(map[postKey]*sharedPosting)} }

// Fit fits t exactly as the package-level Fit does, taking the posting
// lists of t's row set from s.
func (s *Shared) Fit(t *dataset.Table, opts Options) (*Model, error) { return fit(t, opts, s) }

// posting returns the posting lists of column d over m's rows: built by m
// with sc when s is nil, else taken from s and built at most once. Only a
// fresh fit may ask s, since the lists cover every row of the table.
func (s *Shared) posting(m *Model, sc *fitScratch, d int) [][]int32 {
	if s == nil {
		return m.buildPosting(sc, d)
	}
	k := postKey{m.t.RowSet(), d}
	s.mu.Lock()
	e := s.post[k]
	if e == nil {
		e = new(sharedPosting)
		s.post[k] = e
	}
	s.mu.Unlock()
	e.once.Do(func() { e.p = m.buildPosting(sc, d) })
	return e.p
}

func fit(t *dataset.Table, opts Options, sh *Shared) (*Model, error) {
	if t.Len() == 0 {
		return nil, learn.ErrEmptyTable
	}
	opts = opts.withDefaults()
	n := t.Len()
	ncols := t.NumCols()
	sc := getFitScratch(n)
	defer fitScratchPool.Put(sc)

	// Intern the label column of this table view; votes tally into dense
	// arrays indexed by these codes.
	labelDict := dataset.NewDict()
	y := make([]int32, n)
	for i, lab := range t.Labels {
		y[i] = labelDict.Intern(lab)
	}
	numLabels := labelDict.Len()
	labels := make([]string, numLabels)
	for c := range labels {
		labels[c] = labelDict.String(int32(c))
	}
	labelCounts := make([]int32, numLabels)
	for _, c := range y {
		labelCounts[c]++
	}

	m := &Model{
		t: t, opts: opts,
		labels: labels, labelCodes: y,
		labelDict: labelDict, labelCounts: labelCounts,
		live: n,
	}

	// Count every column against the labels into a persistent dense table.
	// These tables are fitted state, not scratch: computeDeps selects and
	// orders the dependent columns from them here, and Update patches them
	// incrementally on live ingest — including columns that are not
	// dependent today, since added rows can make them dependent tomorrow.
	m.colCounts = make([]*stats.CountTable, ncols)
	for c := 0; c < ncols; c++ {
		codes := t.ColumnCodesScratch(sc.colBuf, c)
		ct := stats.NewCountTable(t.Dict(c).Len(), numLabels)
		for i, code := range codes {
			ct.Add(int(code), int(y[i]))
		}
		m.colCounts[c] = ct
	}
	m.computeDeps()

	m.post = make([][][]int32, ncols)
	for _, d := range m.deps {
		m.post[d] = sh.posting(m, sc, d)
	}
	m.buildIndex(sc)
	m.setGlobal()
	return m, nil
}

// setGlobal records the live-row majority label and its share: the vote of
// the unscoped empty dependent set and the last-resort fallback.
func (m *Model) setGlobal() {
	best, n := topLabel(m.labelCounts, m.labels)
	m.globalLabel, m.globalShare = m.labels[best], float64(n)/float64(m.live)
}

// topLabel returns the code of the most frequent label in counts and its
// count. Ties break to the lexicographically smallest label, matching
// learn.MajorityLabel. At least one count must be positive.
func topLabel(counts []int32, labels []string) (int, int32) {
	best, bestN := -1, int32(0)
	for l, n := range counts {
		if n == 0 {
			continue
		}
		if n > bestN || (n == bestN && labels[l] < labels[best]) {
			best, bestN = l, n
		}
	}
	return best, bestN
}

// computeDeps derives the dependent-column set, its ladder ordering, the
// exact-index key columns and the per-value share tables from the model's
// persistent count tables and live row count. Fit and Update share this
// code path, which is what makes an incrementally patched model
// bit-identical to a refit: both run the same float operations over the
// same counts.
//
// Strongest association first; relaxation drops from the tail. The
// significance test follows the paper's raw chi-square criterion; the
// *ordering* uses Cramér's V so that high-cardinality attributes (e.g.
// tracking area) rank by how much they actually explain, not by their
// degree-of-freedom count. The stable sort keeps equal statistics in
// column order.
func (m *Model) computeDeps() {
	ncols := m.t.NumCols()
	numLabels := len(m.labels)
	m.valueShare = make([][]float64, ncols)
	m.valuePin = make([][]float64, ncols)

	type depCol struct {
		col  int
		stat float64 // Cramér's V: association strength normalized for
		// table size, comparable across attribute cardinalities
	}
	var deps []depCol
	for c := 0; c < ncols; c++ {
		ct := m.colCounts[c]
		stat, df := ct.ChiSquare()
		if df == 0 {
			continue
		}
		if stat > stats.ChiSquareCritical(df, m.opts.Alpha) {
			deps = append(deps, depCol{c, ct.CramersV(stat)})
			// The count table already holds this column's value/label
			// co-occurrences; derive the relaxation-ordering shares here
			// instead of re-counting the column later.
			m.fitValueShares(c, ct, m.live, numLabels)
		}
	}
	sort.SliceStable(deps, func(a, b int) bool { return deps[a].stat > deps[b].stat })

	m.deps = make([]int, 0, len(deps))
	m.depStats = make([]float64, 0, len(deps))
	for _, d := range deps {
		m.deps = append(m.deps, d.col)
		m.depStats = append(m.depStats, d.stat)
	}
	m.keyCols = slices.Clone(m.deps)
	slices.Sort(m.keyCols)
}

// fitValueShares records, for one dependent column, the population share
// of each category code and the top-label share among rows holding it,
// read off the column's freshly counted table. Relaxation uses these to
// recognize rare attribute values (FirstNet carriers, NB-IoT, border
// cells): a carrier holding a rare value is configured by that value's own
// profile, so the attribute must be among the last to be relaxed away —
// dropping it would let the majority population outvote the rare one (the
// Sec 3.2 failure mode of classic classifiers that Auric exists to avoid).
func (m *Model) fitValueShares(d int, ct *stats.CountTable, n, numLabels int) {
	totals := ct.RowTotals()
	card := len(totals)
	shares := make([]float64, card)
	pins := make([]float64, card)
	nf := float64(n)
	for v := 0; v < card; v++ {
		total := totals[v]
		if total == 0 {
			continue // dictionary code absent from this table view
		}
		shares[v] = total / nf
		best := 0
		for lb := 0; lb < numLabels; lb++ {
			if c := ct.Count(v, lb); c > best {
				best = c
			}
		}
		pins[v] = float64(best) / total
	}
	m.valueShare[d] = shares
	m.valuePin[d] = pins
}

// buildPosting assembles the inverted index of column d — one ascending
// list of live rows per code — by counting sort into a single arena sized
// by the live count: two passes (count, fill) and exactly two allocations
// of fitted state, instead of growing card-many lists by append.
func (m *Model) buildPosting(sc *fitScratch, d int) [][]int32 {
	codes := m.t.ColumnCodesScratch(sc.colBuf, d)
	card := m.t.Dict(d).Len()
	if cap(sc.cnt) < card {
		sc.cnt = make([]int32, card)
	}
	if cap(sc.off) < card+1 {
		sc.off = make([]int32, card+1)
	}
	cnt := sc.cnt[:card]
	clear(cnt)
	for i, code := range codes {
		if m.isLive(i) {
			cnt[code]++
		}
	}
	off := sc.off[:card+1]
	off[0] = 0
	for v := 0; v < card; v++ {
		off[v+1] = off[v] + cnt[v]
	}
	arena := make([]int32, m.live)
	copy(cnt, off[:card]) // cnt becomes the per-code write cursor
	for i, code := range codes {
		if m.isLive(i) {
			arena[cnt[code]] = int32(i)
			cnt[code]++
		}
	}
	p := make([][]int32, card)
	for v := 0; v < card; v++ {
		if off[v] == off[v+1] {
			continue // code absent from the live rows: nil list
		}
		p[v] = arena[off[v]:off[v+1]:off[v+1]]
	}
	return p
}

// indexSeed seeds the scratch hash table buildIndex groups rows through.
// Group ids follow first appearance in row order whatever the seed, so the
// fitted index does not depend on it.
var indexSeed = maphash.MakeSeed()

// buildIndex assembles the exact-match index over the live rows, keyed by
// their codes on keyCols (the dependent columns in column order, so the
// key does not depend on the ladder's association order). Every live
// row's fixed-width key is laid out in a scratch arena and grouped through
// a scratch open-addressing table, group ids in order of first appearance.
// Only the groups' keys are kept: back to back in one durable string whose
// substrings key a map sized by the group count. A group is one distinct
// combination of dependent codes, and rows outnumber groups roughly 16 to
// one on the perfbench world, so the index's keys and map cost O(groups).
func (m *Model) buildIndex(sc *fitScratch) {
	t := m.t
	rows := sc.rows[:0]
	for i := 0; i < t.Len(); i++ {
		if m.isLive(i) {
			rows = append(rows, int32(i))
		}
	}
	sc.rows = rows
	n := len(rows)
	stride := 4 * len(m.keyCols)
	if cap(sc.keys) < n*stride {
		sc.keys = make([]byte, n*stride)
	}
	keys := sc.keys[:n*stride]
	for j, d := range m.keyCols {
		codes := t.ColumnCodesScratch(sc.colBuf, d)
		o := 4 * j
		for k, i := range rows {
			c := codes[i]
			b := keys[k*stride+o : k*stride+o+4]
			b[0], b[1], b[2], b[3] = byte(c), byte(c>>8), byte(c>>16), byte(c>>24)
		}
	}
	if cap(sc.rowGroup) < n {
		sc.rowGroup = make([]int32, n)
	}
	rowGroup := sc.rowGroup[:n] // exact-index group per entry of rows
	groupN := sc.groupN[:0]
	first := sc.first[:0]
	size := 1
	for size < 2*n {
		size <<= 1
	}
	if cap(sc.slots) < size {
		sc.slots = make([]int32, size)
	}
	slots := sc.slots[:size]
	for i := range slots {
		slots[i] = -1
	}
	mask := uint64(size - 1)
	for k := 0; k < n; k++ {
		key := keys[k*stride : (k+1)*stride]
		h := maphash.Bytes(indexSeed, key) & mask
		g := slots[h]
		for g >= 0 {
			f := int(first[g]) * stride
			if bytes.Equal(keys[f:f+stride], key) {
				break
			}
			h = (h + 1) & mask
			g = slots[h]
		}
		if g < 0 {
			g = int32(len(groupN))
			slots[h] = g
			groupN = append(groupN, 0)
			first = append(first, int32(k))
		}
		rowGroup[k] = g
		groupN[g]++
	}
	groups := len(groupN)
	var kb strings.Builder
	kb.Grow(groups * stride)
	for _, k := range first {
		kb.Write(keys[int(k)*stride : (int(k)+1)*stride])
	}
	s := kb.String()
	m.index = make(map[string]int32, groups)
	m.indexAdd = nil
	for g := 0; g < groups; g++ {
		m.index[s[g*stride:(g+1)*stride]] = int32(g)
	}
	idxOff := make([]int32, groups+1)
	for g := 0; g < groups; g++ {
		idxOff[g+1] = idxOff[g] + groupN[g]
	}
	idxRows := make([]int32, n)
	copy(groupN, idxOff[:groups]) // groupN becomes the write cursor
	for k, i := range rows {
		g := rowGroup[k]
		idxRows[groupN[g]] = i
		groupN[g]++
	}
	sc.groupN, sc.first = groupN[:0], first[:0]
	// Publish per-group row lists (full-capacity views into the arena, so
	// no group can grow into its neighbor). Update patches groups
	// individually by swapping list headers, leaving the arena shared.
	m.idxLists = make([][]int32, groups)
	for g := 0; g < groups; g++ {
		m.idxLists[g] = idxRows[idxOff[g]:idxOff[g+1]:idxOff[g+1]]
	}
}

// rareValueShare is the population share below which an observed attribute
// value counts as rare for relaxation ordering.
const rareValueShare = 0.15

// scoredDep is one dependent column scored for query-time relaxation.
type scoredDep struct {
	col  int
	rare bool
	v    float64
}

// queryDeps orders the dependent columns for one query row for relaxation:
// columns whose observed value is rare are retained longest, and within
// each group columns rank by association strength (Cramér's V). The
// ladder drops from the tail, so the weakest common-valued attribute goes
// first and the strongest rare-valued one goes last. The returned slice is
// scratch owned by sc.
func (m *Model) queryDeps(sc *predictScratch, codes []int32) []int {
	if cap(sc.scored) < len(m.deps) {
		sc.scored = make([]scoredDep, len(m.deps))
		sc.qdeps = make([]int, len(m.deps))
	}
	out := sc.scored[:len(m.deps)]
	for i, d := range m.deps {
		var share, pin float64
		if c := codes[d]; c >= 0 && int(c) < len(m.valueShare[d]) {
			share = m.valueShare[d][c]
			pin = m.valuePin[d][c]
		}
		// "Profile" values are both rare in the population and strongly
		// associated with one parameter value — the signature of special
		// carriers (FirstNet, NB-IoT) with their own settings. share > 0
		// means the value was actually observed in the training table.
		profile := share > 0 && share < rareValueShare && pin >= m.opts.Support
		out[i] = scoredDep{col: d, rare: profile, v: m.depStats[i]}
	}
	// Stable insertion sort (rare first, then association strength): the
	// dependent sets are small and this runs per prediction, so the
	// reflection cost of sort.SliceStable is worth dodging. Adjacent-swap
	// insertion with a strict less is stable, so the order is identical.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && scoredLess(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	deps := sc.qdeps[:len(out)]
	for i, s := range out {
		deps[i] = s.col
	}
	return deps
}

// scoredLess orders query-time relaxation: rare "profile" values first
// (retained longest), then by association strength descending.
func scoredLess(a, b scoredDep) bool {
	if a.rare != b.rare {
		return a.rare
	}
	return a.v > b.v
}

// appendCode serializes one column code into a match-index key.
func appendCode(b []byte, c int32) []byte {
	return append(b, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
}

// Model is a fitted collaborative-filtering model. It votes through one
// entry point, PredictCodes (Predict is the learn.Model form, encoding the
// row first): exact matching on the dependent attributes, relaxation when
// the pool is thin, and optionally voters restricted to a learn.Scope site
// set. After Fit returns, a Model is immutable: prediction only reads the
// fitted state (the training table, the dependency ordering, the match
// index, the posting lists and the value-share tables) and draws its
// working storage from a shared sync.Pool, so one Model is safe for
// concurrent use by any number of goroutines — the engine's
// recommendation fan-out relies on this. The per-site row lists the
// scoped empty-set vote tallies are built lazily exactly once.
//
// Update never mutates a published Model: it produces a fresh Model
// sharing unchanged state copy-on-write, so ingest generations coexist
// with in-flight predictions against older generations.
type Model struct {
	t        *dataset.Table
	opts     Options
	deps     []int     // dependent columns, strongest first
	depStats []float64 // matching Cramér's V per dependent column
	keyCols  []int     // dependent columns ascending: the exact-index key

	labels      []string      // label string per label code, first-seen order
	labelCodes  []int32       // label code per training row (incl. dead rows)
	labelDict   *dataset.Dict // label string -> code, COW-extended by Update
	labelCounts []int32       // live rows per label code

	// colCounts[c] is the dense (code, label) contingency table of column c
	// over the live rows — the tables the chi-square dependency selection
	// ran on, retained so Update can patch counts instead of recounting.
	colCounts []*stats.CountTable

	// index maps a row's codes on keyCols to a group id;
	// idxLists[g] lists group g's live rows ascending — the drop-0 fast
	// path. index holds one key per group (at fit, len(index) ==
	// len(idxLists)), each a substring of one string holding the groups'
	// keys back to back. indexAdd overlays keys first seen by Update
	// (checked only when non-nil, so the fit-only hot path stays a single
	// lookup).
	index    map[string]int32
	indexAdd map[string]int32
	idxLists [][]int32
	// post[c][code] lists the live rows whose column c holds code,
	// ascending; populated for dependent columns only, sub-sliced from one
	// arena per column at fit and patched per-list by Update. A fit through
	// a Shared may hand the same lists to every model over the same rows,
	// so post's lists are never written: Update replaces a touched list
	// with a new one. Relaxed ladder levels intersect these lists
	// smallest-first.
	post [][][]int32

	// valueShare[col][code] is the code's population share;
	// valuePin[col][code] the top-label share among rows holding it
	// (both drive query-time relaxation ordering; dependent columns only).
	valueShare [][]float64
	valuePin   [][]float64

	// dead marks tombstoned table rows (nil when none): the row stays in
	// the table so row ids remain stable across generations, but it is
	// absent from every match structure and scope. live counts the rest.
	dead []bool
	live int

	// siteRows maps a From carrier to its live training rows, built lazily
	// on the first scoped vote over the empty dependent set (sync.Once
	// keeps the model logically immutable for concurrent readers).
	siteOnce sync.Once
	siteRows map[lte.CarrierID][]int32

	// depVals[i][code] is the interned "name=value" evidence string for
	// code of dependent column deps[i], built lazily on the first
	// DependentValues call (same sync.Once pattern as siteRows). The
	// serving path asks for the evidence key of every prediction, and
	// query values repeat constantly; without this cache the concats were
	// the single largest allocation source in Recommend.
	depValsOnce sync.Once
	depVals     [][]string

	// globalLabel is the live rows' majority label and globalShare its
	// share: the vote of the unscoped empty dependent set.
	globalLabel string
	globalShare float64
}

// isLive reports whether table row i is not tombstoned.
func (m *Model) isLive(i int) bool { return m.dead == nil || !m.dead[i] }

// predictScratch is the pooled working storage of one prediction: the
// query encoding, relaxation ordering, exact-match key, intersection
// buffers and vote tallies. The serving path's per-worker reuse comes from
// predictScratchPool; nothing in a predictScratch survives the call.
type predictScratch struct {
	codes  []int32
	scored []scoredDep
	qdeps  []int
	kb     []byte
	inter  []int32
	lists  [][]int32
	counts []int32
	buf    []byte
}

var predictScratchPool = sync.Pool{New: func() any { return new(predictScratch) }}

// putPredictScratch returns scratch to the pool, dropping references into
// model posting arenas so pooled scratch never pins a retired model.
func putPredictScratch(sc *predictScratch) {
	for i := range sc.lists {
		sc.lists[i] = nil
	}
	predictScratchPool.Put(sc)
}

// DependentColumns returns the dependent attribute column indices,
// strongest association first.
func (m *Model) DependentColumns() []int {
	out := make([]int, len(m.deps))
	copy(out, m.deps)
	return out
}

// DependentValues returns the query row's "name=value" pairs for the
// dependent attributes, strongest association first — the evidence key the
// audit log persists alongside each recommendation. codes is the row's
// encoding, as PredictCodes takes it, so values seen in training resolve
// to interned strings without a dictionary lookup or a concatenation;
// unseen values fall back to building the pair.
func (m *Model) DependentValues(codes []int32, row []string) []string {
	m.depValsOnce.Do(m.buildDepVals)
	out := make([]string, len(m.deps))
	for i, d := range m.deps {
		if code := codes[d]; code >= 0 && int(code) < len(m.depVals[i]) {
			out[i] = m.depVals[i][code]
		} else {
			out[i] = m.t.ColNames[d] + "=" + row[d]
		}
	}
	return out
}

// buildDepVals interns "name=value" for every dictionary code of every
// dependent column. Dictionaries only grow (copy-on-write) across Update,
// and a patched model rebuilds lazily, so the cache is never stale — at
// worst an unseen code takes the concatenation fallback.
func (m *Model) buildDepVals() {
	dv := make([][]string, len(m.deps))
	for i, d := range m.deps {
		dict := m.t.Dict(d)
		name := m.t.ColNames[d]
		vals := make([]string, dict.Len())
		for c := range vals {
			vals[c] = name + "=" + dict.String(int32(c))
		}
		dv[i] = vals
	}
	m.depVals = dv
}

// encode translates a query row into dictionary codes for the dependent
// columns (-1 for values never seen in training, which match no rows —
// exactly like a failed string comparison). The result is scratch owned by
// sc.
func (m *Model) encode(sc *predictScratch, row []string) []int32 {
	nc := m.t.NumCols()
	if cap(sc.codes) < nc {
		sc.codes = make([]int32, nc)
	}
	codes := sc.codes[:nc]
	for i := range codes {
		codes[i] = -1
	}
	for _, d := range m.deps {
		codes[d] = m.t.Dict(d).Code(row[d])
	}
	return codes
}

// Table returns the learning table the model was fitted over. The live
// ingest path uses it as the extension anchor (dataset.ExtendBase) when
// patching the model through Update; treat it as read-only.
func (m *Model) Table() *dataset.Table { return m.t }

// EncodeRow implements learn.CodesModel: the full per-column encoding of a
// query row against the model's base dictionaries (-1 for unseen values).
// Any model fitted over the same columnar base accepts the result via
// PredictCodes, which is how the engine's batch path encodes each
// attribute string once per batch instead of once per parameter.
func (m *Model) EncodeRow(row []string) []int32 {
	return m.AppendEncodeRow(make([]int32, 0, m.t.NumCols()), row)
}

// AppendEncodeRow appends the row's full per-column encoding to dst and
// returns the extended slice — the allocation-free form of EncodeRow for
// callers that batch encodings into a reused arena.
func (m *Model) AppendEncodeRow(dst []int32, row []string) []int32 {
	for c := 0; c < m.t.NumCols(); c++ {
		dst = append(dst, m.t.Dict(c).Code(row[c]))
	}
	return dst
}

// Predict implements learn.Model: it encodes row's dependent columns into
// pooled scratch and votes network-wide, exactly as PredictCodes does for
// the same row with a nil scope.
func (m *Model) Predict(row []string) learn.Prediction {
	ps := predictScratchPool.Get().(*predictScratch)
	defer putPredictScratch(ps)
	p := m.predict(ps, row, m.encode(ps, row), nil)
	countLevel(p.Diag.Level)
	return p
}

// PredictCodes implements learn.CodesModel and is the model's one voting
// entry point. codes must come from EncodeRow of a model fitted over this
// model's columnar base; row supplies the strings the explanation quotes.
// sc is nil for a network-wide vote, or the site set restricting the
// voters — the paper's local learner uses the 1-hop X2 neighborhood
// (Sec 3.3).
//
// Local evidence is used only when it is decisive at a relaxation level at
// least as specific as the one the network-wide vote would settle on:
// locality sharpens the global answer where nearby matching carriers
// exist, and never substitutes a vaguer local pool for more specific
// global evidence.
func (m *Model) PredictCodes(codes []int32, row []string, sc *learn.Scope) learn.Prediction {
	p := m.PredictCodesUncounted(codes, row, sc)
	countLevel(p.Diag.Level)
	return p
}

// PredictCodesUncounted is PredictCodes without the auric_cf_* counter
// adds. A caller making many predictions adds each one's Diag.Level to a
// Levels tally and publishes it once, so the counters reach the same
// values with one add per level instead of two per prediction.
func (m *Model) PredictCodesUncounted(codes []int32, row []string, sc *learn.Scope) learn.Prediction {
	ps := predictScratchPool.Get().(*predictScratch)
	defer putPredictScratch(ps)
	return m.predict(ps, row, codes, sc)
}

// countLevel counts one prediction that settled at ladder level lvl (-1 for
// the fallback) on the relaxation counters.
func countLevel(lvl int) {
	var l Levels
	l.Add(lvl)
	l.Publish()
}

// Levels tallies the ladder levels of predictions made through
// PredictCodesUncounted. The zero value is empty; a Levels is not safe for
// concurrent use.
type Levels struct {
	n    [len(relaxLevelFast) + 1]uint64 // n[0]: fallbacks; n[l+1]: level l
	deep map[int]uint64                  // levels beyond relaxLevelFast
}

// Add counts one prediction that settled at ladder level lvl (Diag.Level).
func (l *Levels) Add(lvl int) {
	switch {
	case lvl < len(relaxLevelFast):
		l.n[max(lvl, -1)+1]++
	default:
		if l.deep == nil {
			l.deep = make(map[int]uint64)
		}
		l.deep[lvl]++
	}
}

// Publish adds the tally to the relaxation counters, as many calls of
// PredictCodes would have, and empties it.
func (l *Levels) Publish() {
	if n := l.n[0]; n > 0 {
		relaxFallback.Add(n)
	}
	if n := l.n[1]; n > 0 {
		exactIndexHits.Add(n)
	}
	for lvl, c := range relaxLevelFast {
		if n := l.n[lvl+1]; n > 0 {
			c.Add(n)
		}
	}
	for lvl, n := range l.deep {
		relaxationLevel.With(strconv.Itoa(lvl)).Add(n)
	}
	*l = Levels{}
}

// ScopeFrom implements learn.SiteScoper through learn.NewScope: a scope
// names carriers, not rows, so it is the same for every model.
func (m *Model) ScopeFrom(ids []lte.CarrierID) *learn.Scope { return learn.NewScope(ids) }

// buildSiteRows groups the live training rows by From carrier.
func (m *Model) buildSiteRows() {
	rows := make(map[lte.CarrierID][]int32, 64)
	for i, s := range m.t.Sites {
		if !m.isLive(i) {
			continue
		}
		rows[s.From] = append(rows[s.From], int32(i))
	}
	m.siteRows = rows
}

// predict is the shared prediction core: the relaxation ladder, optionally
// sharpened by the scoped vote per the Sec 3.3 rule.
func (m *Model) predict(ps *predictScratch, row []string, codes []int32, sc *learn.Scope) learn.Prediction {
	qdeps := m.queryDeps(ps, codes)
	if p := m.ladder(ps, codes, qdeps, sc); p.Label != "" {
		return m.finish(ps, p, row, qdeps)
	}
	// Empty training table population for every dependency subset (not
	// reachable with a non-empty table, kept as a safe default).
	return m.finish(ps, learn.Prediction{
		Label:       m.globalLabel,
		Confidence:  m.globalShare * 0.25,
		Explanation: "no matching carriers; falling back to the global majority value",
		Diag:        learn.Diag{Level: -1},
	}, row, qdeps)
}

// finish completes the one prediction that actually leaves the model:
// it renders the explanation (deferred out of vote so discarded ladder
// levels never pay for string formatting) and names the relaxed-away
// dependent attributes (weakest first, the order the ladder dropped them).
// The caller counts the settled level. Each string is rendered into
// the pooled buffer and copied out once, so it costs one allocation of
// exactly its length.
func (m *Model) finish(ps *predictScratch, p learn.Prediction, row []string, qdeps []int) learn.Prediction {
	lvl := p.Diag.Level
	if lvl >= 0 {
		// Reconstruct the winning vote's inputs from its diagnostics; the
		// result is byte-identical to rendering inside the vote.
		b := ps.buf[:0]
		if p.Diag.Scoped {
			b = append(b, "within the X2 neighborhood: "...)
		}
		deps := qdeps[:len(qdeps)-lvl]
		b = m.appendExplanation(b, row, deps, p.Label, p.Diag.VoteShare, p.Diag.Candidates, lvl)
		p.Explanation = string(b)
		ps.buf = b
	}
	if lvl > 0 && lvl <= len(qdeps) {
		dropped := qdeps[len(qdeps)-lvl:]
		b := ps.buf[:0]
		for i := range dropped {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, m.t.ColNames[dropped[len(dropped)-1-i]]...)
		}
		p.Diag.Dropped = string(b)
		ps.buf = b
	}
	return p
}

// ladder walks the relaxation ladder: exact matching on the full
// dependent set, then dropping the least informative dependent attribute
// (per the query's observed values, qdeps order) per level until a
// decisive pool appears. It returns the first decisive vote, or (when no
// level is decisive) the most specific thin vote, or the zero Prediction
// when nothing matches at any level.
//
// With a scope, each level votes twice over the one candidate pool: first
// among the candidates the scope admits, then network-wide. The first
// decisive local vote wins, since no more specific level was decisive
// network-wide, and the walk ends at the first decisive network-wide
// level — a less specific local vote could not win there — so a scoped
// walk matches no rows beyond those the unscoped walk does. Thin local
// votes are never used.
func (m *Model) ladder(ps *predictScratch, codes []int32, qdeps []int, sc *learn.Scope) learn.Prediction {
	var fallback learn.Prediction
	for drop := 0; drop <= len(qdeps); drop++ {
		deps := qdeps[:len(qdeps)-drop]
		full := drop == 0
		// Every live row matches the empty set: network-wide that vote is
		// the global majority, tallied once per model.
		label, share, n := m.globalLabel, m.globalShare, m.live
		var cands []int32
		if len(deps) > 0 {
			cands = m.matches(ps, codes, deps, full)
			if len(cands) == 0 {
				continue // no matches at this relaxation level
			}
			label, share = m.majorityOf(ps, cands)
			n = len(cands)
		}
		if sc != nil {
			if p, decisive := m.localVote(ps, cands, deps, drop, sc); decisive {
				return p
			}
		}
		p, decisive := m.verdict(label, share, n, deps, drop, false)
		if decisive {
			return p
		}
		if fallback.Label == "" {
			fallback = p
		}
	}
	return fallback
}

// verdict turns one level's tally into its vote and reports whether the
// pool is decisive: big enough (MinMatches), or small but agreeing at the
// support threshold with at least two carriers — the rare-combination
// case of Sec 3.2 (few carriers, one distinctive value).
func (m *Model) verdict(label string, share float64, n int, deps []int, drop int, scoped bool) (learn.Prediction, bool) {
	// Confidence is the voting support (the paper's 75% rule applies to
	// it); a single witness is discounted since there is no vote at all.
	conf := share
	if n == 1 {
		conf *= 0.5
	}
	// The explanation is NOT rendered here: most votes are discarded by
	// the ladder, so finish() formats only the winning one, reconstructing
	// it from the Diag fields below.
	full := drop == 0
	p := learn.Prediction{
		Label:      label,
		Confidence: conf,
		Diag: learn.Diag{
			Level:      drop,
			Candidates: n,
			VoteShare:  share,
			ExactIndex: full,
			Scoped:     scoped,
		},
	}
	if !full && len(deps) > 0 {
		p.Diag.PostingLists = len(deps)
	}
	decisive := n >= m.opts.MinMatches ||
		(n >= 2 && share >= m.opts.Support) ||
		// A unanimous pool on the full dependent set is the most similar
		// evidence that exists — even a single matching carrier beats a
		// bigger pool of less similar ones (the copy/paste intuition of
		// Sec 1).
		(full && share == 1)
	return p, decisive
}

// tallyCounts returns the pooled per-label-code counters, cleared.
func (m *Model) tallyCounts(ps *predictScratch) []int32 {
	if cap(ps.counts) < len(m.labels) {
		ps.counts = make([]int32, len(m.labels))
	}
	counts := ps.counts[:len(m.labels)]
	clear(counts)
	return counts
}

// majorityOf tallies match labels into a dense per-code count array and
// returns the most frequent label (topLabel's tie-break) and its share.
func (m *Model) majorityOf(ps *predictScratch, matches []int32) (string, float64) {
	counts := m.tallyCounts(ps)
	for _, idx := range matches {
		counts[m.labelCodes[idx]]++
	}
	best, bestN := topLabel(counts, m.labels)
	return m.labels[best], float64(bestN) / float64(len(matches))
}

// localVote is one level's vote among the voters sc admits: the admitted
// candidates, or on the empty dependent set every live row of an admitted
// site, read off the per-site row lists. A scope that admits no voter is
// never decisive.
func (m *Model) localVote(ps *predictScratch, cands []int32, deps []int, drop int, sc *learn.Scope) (learn.Prediction, bool) {
	counts := m.tallyCounts(ps)
	n := 0
	if len(deps) > 0 {
		for _, idx := range cands {
			if sc.Admits(m.t.Sites[idx].From) {
				counts[m.labelCodes[idx]]++
				n++
			}
		}
	} else {
		m.siteOnce.Do(m.buildSiteRows)
		for _, id := range sc.IDs() {
			rows := m.siteRows[id]
			for _, idx := range rows {
				counts[m.labelCodes[idx]]++
			}
			n += len(rows)
		}
	}
	if n == 0 {
		return learn.Prediction{}, false
	}
	best, bestN := topLabel(counts, m.labels)
	return m.verdict(m.labels[best], float64(bestN)/float64(n), n, deps, drop, true)
}

// matches returns the live training rows matching the query codes on a
// non-empty deps, in ascending row order. The full dependent set resolves
// through the exact code-key index; relaxed sets intersect the per-column
// posting lists smallest-first.
func (m *Model) matches(ps *predictScratch, codes []int32, deps []int, full bool) []int32 {
	if !full {
		return m.intersect(ps, codes, deps)
	}
	// The full dependent set is order-insensitive; the index is keyed in
	// column order (keyCols). Unseen codes (-1) serialize to a key no
	// training row produced, so they miss — exactly like a failed string
	// comparison on every row.
	kb := ps.kb[:0]
	for _, d := range m.keyCols {
		kb = appendCode(kb, codes[d])
	}
	ps.kb = kb
	if g, ok := m.index[string(kb)]; ok {
		return m.idxLists[g]
	}
	if m.indexAdd != nil {
		if g, ok := m.indexAdd[string(kb)]; ok {
			return m.idxLists[g]
		}
	}
	return nil
}

// intersect computes the ascending intersection of the posting lists for
// the query's codes on deps, starting from the smallest list. Any unseen
// or empty posting short-circuits to no matches.
func (m *Model) intersect(ps *predictScratch, codes []int32, deps []int) []int32 {
	lists := ps.lists[:0]
	defer func() { ps.lists = lists }()
	for _, d := range deps {
		code := codes[d]
		p := m.post[d]
		if code < 0 || int(code) >= len(p) {
			return nil
		}
		l := p[code]
		if len(l) == 0 {
			return nil
		}
		lists = append(lists, l)
	}
	// Insertion sort by length (smallest first): list counts are tiny and
	// this runs per ladder level, so reflection-based sort.Slice costs more
	// than the sort itself. Intersection is order-insensitive, so any
	// ascending-by-length order yields the identical result.
	for i := 1; i < len(lists); i++ {
		for j := i; j > 0 && len(lists[j]) < len(lists[j-1]); j-- {
			lists[j], lists[j-1] = lists[j-1], lists[j]
		}
	}
	cur := lists[0]
	for i, next := range lists[1:] {
		var dst []int32
		if i == 0 {
			// First round writes the pooled buffer: cur is a shared
			// posting list and must not be overwritten.
			dst = ps.inter[:0]
		} else {
			// Later rounds compact in place: the write index never passes
			// the read index of cur.
			dst = cur[:0]
		}
		cur = intersectSorted(dst, cur, next)
		if i == 0 {
			ps.inter = cur[:0] // keep any growth for the next prediction
		}
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

// intersectSorted appends the intersection of ascending lists a and b to
// dst. When b is much longer than a it binary-searches b (shrinking the
// window as a advances) instead of merging linearly.
func intersectSorted(dst, a, b []int32) []int32 {
	if len(b) > 16*len(a) {
		for _, x := range a {
			lo, hi := 0, len(b)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if b[mid] < x {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo == len(b) {
				break
			}
			if b[lo] == x {
				dst = append(dst, x)
			}
			b = b[lo:]
		}
		return dst
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			dst = append(dst, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return dst
}

// appendExplanation appends the winning vote's account to b. It is
// hand-formatted with strconv appends because it runs once per prediction
// on the serving hot path; the output is byte-identical to the
// fmt.Fprintf formulation (Go's %.0f is appendRounded's rendering and %d
// strconv's base-10 one), which the equivalence tests pin against the
// fmt-based reference model.
func (m *Model) appendExplanation(b []byte, row []string, deps []int, label string, share float64, n, drop int) []byte {
	b = appendRounded(b, share*100)
	b = append(b, "% of "...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, " carriers matching on "...)
	if len(deps) == 0 {
		b = append(b, "(no dependent attributes)"...)
	}
	const maxShown = 4 // strongest associations first; elide the tail
	for i, d := range deps {
		if i == maxShown {
			b = append(b, " ∧ … (+"...)
			b = strconv.AppendInt(b, int64(len(deps)-maxShown), 10)
			b = append(b, " more)"...)
			break
		}
		if i > 0 {
			b = append(b, " ∧ "...)
		}
		b = append(b, m.t.ColNames[d]...)
		b = append(b, '=')
		b = append(b, row[d]...)
	}
	b = append(b, " hold "...)
	b = append(b, label...)
	if drop > 0 {
		b = append(b, " (after relaxing "...)
		b = strconv.AppendInt(b, int64(drop), 10)
		b = append(b, " weakest dependent attribute(s))"...)
	}
	if share < m.opts.Support {
		b = append(b, " — below the "...)
		b = appendRounded(b, m.opts.Support*100)
		b = append(b, "% support threshold"...)
	}
	return b
}

// appendRounded appends x with no decimals, byte-identical to
// strconv.AppendFloat(b, x, 'f', 0, 64). For 0 ≤ x < 2⁵³ the nearest
// integer is exact and rounds half to even, as strconv's correctly rounded
// formatting does, so integer formatting stands in for strconv's
// arbitrary-precision path, which %.0f of a share otherwise takes.
func appendRounded(b []byte, x float64) []byte {
	if !math.Signbit(x) && x < 1<<53 {
		return strconv.AppendInt(b, int64(math.RoundToEven(x)), 10)
	}
	return strconv.AppendFloat(b, x, 'f', 0, 64)
}
