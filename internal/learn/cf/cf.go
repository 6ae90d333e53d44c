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
// table. Geographic scoping rides the same machinery: a precomputed
// neighborhood Scope (learn.SiteScoper) is one more sorted row list in the
// intersection, so the local vote of Sec 3.3 never filters candidates
// through a per-row callback. Matching, voting and confidences are exactly
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
// fan-out, and the exact-match index dedups its keys as substrings of one
// durable string instead of allocating one key per row. Scratch never
// escapes into fitted state, so models stay immutable and safe for any
// number of concurrent readers.
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
// column gather buffer and the counting-sort cursors and key arena the
// match structures are built through. (The chi-square count tables are NOT
// scratch — they are retained on the Model for incremental Update.) Fits
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
func Fit(t *dataset.Table, opts Options) (*Model, error) {
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
		m.post[d] = m.buildPosting(sc, d)
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

// buildIndex assembles the exact-match index over the live rows, keyed by
// their codes on keyCols (the dependent columns in column order, so the
// key does not depend on the ladder's association order). Every live
// row's fixed-width key is laid out in one arena and converted to a single
// durable string; the dedup map keys are substrings of it, so the whole
// index costs one string allocation plus the map — not one key string per
// row.
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
	s := string(keys)
	m.index = make(map[string]int32, n)
	m.indexAdd = nil
	if cap(sc.rowGroup) < n {
		sc.rowGroup = make([]int32, n)
	}
	rowGroup := sc.rowGroup[:n] // exact-index group per entry of rows
	groupN := sc.groupN[:0]
	for k := 0; k < n; k++ {
		key := s[k*stride : (k+1)*stride]
		g, ok := m.index[key]
		if !ok {
			g = int32(len(groupN))
			m.index[key] = g
			groupN = append(groupN, 0)
		}
		rowGroup[k] = g
		groupN[g]++
	}
	groups := len(groupN)
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
	sc.groupN = groupN[:0]
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
// the pool is thin, and optionally voters restricted to a ScopeFrom site
// set. After Fit returns, a Model is immutable: prediction only reads the
// fitted state (the training table, the dependency ordering, the match
// index, the posting lists and the value-share tables) and draws its
// working storage from a shared sync.Pool, so one Model is safe for
// concurrent use by any number of goroutines — the engine's
// recommendation fan-out relies on this. The per-site row lists behind
// ScopeFrom are built lazily exactly once.
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
	// path. Keys are substrings of one shared string; indexAdd overlays
	// keys first seen by Update (checked only when non-nil, so the fit-only
	// hot path stays a single lookup).
	index    map[string]int32
	indexAdd map[string]int32
	idxLists [][]int32
	// post[c][code] lists the live rows whose column c holds code,
	// ascending; populated for dependent columns only, sub-sliced from one
	// arena per column at fit and patched per-list by Update. Relaxed
	// ladder levels intersect these lists smallest-first.
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

	// siteRows maps a From carrier to its ascending training-row list,
	// built lazily on the first ScopeFrom call (sync.Once keeps the model
	// logically immutable for concurrent readers).
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
// audit log persists alongside each recommendation. Values seen in
// training resolve to interned strings (no per-call concatenation);
// unseen values fall back to building the pair.
func (m *Model) DependentValues(row []string) []string {
	m.depValsOnce.Do(m.buildDepVals)
	out := make([]string, len(m.deps))
	for i, d := range m.deps {
		if code := m.t.Dict(d).Code(row[d]); code >= 0 && int(code) < len(m.depVals[i]) {
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
	return m.predict(ps, row, m.encode(ps, row), nil, false)
}

// PredictCodes implements learn.CodesModel and is the model's one voting
// entry point. codes must come from EncodeRow of a model fitted over this
// model's columnar base; row supplies the strings the explanation quotes.
// sc is nil for a network-wide vote, or a Scope from this model's
// ScopeFrom restricting the voters to a site set — the paper's local
// learner uses the 1-hop X2 neighborhood (Sec 3.3).
//
// Local evidence is used only when it is decisive at a relaxation level at
// least as specific as the one the network-wide vote would settle on:
// locality sharpens the global answer where nearby matching carriers
// exist, and never substitutes a vaguer local pool for more specific
// global evidence.
func (m *Model) PredictCodes(codes []int32, row []string, sc learn.Scope) learn.Prediction {
	rows, scoped := m.scopeRows(sc)
	ps := predictScratchPool.Get().(*predictScratch)
	defer putPredictScratch(ps)
	return m.predict(ps, row, codes, rows, scoped)
}

// Scope is the precomputed voting-population restriction of
// learn.SiteScoper: the ascending training-row list of an allowed site
// set, bound to the model that built it.
type Scope struct {
	m    *Model
	rows []int32
}

// NumRows implements learn.Scope.
func (s *Scope) NumRows() int { return len(s.rows) }

// buildSiteRows groups the live training rows by From carrier; rows are
// appended in ascending order, so every per-site list is sorted.
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

// ScopeFrom implements learn.SiteScoper: the union of the per-site row
// lists of ids, sorted ascending and deduplicated — exactly the live rows
// whose Site.From is one of ids.
func (m *Model) ScopeFrom(ids []lte.CarrierID) learn.Scope {
	m.siteOnce.Do(m.buildSiteRows)
	total := 0
	for _, id := range ids {
		total += len(m.siteRows[id])
	}
	rows := make([]int32, 0, total)
	for _, id := range ids {
		rows = append(rows, m.siteRows[id]...)
	}
	slices.Sort(rows)
	rows = slices.Compact(rows) // duplicate ids would double their rows
	return &Scope{m: m, rows: rows}
}

// scopeRows unwraps a learn.Scope into its row list, panicking on a scope
// built by a different model — silently using foreign row numbers would
// vote with the wrong carriers.
func (m *Model) scopeRows(sc learn.Scope) (rows []int32, scoped bool) {
	if sc == nil {
		return nil, false
	}
	s, ok := sc.(*Scope)
	if !ok || s.m != m {
		panic("cf: PredictCodes with a scope built by a different model")
	}
	return s.rows, true
}

// predict is the shared prediction core: the global relaxation ladder,
// optionally sharpened by the scoped ladder per the Sec 3.3 rule.
func (m *Model) predict(ps *predictScratch, row []string, codes []int32, scopeRows []int32, scoped bool) learn.Prediction {
	qdeps := m.queryDeps(ps, codes)
	globalP, globalLevel, globalDecisive := m.ladder(ps, codes, qdeps, nil, false)
	if scoped {
		localP, localLevel, localDecisive := m.ladder(ps, codes, qdeps, scopeRows, true)
		if localDecisive && (!globalDecisive || localLevel <= globalLevel) {
			return m.finish(localP, row, qdeps)
		}
	}
	if globalP.Label != "" {
		return m.finish(globalP, row, qdeps)
	}
	// Empty training table population for every dependency subset (not
	// reachable with a non-empty table, kept as a safe default).
	return m.finish(learn.Prediction{
		Label:       m.globalLabel,
		Confidence:  m.globalShare * 0.25,
		Explanation: "no matching carriers; falling back to the global majority value",
		Diag:        learn.Diag{Level: -1},
	}, row, qdeps)
}

// finish completes the one prediction that actually leaves the model:
// it renders the explanation (deferred out of vote so discarded ladder
// levels never pay for string formatting), names the relaxed-away
// dependent attributes (weakest first, the order the ladder dropped them)
// and counts the settled relaxation level.
func (m *Model) finish(p learn.Prediction, row []string, qdeps []int) learn.Prediction {
	lvl := p.Diag.Level
	if lvl >= 0 {
		// Reconstruct the winning vote's inputs from its diagnostics; the
		// result is byte-identical to rendering inside the vote.
		deps := qdeps[:len(qdeps)-lvl]
		p.Explanation = m.explain(row, deps, p.Label, p.Diag.VoteShare, p.Diag.Candidates, lvl)
		if p.Diag.Scoped {
			p.Explanation = "within the X2 neighborhood: " + p.Explanation
		}
	}
	if lvl > 0 && lvl <= len(qdeps) {
		dropped := qdeps[len(qdeps)-lvl:]
		names := make([]string, lvl)
		for i := range dropped {
			names[i] = m.t.ColNames[dropped[len(dropped)-1-i]]
		}
		p.Diag.Dropped = strings.Join(names, ",")
	}
	if p.Diag.ExactIndex {
		exactIndexHits.Inc()
	}
	switch {
	case lvl >= 0 && lvl < len(relaxLevelFast):
		relaxLevelFast[lvl].Inc()
	case lvl >= 0:
		relaxationLevel.With(strconv.Itoa(lvl)).Inc()
	default:
		relaxFallback.Inc()
	}
	return p
}

// ladder walks the relaxation ladder: exact matching on the full
// dependent set, then dropping the least informative dependent attribute
// (per the query's observed values, qdeps order) per level until a
// decisive pool appears. It returns the first decisive vote and its level,
// or (when no level is decisive) the most specific thin vote.
func (m *Model) ladder(ps *predictScratch, codes []int32, qdeps []int, scopeRows []int32, scoped bool) (learn.Prediction, int, bool) {
	var (
		fallback      learn.Prediction
		fallbackLevel = -1
	)
	for drop := 0; drop <= len(qdeps); drop++ {
		deps := qdeps[:len(qdeps)-drop]
		p, decisive := m.vote(ps, codes, deps, drop == 0, scopeRows, scoped, drop)
		if p.Label == "" {
			continue // no matches at this relaxation level
		}
		if decisive {
			return p, drop, true
		}
		if fallbackLevel < 0 {
			fallback, fallbackLevel = p, drop
		}
	}
	return fallback, fallbackLevel, false
}

// vote tallies the matching carriers for the query on deps and reports
// whether the pool is decisive: big enough (MinMatches), or small but
// agreeing at the support threshold with at least two carriers — the
// rare-combination case of Sec 3.2 (few carriers, one distinctive value).
func (m *Model) vote(ps *predictScratch, codes []int32, deps []int, full bool, scopeRows []int32, scoped bool, drop int) (learn.Prediction, bool) {
	// Every live row matches the empty set network-wide: that vote is the
	// global majority, tallied once per model.
	label, share, n := m.globalLabel, m.globalShare, m.live
	if len(deps) > 0 || scoped {
		matches := m.matches(ps, codes, deps, full, scopeRows, scoped)
		if len(matches) == 0 {
			return learn.Prediction{}, false
		}
		label, share = m.majorityOf(ps, matches)
		n = len(matches)
	}
	// Confidence is the voting support (the paper's 75% rule applies to
	// it); a single witness is discounted since there is no vote at all.
	conf := share
	if n == 1 {
		conf *= 0.5
	}
	// The explanation is NOT rendered here: most votes are discarded by
	// the ladder, so finish() formats only the winning one, reconstructing
	// it from the Diag fields below.
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
		(drop == 0 && share == 1)
	return p, decisive
}

// majorityOf tallies match labels into a dense per-code count array and
// returns the most frequent label (topLabel's tie-break) and its share.
func (m *Model) majorityOf(ps *predictScratch, matches []int32) (string, float64) {
	if cap(ps.counts) < len(m.labels) {
		ps.counts = make([]int32, len(m.labels))
	}
	counts := ps.counts[:len(m.labels)]
	clear(counts)
	for _, idx := range matches {
		counts[m.labelCodes[idx]]++
	}
	best, bestN := topLabel(counts, m.labels)
	return m.labels[best], float64(bestN) / float64(len(matches))
}

// matches returns the live training rows matching the query codes on deps,
// in ascending row order. The full dependent set resolves through the
// exact code-key index; relaxed sets intersect the per-column posting
// lists smallest-first. A scope, when present, is one more sorted list in
// the intersection — never a per-row callback — and is the whole answer
// for the empty set. The unscoped empty set is every live row, which vote
// reads off the global tally instead of asking here.
func (m *Model) matches(ps *predictScratch, codes []int32, deps []int, full bool, scopeRows []int32, scoped bool) []int32 {
	switch {
	case full:
		// The full dependent set is order-insensitive; the index is keyed
		// in column order (keyCols). Unseen codes (-1) serialize to a key
		// no training row produced, so they miss — exactly like a failed
		// string comparison on every row.
		kb := ps.kb[:0]
		for _, d := range m.keyCols {
			kb = appendCode(kb, codes[d])
		}
		ps.kb = kb
		var cands []int32
		if g, ok := m.index[string(kb)]; ok {
			cands = m.idxLists[g]
		} else if m.indexAdd != nil {
			if g, ok := m.indexAdd[string(kb)]; ok {
				cands = m.idxLists[g]
			}
		}
		if !scoped || len(cands) == 0 {
			return cands
		}
		a, b := cands, scopeRows
		if len(b) < len(a) {
			a, b = b, a
		}
		out := intersectSorted(ps.inter[:0], a, b)
		ps.inter = out[:0]
		return out
	default:
		return m.intersect(ps, codes, deps, scopeRows, scoped)
	}
}

// intersect computes the ascending intersection of the posting lists for
// the query's codes on deps — plus the scope's row list when present —
// starting from the smallest list. Any unseen or empty posting
// short-circuits to no matches.
func (m *Model) intersect(ps *predictScratch, codes []int32, deps []int, scopeRows []int32, scoped bool) []int32 {
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
	if scoped {
		if len(scopeRows) == 0 {
			return nil
		}
		lists = append(lists, scopeRows)
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
			// posting list (or the scope) and must not be overwritten.
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

// explain renders the winning vote's account. It is hand-formatted with
// strconv appends because it runs once per prediction on the serving hot
// path; the output is byte-identical to the fmt.Fprintf formulation (Go's
// %.0f and %d are exactly strconv's 'f'/base-10 renderings), which the
// equivalence tests pin against the fmt-based reference model.
func (m *Model) explain(row []string, deps []int, label string, share float64, n, drop int) string {
	var sb strings.Builder
	sb.Grow(96)
	var num [24]byte
	sb.Write(strconv.AppendFloat(num[:0], share*100, 'f', 0, 64))
	sb.WriteString("% of ")
	sb.Write(strconv.AppendInt(num[:0], int64(n), 10))
	sb.WriteString(" carriers matching on ")
	if len(deps) == 0 {
		sb.WriteString("(no dependent attributes)")
	}
	const maxShown = 4 // strongest associations first; elide the tail
	for i, d := range deps {
		if i == maxShown {
			sb.WriteString(" ∧ … (+")
			sb.Write(strconv.AppendInt(num[:0], int64(len(deps)-maxShown), 10))
			sb.WriteString(" more)")
			break
		}
		if i > 0 {
			sb.WriteString(" ∧ ")
		}
		sb.WriteString(m.t.ColNames[d])
		sb.WriteByte('=')
		sb.WriteString(row[d])
	}
	sb.WriteString(" hold ")
	sb.WriteString(label)
	if drop > 0 {
		sb.WriteString(" (after relaxing ")
		sb.Write(strconv.AppendInt(num[:0], int64(drop), 10))
		sb.WriteString(" weakest dependent attribute(s))")
	}
	if share < m.opts.Support {
		sb.WriteString(" — below the ")
		sb.Write(strconv.AppendFloat(num[:0], m.opts.Support*100, 'f', 0, 64))
		sb.WriteString("% support threshold")
	}
	return sb.String()
}
