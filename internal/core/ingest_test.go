package core

// Live-ingest tests. The central guarantee mirrors the cf package's: a
// sharded engine patched through any sequence of upserts and tombstones must
// recommend byte-identically to a sharded engine freshly loaded over the
// same surviving inventory. TestIngestEquivalence drives randomized deltas
// and pins every Recommendation field (Diag-derived evidence included)
// against that reference, FuzzIngestEquivalence searches delta sequences
// for a counterexample, and TestIngestHotApply races serving traffic
// against the apply path under the race detector.

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"auric/internal/geo"
	"auric/internal/lte"
	"auric/internal/netsim"
	"auric/internal/paramspec"
	"auric/internal/rng"
)

// donorUpsert builds an upsert cloning an existing live carrier: same
// eNodeB and attributes, full singular configuration, and pair-wise values
// toward the donor's current X2 neighbors.
func donorUpsert(schema *paramspec.Schema, net *lte.Network, x2 *geo.Graph, cfg *lte.Config, donor lte.CarrierID) Upsert {
	c := net.Carriers[donor]
	c.ID = -1
	u := Upsert{Carrier: c, Config: make(map[int]float64)}
	for _, pi := range schema.Singular() {
		u.Config[pi] = cfg.Get(donor, pi)
	}
	for _, nb := range x2.CarrierNeighbors(donor) {
		pv := PairValues{To: nb, Values: make(map[int]float64)}
		for _, pi := range schema.PairWise() {
			if v, ok := cfg.GetPair(donor, nb, pi); ok {
				pv.Values[pi] = v
			}
		}
		if len(pv.Values) > 0 {
			u.Pairs = append(u.Pairs, pv)
		}
	}
	return u
}

// liveCarriers lists the non-tombstoned carrier ids of the serving state.
func liveCarriers(t *testing.T, se *ShardedEngine) []lte.CarrierID {
	t.Helper()
	net, _, dead, _, err := se.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	deadSet := make(map[lte.CarrierID]bool, len(dead))
	for _, id := range dead {
		deadSet[id] = true
	}
	ids := make([]lte.CarrierID, 0, len(net.Carriers))
	for i := range net.Carriers {
		if !deadSet[lte.CarrierID(i)] {
			ids = append(ids, lte.CarrierID(i))
		}
	}
	return ids
}

// assertSharedBases checks the invariant batch encoding rests on: in every
// shard, all singular models are fitted over one columnar base, and all
// pair-wise models over another, so codes encoded through a group's first
// model are valid input to every model of the group. Load establishes it
// (one dataset.Builder per shard) and every Apply must preserve it (one
// ExtendBase per base in Engine.patched).
func assertSharedBases(t *testing.T, se *ShardedEngine) {
	t.Helper()
	st := se.state.Load()
	for market, e := range st.shards {
		if e == nil {
			continue
		}
		for _, group := range [][]int{e.schema.Singular(), e.schema.PairWise()} {
			if len(group) == 0 {
				continue
			}
			first := e.models[group[0]].Table()
			for _, pi := range group[1:] {
				if !e.models[pi].Table().SharesBase(first) {
					t.Fatalf("market %d: %s does not share the columnar base of %s",
						market, e.schema.At(pi).Name, e.schema.At(group[0]).Name)
				}
			}
		}
	}
}

// referenceEngine loads a fresh sharded engine over the serving state of se,
// with its tombstoned carriers dead from the start — the from-scratch refit
// every Apply must be indistinguishable from.
func referenceEngine(t *testing.T, se *ShardedEngine, opts Options) *ShardedEngine {
	t.Helper()
	net, cfg, dead, _, err := se.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	_, x2, _, err := se.Inventory()
	if err != nil {
		t.Fatal(err)
	}
	deadSet := make(map[lte.CarrierID]bool, len(dead))
	for _, id := range dead {
		deadSet[id] = true
	}
	ref := NewSharded(se.Schema(), Options{Local: opts.Local, Workers: 1})
	if _, err := ref.load(net, x2, cfg, deadSet); err != nil {
		t.Fatalf("reference load: %v", err)
	}
	return ref
}

// TestIngestEquivalence applies randomized delta sequences — fresh carriers
// cloned from donors, attribute-changing replacements, tombstones — and
// after every Apply requires the patched engine's recommendations to be
// DeepEqual to a freshly loaded engine over the surviving inventory, for
// live carriers across every market, pair-wise parameters included.
func TestIngestEquivalence(t *testing.T) {
	w := netsim.Generate(netsim.Options{Seed: 17, Markets: 3, ENodeBsPerMarket: 8})
	totalPatched, totalRefit := checkIngestEquivalence(t, w, 5, rng.New(9090))
	if totalPatched == 0 {
		t.Fatal("no model took the in-place patch path")
	}
	t.Logf("ingest: %d models patched in place, %d structural refits", totalPatched, totalRefit)
}

// FuzzIngestEquivalence decodes the delta choices of TestIngestEquivalence
// from the fuzz input: how many tombstones, fresh donor clones and
// in-place replacements each step applies, and the carrier index of each.
// Every input must leave the patched engine answering exactly like a fresh
// load over the surviving inventory.
func FuzzIngestEquivalence(f *testing.F) {
	w := netsim.Generate(netsim.Options{Seed: 17, Markets: 2, ENodeBsPerMarket: 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := byteChoices(data)
		checkIngestEquivalence(t, w, 2, &in)
	})
}

// deltaChoices supplies the choices of an ingest-equivalence run.
type deltaChoices interface {
	Intn(n int) int
	Bool(p float64) bool
}

// byteChoices replays fuzz input as deltaChoices: Intn reads two bytes
// (big-endian) modulo n and Bool one byte as a fraction of 256. An
// exhausted input answers 0 and false.
type byteChoices []byte

func (b *byteChoices) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v
}

func (b *byteChoices) Intn(n int) int { return (b.next()<<8 | b.next()) % n }

func (b *byteChoices) Bool(p float64) bool { return len(*b) > 0 && float64(b.next())/256 < p }

// orderOnlyDelta tombstones carrier 0, which in both ingest-equivalence
// worlds reorders some model's dependent set without changing its members
// — the shift an order-keyed exact index would have to re-key.
var orderOnlyDelta = Delta{Tombstones: []lte.CarrierID{0}}

// depOrders snapshots every shard model's dependent columns, strongest
// first, by market and parameter.
func depOrders(se *ShardedEngine) [][][]int {
	st := se.state.Load()
	out := make([][][]int, len(st.shards))
	for m, e := range st.shards {
		if e == nil {
			continue
		}
		out[m] = make([][]int, len(e.models))
		for pi, cm := range e.models {
			out[m][pi] = cm.DependentColumns()
		}
	}
	return out
}

// reordered counts the models whose dependent set holds the same columns
// in a different order in after than in before.
func reordered(before, after [][][]int) int {
	n := 0
	for m := range before {
		for pi := range before[m] {
			b, a := before[m][pi], after[m][pi]
			if slices.Equal(b, a) || len(a) != len(b) {
				continue
			}
			bs, as := slices.Clone(b), slices.Clone(a)
			slices.Sort(bs)
			slices.Sort(as)
			if slices.Equal(bs, as) {
				n++
			}
		}
	}
	return n
}

// onePairParamDelta adds a clone of the first live carrier with X2
// neighbors whose only pair-wise configuration is one parameter's value
// toward its first neighbor. The relation's row enters every pair-wise
// table of the market, which share their rows until this append.
func onePairParamDelta(t *testing.T, se *ShardedEngine) Delta {
	t.Helper()
	net, cfg, _, _, err := se.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	_, x2, _, err := se.Inventory()
	if err != nil {
		t.Fatal(err)
	}
	pi := se.Schema().PairWise()[0]
	for _, id := range liveCarriers(t, se) {
		nbs := x2.CarrierNeighbors(id)
		if len(nbs) == 0 {
			continue
		}
		v, ok := cfg.GetPair(id, nbs[0], pi)
		if !ok {
			continue
		}
		u := donorUpsert(se.Schema(), net, x2, cfg, id)
		u.Pairs = []PairValues{{To: nbs[0], Values: map[int]float64{pi: v}}}
		return Delta{Upserts: []Upsert{u}}
	}
	t.Fatal("no live carrier has a configured X2 relation")
	return Delta{}
}

// pairRows counts the rows of every shard's pair-wise tables.
func pairRows(se *ShardedEngine) []int {
	var n []int
	for _, e := range se.state.Load().shards {
		if e == nil {
			continue
		}
		for _, pi := range e.schema.PairWise() {
			n = append(n, e.models[pi].Table().Len())
		}
	}
	return n
}

// checkIngestEquivalence loads a Local sharded engine over w, applies
// orderOnlyDelta (failing unless it reorders some dependent set without
// changing it) and onePairParamDelta (failing unless every pair-wise table
// of the touched market gains its one row), then applies steps deltas
// drawn from r. After every Apply
// it requires the recommendations of every carrier the delta touched,
// plus nine drawn live carriers, to be DeepEqual to a fresh reference
// load. It returns the total models patched in place and refit.
func checkIngestEquivalence(t *testing.T, w *netsim.World, steps int, r deltaChoices) (totalPatched, totalRefit int) {
	t.Helper()
	opts := Options{Local: true, Workers: 1}
	se := NewSharded(w.Schema, opts)
	if _, err := se.Load(w.Net, w.X2, w.Current); err != nil {
		t.Fatal(err)
	}
	assertSharedBases(t, se)

	// Steps 0 and 1 apply the fixed deltas; steps 2..steps+1 are drawn.
	for step := 0; step <= steps+1; step++ {
		net, _, _, _, err := se.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		d := orderOnlyDelta
		var before [][][]int
		rowsBefore := pairRows(se)
		switch step {
		case 0:
			before = depOrders(se)
		case 1:
			d = onePairParamDelta(t, se)
		default:
			d = randomDelta(t, se, r, step-1)
		}

		res, err := se.Apply(d)
		if err != nil {
			t.Fatalf("step %d: Apply: %v", step, err)
		}
		if step == 0 && reordered(before, depOrders(se)) == 0 {
			t.Fatal("the order-only delta reordered no model's dependent set")
		}
		if step == 1 {
			grew := 0
			for i, n := range pairRows(se) {
				grew += n - rowsBefore[i]
			}
			if want := len(se.Schema().PairWise()); grew != want {
				t.Fatalf("the one-relation delta added %d pair-wise rows, want %d (one per pair-wise table)", grew, want)
			}
		}
		totalPatched += res.Patched
		totalRefit += res.Refit
		assertSharedBases(t, se)
		for i, u := range d.Upserts {
			if u.Carrier.ID == -1 && int(res.Assigned[i]) < len(net.Carriers) {
				t.Fatalf("step %d: new carrier assigned old id %d", step, res.Assigned[i])
			}
		}

		ref := referenceEngine(t, se, opts)
		net2, _, _, _, err := se.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		_, x22, _, err := se.Inventory()
		if err != nil {
			t.Fatal(err)
		}
		assertX2Rebuilt(t, step, net2, x22)
		// Query a spread of live carriers plus everything this delta touched.
		queries := append([]lte.CarrierID{}, res.Assigned...)
		live := liveCarriers(t, se)
		for i := 0; i < 9; i++ {
			queries = append(queries, live[r.Intn(len(live))])
		}
		for _, id := range queries {
			c := &net2.Carriers[id]
			nbs := x22.CarrierNeighbors(id)
			got, err := se.Recommend(c, nbs)
			if err != nil {
				t.Fatalf("step %d carrier %d: patched: %v", step, id, err)
			}
			want, err := ref.Recommend(c, nbs)
			if err != nil {
				t.Fatalf("step %d carrier %d: reference: %v", step, id, err)
			}
			if !reflect.DeepEqual(got, want) {
				for j := range got {
					if j < len(want) && !reflect.DeepEqual(got[j], want[j]) {
						t.Errorf("rec %d:\n got %+v\nwant %+v", j, got[j], want[j])
						break
					}
				}
				t.Fatalf("step %d carrier %d: patched recommendations differ from fresh reload (%d vs %d recs)",
					step, id, len(got), len(want))
			}
		}
	}
	return totalPatched, totalRefit
}

// randomDelta draws one ingest delta against se's serving state: up to two
// tombstones, up to two fresh carriers cloned from live donors, and with
// probability 0.7 an in-place replacement of a live carrier's attributes.
func randomDelta(t *testing.T, se *ShardedEngine, r deltaChoices, step int) Delta {
	t.Helper()
	net, cfg, _, _, err := se.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	_, x2, _, err := se.Inventory()
	if err != nil {
		t.Fatal(err)
	}
	live := liveCarriers(t, se)

	// Tombstones first, so upserts can steer clear of them: a pair
	// relation to a carrier dying in the same delta is a validation error
	// by design.
	var d Delta
	tomb := make(map[lte.CarrierID]bool)
	for k := r.Intn(3); k > 0; k-- {
		id := live[r.Intn(len(live))]
		if !tomb[id] {
			tomb[id] = true
			d.Tombstones = append(d.Tombstones, id)
		}
	}
	addUpsert := func(u Upsert) {
		pairs := u.Pairs[:0]
		for _, pv := range u.Pairs {
			if !tomb[pv.To] {
				pairs = append(pairs, pv)
			}
		}
		u.Pairs = pairs
		d.Upserts = append(d.Upserts, u)
	}
	for k := r.Intn(3); k > 0; k-- { // fresh carriers cloned from donors
		donor := live[r.Intn(len(live))]
		if tomb[donor] {
			continue
		}
		u := donorUpsert(se.Schema(), net, x2, cfg, donor)
		u.Carrier.SoftwareVersion = fmt.Sprintf("RAN2%dQ%d", step, r.Intn(3)+1)
		addUpsert(u)
	}
	if r.Bool(0.7) { // replace an existing carrier's attributes in place
		id := live[r.Intn(len(live))]
		if !tomb[id] {
			u := donorUpsert(se.Schema(), net, x2, cfg, id)
			u.Carrier.ID = id
			u.Carrier.Info = "border"
			pi := se.Schema().Singular()[r.Intn(len(se.Schema().Singular()))]
			u.Config[pi] = se.Schema().At(pi).Max
			addUpsert(u)
		}
	}
	return d
}

// assertX2Rebuilt requires the served X2 graph, which Apply rebuilds only
// for the markets a delta touches, to equal a full BuildX2 over the served
// network: every carrier's and every eNodeB's neighbor list.
func assertX2Rebuilt(t *testing.T, step int, net *lte.Network, got *geo.Graph) {
	t.Helper()
	want := geo.BuildX2(net)
	if got.NumCarriers() != want.NumCarriers() || got.NumENodeBs() != want.NumENodeBs() {
		t.Fatalf("step %d: served X2 graph covers %d carriers / %d eNodeBs, BuildX2 %d / %d",
			step, got.NumCarriers(), got.NumENodeBs(), want.NumCarriers(), want.NumENodeBs())
	}
	for i := 0; i < want.NumCarriers(); i++ {
		id := lte.CarrierID(i)
		if g, w := got.CarrierNeighbors(id), want.CarrierNeighbors(id); !slices.Equal(g, w) {
			t.Fatalf("step %d: carrier %d neighbors %v, BuildX2 %v", step, id, g, w)
		}
	}
	for i := 0; i < want.NumENodeBs(); i++ {
		id := lte.ENodeBID(i)
		if g, w := got.ENodeBNeighbors(id), want.ENodeBNeighbors(id); !slices.Equal(g, w) {
			t.Fatalf("step %d: eNodeB %d neighbors %v, BuildX2 %v", step, id, g, w)
		}
	}
}

// TestApplyStageTimings requires one Apply to observe each of its stages in
// auric_apply_stage_seconds exactly once, and a stage sum no larger than
// the apply total it splits.
func TestApplyStageTimings(t *testing.T) {
	_, se := shardedWorld(t, 2)
	net, cfg, _, _, err := se.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	_, x2, _, err := se.Inventory()
	if err != nil {
		t.Fatal(err)
	}
	stages := []string{"validate", "inventory", "config", "x2", "patch", "swap"}
	count := func() (counts []uint64, stageSum, total float64) {
		for _, s := range stages {
			h := ApplyStageSeconds.With(s)
			counts = append(counts, h.Count())
			stageSum += h.Sum()
		}
		return counts, stageSum, ingestApplySeconds.Sum()
	}
	before, sum0, total0 := count()
	if _, err := se.Apply(Delta{Upserts: []Upsert{donorUpsert(se.Schema(), net, x2, cfg, 5)}}); err != nil {
		t.Fatal(err)
	}
	after, sum1, total1 := count()
	for i, s := range stages {
		if after[i] != before[i]+1 {
			t.Errorf("stage %s: count advanced by %d, want 1", s, after[i]-before[i])
		}
	}
	if stageSum, total := sum1-sum0, total1-total0; stageSum <= 0 || stageSum > total {
		t.Errorf("stage seconds sum to %g, want in (0, %g] (the apply total)", stageSum, total)
	}
}

// TestIngestValidation pins the per-delta error surface: every malformed
// item is rejected with the serving state untouched.
func TestIngestValidation(t *testing.T) {
	_, se := shardedWorld(t, 2)
	schema := se.Schema()
	net, cfg, _, gen0, err := se.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	_, x2, _, err := se.Inventory()
	if err != nil {
		t.Fatal(err)
	}
	ok := donorUpsert(schema, net, x2, cfg, 0)

	pairPi := schema.PairWise()[0]
	singPi := schema.Singular()[0]
	otherMarket := lte.CarrierID(-1)
	for i := range net.Carriers {
		if net.Carriers[i].Market != net.Carriers[0].Market {
			otherMarket = lte.CarrierID(i)
			break
		}
	}

	cases := []struct {
		name string
		d    Delta
		frag string
	}{
		{"unknown eNodeB", Delta{Upserts: []Upsert{func() Upsert {
			u := ok
			u.Carrier.ENodeB = lte.ENodeBID(len(net.ENodeBs))
			return u
		}()}}, "eNodeB"},
		{"market mismatch", Delta{Upserts: []Upsert{func() Upsert {
			u := ok
			u.Carrier.Market++
			return u
		}()}}, "market"},
		{"bad face", Delta{Upserts: []Upsert{func() Upsert {
			u := ok
			u.Carrier.Face = 7
			return u
		}()}}, "face"},
		{"bad id", Delta{Upserts: []Upsert{func() Upsert {
			u := ok
			u.Carrier.ID = lte.CarrierID(len(net.Carriers) + 5)
			return u
		}()}}, "use -1 to create"},
		{"cross-market rehome", Delta{Upserts: []Upsert{func() Upsert {
			u := donorUpsert(schema, net, x2, cfg, otherMarket)
			u.Carrier.ID = 0 // carrier 0 lives in the other market
			return u
		}()}}, "cannot move"},
		{"duplicate upsert", Delta{Upserts: []Upsert{func() Upsert {
			u := ok
			u.Carrier.ID = 0
			u.Pairs = nil
			return u
		}(), func() Upsert {
			u := ok
			u.Carrier.ID = 0
			u.Pairs = nil
			return u
		}()}}, "upserted twice"},
		{"upsert and tombstone", Delta{Upserts: []Upsert{func() Upsert {
			u := ok
			u.Carrier.ID = 0
			u.Pairs = nil
			return u
		}()}, Tombstones: []lte.CarrierID{0}}, "both upserted and tombstoned"},
		{"pair param in config", Delta{Upserts: []Upsert{func() Upsert {
			u := ok
			u.Config = map[int]float64{pairPi: 1}
			return u
		}()}}, "invalid singular parameter"},
		{"singular param in pairs", Delta{Upserts: []Upsert{func() Upsert {
			u := ok
			u.Pairs = []PairValues{{To: 1, Values: map[int]float64{singPi: 1}}}
			return u
		}()}}, "invalid pair-wise parameter"},
		{"cross-market relation", Delta{Upserts: []Upsert{func() Upsert {
			u := ok
			u.Pairs = []PairValues{{To: otherMarket, Values: map[int]float64{pairPi: 1}}}
			return u
		}()}}, "cross-market relation"},
		{"tombstone out of range", Delta{Tombstones: []lte.CarrierID{lte.CarrierID(len(net.Carriers))}}, "outside"},
		{"tombstone twice", Delta{Tombstones: []lte.CarrierID{1, 1}}, "twice"},
	}
	for _, tc := range cases {
		if _, err := se.Apply(tc.d); err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: err = %v, want fragment %q", tc.name, err, tc.frag)
		}
	}
	if g := se.Generation(); g != gen0 {
		t.Fatalf("rejected deltas bumped the generation from %d to %d", gen0, g)
	}

	// Tombstoned ids reject further changes and report as tombstoned.
	if _, err := se.Apply(Delta{Tombstones: []lte.CarrierID{2}}); err != nil {
		t.Fatal(err)
	}
	if dead, err := tombstoned(se, 2); err != nil || !dead {
		t.Fatalf("tombstoned(2) = %v, %v; want true", dead, err)
	}
	if _, err := se.Apply(Delta{Tombstones: []lte.CarrierID{2}}); err == nil ||
		!strings.Contains(err.Error(), "already tombstoned") {
		t.Errorf("double tombstone: err = %v", err)
	}
	re := donorUpsert(schema, net, x2, cfg, 2)
	re.Carrier.ID = 2
	re.Pairs = nil
	if _, err := se.Apply(Delta{Upserts: []Upsert{re}}); err == nil ||
		!strings.Contains(err.Error(), "tombstoned") {
		t.Errorf("upsert of tombstoned id: err = %v", err)
	}

	// Emptying a market is rejected: the patch path cannot train it back.
	market0 := net.Carriers[0].Market
	var all []lte.CarrierID
	for _, id := range liveCarriers(t, se) {
		if net.Carriers[id].Market == market0 {
			all = append(all, id)
		}
	}
	if _, err := se.Apply(Delta{Tombstones: all}); err == nil ||
		!strings.Contains(err.Error(), "no live carriers") {
		t.Errorf("emptying a market: err = %v", err)
	}
}

// TestIngestUntrainedMarket rejects upserts into a market that has eNodeBs
// but no trained shard (no carriers in the loaded snapshot).
func TestIngestUntrainedMarket(t *testing.T) {
	w := netsim.Generate(netsim.Options{Seed: 11, Markets: 2, ENodeBsPerMarket: 6})
	empty := len(w.Net.Markets)
	w.Net.Markets = append(w.Net.Markets, lte.Market{ID: empty, Name: "greenfield", Timezone: "Pacific"})
	w.Net.ENodeBs = append(w.Net.ENodeBs, lte.ENodeB{
		ID: lte.ENodeBID(len(w.Net.ENodeBs)), Market: empty, Vendor: "VendorA", Lat: 90, Lon: 90,
	})
	x2 := geo.BuildX2(w.Net)
	se := NewSharded(w.Schema, Options{Workers: 1})
	if _, err := se.Load(w.Net, x2, w.Current); err != nil {
		t.Fatal(err)
	}
	u := donorUpsert(w.Schema, w.Net, x2, w.Current, 0)
	u.Carrier.ENodeB = lte.ENodeBID(len(w.Net.ENodeBs) - 1)
	u.Carrier.Market = empty
	u.Pairs = nil
	if _, err := se.Apply(Delta{Upserts: []Upsert{u}}); err == nil ||
		!strings.Contains(err.Error(), "no trained shard") {
		t.Fatalf("upsert into untrained market: err = %v", err)
	}
}

// TestIngestHotApply races serving traffic against a stream of Applies:
// every request must complete without error on some consistent generation,
// and each Apply must return only after the generation it retired drained —
// the same zero-downtime contract as TestShardedHotReload, now for the
// ingest path. Run under -race this gates the copy-on-write discipline end
// to end (dataset extension, cf patching, shard swap).
func TestIngestHotApply(t *testing.T) {
	_, se := shardedWorld(t, 2)
	net, cfg, _, _, err := se.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	_, x2, _, err := se.Inventory()
	if err != nil {
		t.Fatal(err)
	}
	ids := []lte.CarrierID{0, 3, 7, 11}

	stop := make(chan struct{})
	var requests, failures atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[(g+i)%len(ids)]
				c := &net.Carriers[id]
				if i%4 == 0 {
					res, err := se.RecommendBatch(context.Background(),
						[]BatchItem{{Carrier: c}, {Carrier: &net.Carriers[ids[(g+i+1)%len(ids)]]}})
					requests.Add(1)
					if err != nil || res[0].Err != nil || res[1].Err != nil {
						failures.Add(1)
					}
					continue
				}
				recs, err := se.Recommend(c, nil)
				requests.Add(1)
				if err != nil || len(recs) == 0 {
					failures.Add(1)
				}
			}
		}(g)
	}

	u := donorUpsert(se.Schema(), net, x2, cfg, 5)
	prev := lte.CarrierID(-1)
	for i := 0; i < 6; i++ {
		old := se.state.Load()
		d := Delta{Upserts: []Upsert{u}}
		if prev >= 0 {
			d.Tombstones = []lte.CarrierID{prev}
		}
		res, err := se.Apply(d)
		if err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		prev = res.Assigned[0]
		select {
		case <-old.drained:
		default:
			t.Fatalf("apply %d returned before the old generation drained", i)
		}
	}
	close(stop)
	wg.Wait()
	if requests.Load() == 0 {
		t.Fatal("hammer issued no requests")
	}
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d of %d requests failed during live ingest, want 0", n, requests.Load())
	}
}

// tombstoned reports whether id is in the engine's sorted tombstone list.
func tombstoned(se *ShardedEngine, id lte.CarrierID) (bool, error) {
	_, _, dead, _, err := se.SnapshotState()
	if err != nil {
		return false, err
	}
	_, found := slices.BinarySearch(dead, id)
	return found, nil
}
