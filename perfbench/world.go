package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"

	"auric"
	"auric/internal/lte"
	"auric/internal/snapshot"
)

// World size: the paper's 28 markets at 30 eNodeBs each. Seed 1 yields
// 6,498 carriers and 57,795 X2 relations.
const (
	worldMarkets = 28
	worldENodeBs = 30
)

// Workload shapes.
const (
	hotCarriers = 64  // launch: distinct carriers the Zipf draws cover
	zipfS       = 1.2 // launch: Zipf exponent over hotCarriers ranks
	sweepBatch  = 64  // sweep: carriers per NDJSON batch
	probeSet    = 8   // carriers whose served values are compared in process
)

// world is the generated input of one run: the snapshot auricd loads and
// the network the benchmark derives its requests from, read back from that
// same snapshot so both sides see identical carriers and X2 relations.
type world struct {
	seed     uint64
	snapPath string
	net      *lte.Network
	cfg      *lte.Config
	x2       *auric.X2Graph
	schema   *auric.Schema

	hot    []lte.CarrierID // launch: Zipf rank r (0-based) -> carrier
	perm   []lte.CarrierID // sweep: visiting order of every carrier
	donors []lte.CarrierID // ingest probe: donor of clone k (cyclically)
	probes []lte.CarrierID // output check: carriers compared in process
}

// loadWorld generates the seed's network once per checkout, saves it as a
// snapshot under dir, and derives every request sequence from the seed.
func loadWorld(dir string, seed uint64) (*world, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("world-seed%d.snap", seed))
	if _, err := os.Stat(path); err != nil {
		w := auric.SimulateNetwork(auric.NetworkOptions{Seed: seed, Markets: worldMarkets, ENodeBsPerMarket: worldENodeBs})
		tmp := path + ".tmp"
		if err := snapshot.Save(tmp, w.Net, w.Current); err != nil {
			return nil, fmt.Errorf("saving snapshot: %w", err)
		}
		if err := os.Rename(tmp, path); err != nil {
			return nil, err
		}
	}
	return openWorld(path, seed)
}

// openWorld reads a snapshot back and derives the seed's request sequences
// from it.
func openWorld(path string, seed uint64) (*world, error) {
	net, cfg, err := snapshot.Load(path)
	if err != nil {
		return nil, fmt.Errorf("loading snapshot: %w", err)
	}
	if len(net.Carriers) < 2*hotCarriers {
		return nil, fmt.Errorf("snapshot has %d carriers, need at least %d", len(net.Carriers), 2*hotCarriers)
	}
	w := &world{seed: seed, snapPath: path, net: net, cfg: cfg, x2: auric.BuildX2(net), schema: cfg.Schema()}
	w.derive()
	if len(w.hot) < hotCarriers {
		return nil, fmt.Errorf("snapshot has %d carriers with a full neighbor list, need %d", len(w.hot), hotCarriers)
	}
	return w, nil
}

// rng returns a generator for one named stream of the seed, so adding a
// stream never shifts the draws of another.
func (w *world) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(w.seed, stream))
}

// Stream ids of rng.
const (
	streamHot = iota + 1
	streamPerm
	streamDonors
	streamProbes
	streamConn // + connection index: per-connection Zipf draws
)

func (w *world) derive() {
	n := len(w.net.Carriers)
	byMarket := make([][]lte.CarrierID, len(w.net.Markets))
	full := make([][]lte.CarrierID, len(w.net.Markets))
	maxNb := 0
	for i := range w.net.Carriers {
		maxNb = max(maxNb, len(w.x2.CarrierNeighbors(lte.CarrierID(i))))
	}
	for i := range w.net.Carriers {
		c := lte.CarrierID(i)
		m := w.net.Carriers[i].Market
		byMarket[m] = append(byMarket[m], c)
		if len(w.x2.CarrierNeighbors(c)) == maxNb {
			full[m] = append(full[m], c)
		}
	}

	// Hot set: carriers with a full X2 neighbor list (most carriers have
	// one), so every launch request asks for the same number of answers
	// whatever the seed; two from every market, the rest anywhere, then a
	// shuffle so Zipf rank is independent of market order.
	r := w.rng(streamHot)
	taken := make(map[lte.CarrierID]bool)
	var pool []lte.CarrierID
	for _, cs := range full {
		for j, i := range r.Perm(len(cs)) {
			if j < 2 {
				taken[cs[i]] = true
				w.hot = append(w.hot, cs[i])
			} else {
				pool = append(pool, cs[i])
			}
		}
	}
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	for _, c := range pool {
		if len(w.hot) >= hotCarriers {
			break
		}
		taken[c] = true
		w.hot = append(w.hot, c)
	}
	w.hot = w.hot[:min(hotCarriers, len(w.hot))] // more than 28 markets
	r.Shuffle(len(w.hot), func(i, j int) { w.hot[i], w.hot[j] = w.hot[j], w.hot[i] })

	r = w.rng(streamPerm)
	w.perm = make([]lte.CarrierID, n)
	for i, p := range r.Perm(n) {
		w.perm[i] = lte.CarrierID(p)
	}

	// Donors: one carrier per market per round, the markets of a round in
	// a seeded order, so any 28 consecutive upserts touch every market once
	// and the cost of a delta averages over all of them whatever the seed.
	// Donors sit on eNodeBs neither hosting nor X2-adjacent to a hot
	// carrier: a clone there never joins a hot carrier's neighbor list, so
	// the pair-wise answer count stays checkable while clones come and go.
	near := make(map[lte.ENodeBID]bool)
	for _, c := range w.hot {
		e := w.net.Carriers[c].ENodeB
		near[e] = true
		for _, ne := range w.x2.ENodeBNeighbors(e) {
			near[ne] = true
		}
	}
	var pools [][]lte.CarrierID
	for _, cs := range byMarket {
		var pool []lte.CarrierID
		for _, c := range cs {
			if !near[w.net.Carriers[c].ENodeB] {
				pool = append(pool, c)
			}
		}
		if len(pool) > 0 {
			pools = append(pools, pool)
		}
	}
	r = w.rng(streamDonors)
	for round := 0; round < 8 && len(pools) > 0; round++ {
		for _, m := range r.Perm(len(pools)) {
			w.donors = append(w.donors, pools[m][r.IntN(len(pools[m]))])
		}
	}

	// Probes: the four hottest carriers plus four drawn from the rest.
	r = w.rng(streamProbes)
	w.probes = append(w.probes, w.hot[:probeSet/2]...)
	for len(w.probes) < probeSet {
		c := lte.CarrierID(r.IntN(n))
		if !taken[c] {
			taken[c] = true
			w.probes = append(w.probes, c)
		}
	}
}

// zipf draws ranks in [0, k) with P(rank r) proportional to 1/(r+1)^s by
// inverse-CDF lookup.
type zipf struct {
	cdf []float64
	r   *rand.Rand
}

func newZipf(r *rand.Rand, k int, s float64) *zipf {
	cdf := make([]float64, k)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf, r: r}
}

func (z *zipf) next() int {
	u := z.r.Float64()
	return min(sort.SearchFloat64s(z.cdf, u), len(z.cdf)-1)
}

// expectedRecs is the number of recommendations a carrier's answer must
// hold: every singular parameter, plus every pair-wise parameter towards
// each X2 neighbor when pair-wise answers are requested.
func (w *world) expectedRecs(c lte.CarrierID, pairwise bool) int {
	n := len(w.schema.Singular())
	if pairwise {
		n += len(w.schema.PairWise()) * len(w.x2.CarrierNeighbors(c))
	}
	return n
}
