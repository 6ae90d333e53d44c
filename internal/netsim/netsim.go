// Package netsim generates synthetic LTE networks with a known
// ground-truth configuration process. It is the substitute for the paper's
// proprietary 400K-carrier AT&T dataset (see DESIGN.md): rather than
// replaying real data, it plants the statistical structure the paper
// reports — parameters that depend on small attribute subsets, per-market
// engineering styles, geographically local tuning regions, rare-cluster
// optimizations, stale trial leftovers, certification roll-outs in
// progress, and a hidden terrain attribute — so that the relative behaviour
// of the learners (Sec 4.3) can be reproduced and audited against a known
// oracle.
package netsim

import (
	"fmt"

	"auric/internal/geo"
	"auric/internal/lte"
	"auric/internal/paramspec"
	"auric/internal/rng"
)

// Options configures generation. The zero value is not useful; start from
// DefaultOptions (or a scale preset) and override.
type Options struct {
	// Seed drives all randomness; equal options generate identical worlds.
	Seed uint64
	// Markets is the number of markets (the paper's network has 28).
	Markets int
	// ENodeBsPerMarket is the mean number of eNodeBs per market.
	ENodeBsPerMarket int
	// Schema is the configuration parameter schema; nil means
	// paramspec.Default().
	Schema *paramspec.Schema

	// Ground-truth process knobs. Zero values take the documented
	// defaults; see DefaultOptions.
	Truth TruthOptions
}

// TruthOptions are the knobs of the ground-truth configuration process.
type TruthOptions struct {
	// MarketStyleRate is the probability that a (parameter, market) pair
	// has a market-wide engineering style offset from the rulebook base.
	MarketStyleRate float64
	// ClusterOverrideRate scales the probability that a (parameter,
	// cluster) pair carries a local tuning override. The effective
	// probability is ClusterOverrideRate * the parameter's tunability.
	ClusterOverrideRate float64
	// RareValueShare is the probability that a cluster override takes a
	// far, rare grid value instead of a near one.
	RareValueShare float64
	// StaleTrialRate is the per-(carrier, parameter) probability that the
	// current value is a leftover from an abandoned trial (current !=
	// optimal). These drive the paper's "good recommendation" mismatches.
	StaleTrialRate float64
	// MicroTuneRate is the per-(carrier, parameter) probability of an
	// individual engineer micro-adjustment: an intentional small shift
	// (current == optimal) that neither attributes nor geography explain.
	// These cap every learner's accuracy and drive the paper's
	// "inconclusive" mismatch slice (67% in Fig 12).
	MicroTuneRate float64
	// TerrainRate is unused directly; terrain is assigned per cluster.
	// TerrainShare is the share of parameters affected by the hidden
	// terrain attribute (rounded down to a parameter count).
	TerrainShare float64
	// RolloutRate is the probability that a (parameter, market) pair has
	// a certification roll-out in progress on a subset of clusters.
	RolloutRate float64
	// RolloutClusterShare is the share of clusters participating in an
	// active roll-out.
	RolloutClusterShare float64
}

// DefaultOptions returns the medium-scale defaults used by the examples:
// 28 markets at modest per-market size, with ground-truth rates calibrated
// (see EXPERIMENTS.md) to land the headline results near the paper's.
func DefaultOptions() Options {
	return Options{
		Seed:             1,
		Markets:          28,
		ENodeBsPerMarket: 60,
		Truth:            DefaultTruth(),
	}
}

// DefaultTruth returns the calibrated ground-truth process knobs.
func DefaultTruth() TruthOptions {
	return TruthOptions{
		MarketStyleRate:     0.45,
		ClusterOverrideRate: 0.10,
		RareValueShare:      0.15,
		StaleTrialRate:      0.014,
		MicroTuneRate:       0.028,
		TerrainShare:        0.07,
		RolloutRate:         0.025,
		RolloutClusterShare: 0.25,
	}
}

// Cause records why a (carrier, parameter) value is what it is, for the
// mismatch-labeling oracle (Fig 12).
type Cause int

const (
	// CauseNormal: the value follows the attribute rule (possibly with a
	// market style or a local cluster override).
	CauseNormal Cause = iota
	// CauseStaleTrial: the current value is an abandoned-trial leftover;
	// the optimal value differs. A recommendation equal to the optimal
	// value is a "good recommendation" (28% slice of Fig 12).
	CauseStaleTrial
	// CauseHiddenTerrain: the value is shifted by the hidden terrain
	// attribute, which learners cannot observe. Mispredictions here label
	// as "update learner" (missing-attribute reason of Sec 4.3.3).
	CauseHiddenTerrain
	// CauseRecentRollout: the value is part of an in-progress
	// certification roll-out, intentionally not in the majority.
	// Mispredictions here label as "update learner" (temporal reason of
	// Sec 4.3.3).
	CauseRecentRollout
)

// String names the cause.
func (c Cause) String() string {
	switch c {
	case CauseNormal:
		return "normal"
	case CauseStaleTrial:
		return "stale-trial"
	case CauseHiddenTerrain:
		return "hidden-terrain"
	case CauseRecentRollout:
		return "recent-rollout"
	default:
		return fmt.Sprintf("Cause(%d)", int(c))
	}
}

// CauseKey addresses one configured value: a singular value (To == -1) or
// a pair-wise value on the directed From→To relation.
type CauseKey struct {
	From  lte.CarrierID
	To    lte.CarrierID // -1 for singular parameters
	Param int           // schema index
}

// World is a generated network with its configuration state and oracle.
type World struct {
	Opts    Options
	Schema  *paramspec.Schema
	Net     *lte.Network
	X2      *geo.Graph
	Current *lte.Config // values running in the network (learner input)
	Optimal *lte.Config // engineer-intended values (oracle)
	// Causes holds the cause for every value whose cause is not
	// CauseNormal.
	Causes map[CauseKey]Cause
	// ENodeBCluster maps each eNodeB to its market-local tuning cluster.
	ENodeBCluster []int
}

// CauseOf returns the cause of a singular value.
func (w *World) CauseOf(c lte.CarrierID, param int) Cause {
	return w.Causes[CauseKey{From: c, To: -1, Param: param}]
}

// CauseOfPair returns the cause of a pair-wise value.
func (w *World) CauseOfPair(from, to lte.CarrierID, param int) Cause {
	return w.Causes[CauseKey{From: from, To: to, Param: param}]
}

// Generate builds a world from opts.
func Generate(opts Options) *World {
	if opts.Markets <= 0 {
		opts.Markets = 28
	}
	if opts.ENodeBsPerMarket <= 0 {
		opts.ENodeBsPerMarket = 60
	}
	if opts.Schema == nil {
		opts.Schema = paramspec.Default()
	}
	if opts.Truth == (TruthOptions{}) {
		opts.Truth = DefaultTruth()
	}
	root := rng.New(opts.Seed)

	w := &World{
		Opts:   opts,
		Schema: opts.Schema,
		Causes: make(map[CauseKey]Cause),
	}
	w.buildTopology(root.Fork("topology"))
	w.X2 = geo.BuildX2(w.Net)
	w.assignNeighborCounts()
	w.buildGroundTruth(root.Fork("truth"))
	return w
}

// assignNeighborCounts fills the dynamic neighbors-on-same-eNodeB
// attribute after topology construction.
func (w *World) assignNeighborCounts() {
	for i := range w.Net.Carriers {
		c := &w.Net.Carriers[i]
		c.NeighborsOnENB = len(w.Net.ENodeBs[c.ENodeB].Carriers) - 1
	}
}
