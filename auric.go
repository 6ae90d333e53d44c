// Package auric is a reproduction of "Auric: Using Data-driven
// Recommendation to Automatically Generate Cellular Configuration"
// (Mahimkar et al., SIGCOMM 2021): a recommendation engine that learns,
// per configuration parameter, which carrier attributes the parameter
// depends on (chi-square tests of independence), finds existing carriers
// that match a new carrier on those attributes, and votes among them —
// optionally restricted to the new carrier's X2 geographic neighborhood.
//
// The package is the public facade over the implementation packages:
//
//	Engine        — train on a network snapshot, recommend for new carriers
//	World         — deterministic synthetic LTE network with ground truth
//	                (the stand-in for the paper's proprietary dataset)
//	EMS/controller/launch — the production-side pipeline of Sec 5
//
// A minimal session:
//
//	w := auric.SimulateNetwork(auric.NetworkOptions{Seed: 1, Markets: 4, ENodeBsPerMarket: 30})
//	eng := auric.NewEngine(w.Schema, auric.EngineOptions{Local: true})
//	if err := eng.Train(w.Net, w.X2, w.Current); err != nil { ... }
//	recs, err := eng.Recommend(&w.Net.Carriers[0], nil)
//
// See the examples directory for complete programs and DESIGN.md for the
// system inventory.
package auric

import (
	"auric/internal/core"
	"auric/internal/geo"
	"auric/internal/learn"
	"auric/internal/learn/cf"
	"auric/internal/learn/forest"
	"auric/internal/learn/knn"
	"auric/internal/learn/lasso"
	"auric/internal/learn/mlp"
	"auric/internal/learn/tree"
	"auric/internal/lte"
	"auric/internal/netsim"
	"auric/internal/paramspec"
)

// Domain model (see internal/lte).
type (
	// Network is a RAN snapshot: markets, eNodeBs and carriers.
	Network = lte.Network
	// Carrier is a radio channel with the attribute set of Table 1.
	Carrier = lte.Carrier
	// ENodeB is a base station.
	ENodeB = lte.ENodeB
	// Market is a group of carriers managed by one engineering team.
	Market = lte.Market
	// CarrierID indexes Network.Carriers.
	CarrierID = lte.CarrierID
	// ENodeBID indexes Network.ENodeBs.
	ENodeBID = lte.ENodeBID
	// Config is a configuration snapshot (singular and pair-wise values).
	Config = lte.Config
	// Schema describes the configuration parameters under management.
	Schema = paramspec.Schema
	// Param is one configuration parameter definition.
	Param = paramspec.Param
	// X2Graph is the X2 neighbor-relation graph used for geographic
	// proximity.
	X2Graph = geo.Graph
)

// Recommendation machinery (see internal/core).
type (
	// Engine learns dependency models and recommends configurations.
	Engine = core.Engine
	// EngineOptions configure an Engine: Local scoping, MaxSamples,
	// Workers and CacheEntries. The scoping radius is the paper's one X2
	// hop, and every shard of a ShardedEngine trains on its market's live
	// carriers; neither is an option.
	EngineOptions = core.Options
	// Recommendation is one recommended parameter value with confidence
	// and a human-readable explanation.
	Recommendation = core.Recommendation
	// BatchItem is one carrier's request within an Engine.RecommendBatch
	// call.
	BatchItem = core.BatchItem
	// BatchResult is the per-item outcome of Engine.RecommendBatch.
	BatchResult = core.BatchResult
	// ShardedEngine serves one engine per market with atomic zero-downtime
	// snapshot reload — the multi-market deployment shape of auricd.
	ShardedEngine = core.ShardedEngine
	// CacheStats is a point-in-time reading of a ShardedEngine's
	// generation-keyed recommendation cache (EngineOptions.CacheEntries).
	CacheStats = core.CacheStats
	// Learner is the dependency-model learner interface that the learner
	// comparisons cross-validate. Engines always fit collaborative
	// filtering.
	Learner = learn.Learner
)

// Live-ingest machinery (see internal/core): ShardedEngine.Apply takes a
// Delta — carrier upserts and tombstones — and patches the affected models
// in place instead of retraining, which is how auricd tracks a live
// network between snapshots.
type (
	// Delta is an atomic batch of carrier mutations.
	Delta = core.Delta
	// Upsert adds a carrier (ID -1) or replaces an existing one.
	Upsert = core.Upsert
	// PairValues carries the pair-wise parameter values an upsert sets
	// toward one other carrier.
	PairValues = core.PairValues
	// ApplyResult reports what a Delta did: the new generation, the IDs
	// assigned to created carriers, and how many models were patched
	// incrementally versus refit.
	ApplyResult = core.ApplyResult
)

// Synthetic-network generation (see internal/netsim and DESIGN.md for how
// the generator substitutes the paper's proprietary dataset).
type (
	// World is a generated network with its configuration state and the
	// ground-truth oracle.
	World = netsim.World
	// NetworkOptions configure generation.
	NetworkOptions = netsim.Options
	// TruthOptions are the ground-truth process knobs.
	TruthOptions = netsim.TruthOptions
)

// DefaultSchema returns the 65-parameter schema of the paper's evaluation:
// 39 singular and 26 pair-wise range parameters.
func DefaultSchema() *Schema { return paramspec.Default() }

// SimulateNetwork generates a deterministic synthetic LTE network with a
// known ground-truth configuration process. Equal options yield identical
// worlds.
func SimulateNetwork(opts NetworkOptions) *World { return netsim.Generate(opts) }

// DefaultNetworkOptions returns the calibrated medium-scale generation
// defaults (28 markets).
func DefaultNetworkOptions() NetworkOptions { return netsim.DefaultOptions() }

// NewEngine creates a recommendation engine. Every engine fits the paper's
// shipping learner: collaborative filtering with chi-square dependency
// selection and 75% voting support. Set Local to scope voting to the 1-hop
// X2 neighborhood (the configuration that achieves the paper's headline
// accuracy).
func NewEngine(schema *Schema, opts EngineOptions) *Engine { return core.New(schema, opts) }

// NewShardedEngine creates a sharded multi-market engine: one per-market
// engine trained on that market's carriers, requests routed by carrier
// market, snapshots swapped atomically by Load with zero downtime. opts
// apply to every shard.
func NewShardedEngine(schema *Schema, opts EngineOptions) *ShardedEngine {
	return core.NewSharded(schema, opts)
}

// BuildX2 derives the X2 neighbor-relation graph of a network from eNodeB
// positions, with a fixed relation radius of 0.06 degrees and caps of 8
// X2 relations per eNodeB and 10 neighbor carriers per carrier.
func BuildX2(n *Network) *X2Graph { return geo.BuildX2(n) }

// NewLearner builds a learner by name: "collaborative-filtering",
// "decision-tree", "random-forest", "k-nearest-neighbors",
// "deep-neural-network" (the five of Table 4) or "lasso-regression"
// (the Sec 3.2 linear option).
func NewLearner(name string) (Learner, error) { return learn.New(name) }

// Learners lists the available learner names.
func Learners() []string { return learn.Names() }

// Default learner constructors with the paper's hyperparameters.
var (
	// NewCollaborativeFiltering: chi-square p=0.01, 75% voting support.
	NewCollaborativeFiltering = func() Learner { return cf.New() }
	// NewDecisionTree: Gini splits, grown to pure leaves.
	NewDecisionTree = func() Learner { return tree.New() }
	// NewRandomForest: 100 trees, Gini, bootstrap + feature subsampling.
	NewRandomForest = func() Learner { return forest.New() }
	// NewKNearestNeighbors: k=5, Euclidean distance, equal weights.
	NewKNearestNeighbors = func() Learner { return knn.New() }
	// NewDeepNeuralNetwork: 7 hidden layers (100/100/100/50/50/50/10),
	// ReLU, Adam, L2=1e-5.
	NewDeepNeuralNetwork = func() Learner { return mlp.New() }
	// NewLassoRegression: Eq. (1) of the paper, coordinate descent with
	// L1 sparsity over one-hot features.
	NewLassoRegression = func() Learner { return lasso.New() }
)
