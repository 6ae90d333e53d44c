// Package kpi simulates the service-performance feedback loop the paper
// names as its main future-work direction (Sec 6, "Performance feedback
// for recommended configuration"): once a carrier is unlocked and carrying
// traffic, key performance indicators can be observed, and configuration
// changes can be scored by their measured impact.
//
// The simulator models each carrier's KPIs as a deterministic function of
// how far its current configuration sits from the engineer-intended
// optimum (plus seeded measurement noise): mis-set parameters degrade the
// KPIs of their functional category. That is the same causal structure the
// paper relies on when it says engineers "observe the performance impact
// of the parameter change to decide if they would like to keep the change
// or roll it back" (Sec 2.4).
package kpi

import (
	"fmt"
	"math"

	"auric/internal/lte"
	"auric/internal/netsim"
	"auric/internal/paramspec"
	"auric/internal/rng"
)

// Metric identifies one key performance indicator.
type Metric int

const (
	// DownlinkThroughput in Mbps (higher is better).
	DownlinkThroughput Metric = iota
	// CallDropRate in percent (lower is better).
	CallDropRate
	// HandoverFailureRate in percent (lower is better).
	HandoverFailureRate
	// AccessibilityRate in percent of successful connection attempts
	// (higher is better).
	AccessibilityRate
	numMetrics
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case DownlinkThroughput:
		return "downlink-throughput-mbps"
	case CallDropRate:
		return "call-drop-rate-pct"
	case HandoverFailureRate:
		return "handover-failure-rate-pct"
	case AccessibilityRate:
		return "accessibility-pct"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// NumMetrics reports the KPI count.
func NumMetrics() int { return int(numMetrics) }

// Report is one carrier's KPI snapshot.
type Report struct {
	Carrier lte.CarrierID
	Values  [numMetrics]float64
}

// Get returns one metric's value.
func (r *Report) Get(m Metric) float64 { return r.Values[m] }

// Simulator produces KPI reports for a world's carriers.
type Simulator struct {
	w *netsim.World
	// NoiseStd is the relative measurement noise (default 0.02).
	NoiseStd float64
	seed     uint64
	// extra holds the intended optima of carriers launched after world
	// generation (see RegisterCarrier).
	extra map[lte.CarrierID][]float64
}

// NewSimulator creates a KPI simulator over a generated world.
func NewSimulator(w *netsim.World, seed uint64) *Simulator {
	return &Simulator{w: w, NoiseStd: 0.02, seed: seed, extra: make(map[lte.CarrierID][]float64)}
}

// RegisterCarrier makes a newly launched carrier measurable: its
// engineer-intended optimum is derived from the world's ground-truth
// process for the carrier's site and attributes.
func (s *Simulator) RegisterCarrier(c *lte.Carrier) {
	s.extra[c.ID] = s.w.IntendedSingularFor(c)
}

// optimalFor returns the intended value of singular parameter pi for the
// carrier, covering both generated and registered carriers.
func (s *Simulator) optimalFor(id lte.CarrierID, pi int) float64 {
	if vals, ok := s.extra[id]; ok {
		return vals[pi]
	}
	return s.w.Optimal.Get(id, pi)
}

// categoryOfMetric maps each KPI to the parameter categories that drive
// it.
var categoryOfMetric = map[Metric][]paramspec.Category{
	DownlinkThroughput:  {paramspec.Scheduling, paramspec.LinkAdaptation, paramspec.PowerControl, paramspec.CapacityManagement},
	CallDropRate:        {paramspec.RadioConnection, paramspec.InterferenceManagement},
	HandoverFailureRate: {paramspec.Mobility, paramspec.LayerManagement},
	AccessibilityRate:   {paramspec.RadioConnection, paramspec.CongestionControl},
}

// baselines holds each metric's value when the configuration is exactly
// the engineer-intended optimum.
var baselines = [numMetrics]float64{
	DownlinkThroughput:  55, // Mbps
	CallDropRate:        0.4,
	HandoverFailureRate: 1.0,
	AccessibilityRate:   99.3,
}

// degradationWeight is the per-unit KPI penalty of one normalized step of
// configuration deviation.
var degradationWeight = [numMetrics]float64{
	DownlinkThroughput:  6.0,
	CallDropRate:        0.35,
	HandoverFailureRate: 0.8,
	AccessibilityRate:   0.5,
}

// Measure returns the KPI report of one carrier under the given current
// configuration. Deviation is measured against the world's intended
// optimum per parameter, normalized by each parameter's engineering step
// so that "one step off" means the same across parameters.
func (s *Simulator) Measure(id lte.CarrierID, cfg *lte.Config) Report {
	schema := s.w.Schema
	var devByCat [16]float64
	for _, pi := range schema.Singular() {
		p := schema.At(pi)
		cur := cfg.Get(id, pi)
		opt := s.optimalFor(id, pi)
		dev := math.Abs(cur-opt) / (p.Step * float64(stepUnitOf(p)))
		if dev > 3 {
			dev = 3 // degradation saturates
		}
		devByCat[p.Category] += dev
	}
	r := Report{Carrier: id}
	noise := rng.New(s.seed ^ uint64(id)*0x9e3779b97f4a7c15)
	for m := Metric(0); m < numMetrics; m++ {
		total := 0.0
		for _, cat := range categoryOfMetric[m] {
			total += devByCat[cat]
		}
		base := baselines[m]
		var v float64
		switch m {
		case DownlinkThroughput, AccessibilityRate:
			v = base - degradationWeight[m]*total
		default:
			v = base + degradationWeight[m]*total
		}
		v *= 1 + noise.NormFloat64()*s.NoiseStd
		if v < 0 {
			v = 0
		}
		if m == AccessibilityRate && v > 100 {
			v = 100
		}
		r.Values[m] = v
	}
	return r
}

func stepUnitOf(p paramspec.Param) int {
	u := p.Levels() / 50
	if u < 1 {
		u = 1
	}
	return u
}

// Score condenses a report into a single quality score in [0, 1], where 1
// is the optimal-configuration baseline. It is the signal the feedback
// loop optimizes.
func Score(r Report) float64 {
	tp := clamp01(r.Values[DownlinkThroughput] / baselines[DownlinkThroughput])
	drop := clamp01(1 - (r.Values[CallDropRate]-baselines[CallDropRate])/5)
	ho := clamp01(1 - (r.Values[HandoverFailureRate]-baselines[HandoverFailureRate])/8)
	acc := clamp01(r.Values[AccessibilityRate] / 100)
	return 0.4*tp + 0.2*drop + 0.2*ho + 0.2*acc
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
