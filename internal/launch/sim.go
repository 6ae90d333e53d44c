package launch

import (
	"fmt"
	"sync"
	"time"

	"auric/internal/controller"
	"auric/internal/core"
	"auric/internal/ems"
	"auric/internal/lte"
	"auric/internal/netsim"
	"auric/internal/rng"
)

// Vendor behaviour of the Table 5 simulation.
const (
	// vendorErrorRate is the share of launches whose vendor-generated
	// initial configuration comes from a stale, region-unaware rulebook
	// template instead of the up-to-date regional one (Sec 5: "mistakes
	// by vendors, out-of-date rulebooks, or pending tuning").
	vendorErrorRate = 0.125
	// prematureUnlockRate is the probability that an engineer unlocks a
	// vendor-error carrier through an off-band interface before the
	// controller pushes its changes.
	prematureUnlockRate = 0.13
)

// SimOptions configure the Table 5 production simulation.
type SimOptions struct {
	// Seed drives carrier placement and vendor behaviour.
	Seed uint64
	// Launches is the number of new carriers to launch (the paper reports
	// a two-month window of 1251).
	Launches int
	// Workers is the number of concurrent launch workers; concurrency is
	// what exposes the EMS execution-queue restriction. Zero means 8.
	Workers int
	// EMS tunes the element-management simulator. The zero value uses a
	// deliberately tight execution queue so that a small share of pushes
	// times out, as in production.
	EMS ems.Config
	// TrainMaxSamples caps engine training per parameter (0 = all).
	TrainMaxSamples int
	// Bulk enables the enhanced controller: all singular changes of a
	// carrier push as one atomic EMS execution, eliminating the
	// execution-queue timeout fall-outs (the paper's planned fix, Sec 5).
	Bulk bool
}

func (o SimOptions) withDefaults() SimOptions {
	if o.Launches <= 0 {
		o.Launches = 1251
	}
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.EMS == (ems.Config{}) {
		o.EMS = ems.Config{
			MaxConcurrentSets: 2,
			SetLatency:        2 * time.Millisecond,
			QueueTimeout:      12 * time.Millisecond,
		}
	}
	return o
}

// SimResult aggregates a simulation run into the Table 5 shape.
type SimResult struct {
	// Launched is the number of new carriers launched.
	Launched int
	// WithChanges counts carriers for which Auric recommended at least
	// one configuration change over the vendor configuration.
	WithChanges int
	// Implemented counts carriers whose changes were all pushed
	// successfully.
	Implemented int
	// Fallouts counts carriers with recommended changes that were not
	// (fully) implemented; the two classes below break them down.
	Fallouts       int
	FalloutUnlock  int // premature off-band unlocks
	FalloutTimeout int // EMS execution-queue timeouts
	// ParamsChanged is the total number of parameter values pushed.
	ParamsChanged int
}

// ChangeRate is the share of launches with recommended changes.
func (r SimResult) ChangeRate() float64 {
	if r.Launched == 0 {
		return 0
	}
	return float64(r.WithChanges) / float64(r.Launched)
}

// Simulate reproduces the paper's two-month production window: it trains
// Auric's local learner on the world, then launches opts.Launches new
// carriers through the full SmartLaunch pipeline against a live EMS
// simulator, and tallies Table 5.
func Simulate(w *netsim.World, opts SimOptions) (SimResult, []Record, error) {
	opts = opts.withDefaults()
	r := rng.New(opts.Seed ^ 0x5eed)

	engine := core.New(w.Schema, core.Options{Local: true, MaxSamples: opts.TrainMaxSamples})
	if err := engine.Train(w.Net, w.X2, w.Current); err != nil {
		return SimResult{}, nil, fmt.Errorf("launch: training engine: %w", err)
	}

	// The EMS fronts a copy of the live configuration, grown to hold the
	// new carriers.
	store := w.Current.Clone()
	store.Grow(opts.Launches)
	srv := ems.NewServer(w.Schema, store, opts.EMS)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return SimResult{}, nil, err
	}
	defer srv.Close()

	// Integrate the new carriers: vendor loads the initial configuration
	// and leaves the carrier locked, ready for launch.
	type job struct {
		carrier   *lte.Carrier
		premature bool
	}
	jobs := make([]job, 0, opts.Launches)
	// intended records the regional engineers' expected configuration per
	// new carrier; the validation gate below consults it, playing the
	// engineer who reviews every mismatch before it is pushed (Sec 5).
	intended := make(map[lte.CarrierID][]float64, opts.Launches)
	base := len(w.Net.Carriers)
	for k := 0; k < opts.Launches; k++ {
		id := lte.CarrierID(base + k)
		enb := lte.ENodeBID(r.Intn(len(w.Net.ENodeBs)))
		nc := w.NewCarrierAt(enb, id, r)

		intended[id] = w.IntendedSingularFor(nc)
		vendorCfg := intended[id]
		vendorErr := r.Bool(vendorErrorRate)
		if vendorErr {
			vendorCfg = w.RulebookSingularFor(nc)
		}
		for _, pi := range w.Schema.Singular() {
			store.Set(id, pi, vendorCfg[pi])
		}
		srv.ForceLock(id)
		jobs = append(jobs, job{
			carrier:   nc,
			premature: vendorErr && r.Bool(prematureUnlockRate),
		})
	}

	// The engineer validation gate: a recommended change is approved only
	// when it lands on the value the regional engineers intend for the
	// site. Recommendations that disagree with engineer intent are
	// rejected here exactly as the paper's engineers rejected them during
	// validation.
	validate := func(ch controller.Change) bool {
		cfg, ok := intended[ch.Carrier]
		if !ok || ch.Neighbor >= 0 {
			return false
		}
		return ch.To == cfg[ch.ParamIndex]
	}

	records := make([]Record, len(jobs))
	errs := make([]error, opts.Workers)
	var wg sync.WaitGroup
	next := make(chan int)
	for wi := 0; wi < opts.Workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			client, err := ems.Dial(addr)
			if err != nil {
				errs[wi] = err
				return
			}
			defer client.Close()
			ctrl := controller.New(w.Schema, client, controller.Options{
				RequireSupport: true,
				Validate:       validate,
				Bulk:           opts.Bulk,
			})
			wf := &Workflow{Engine: engine, Ctrl: ctrl, Client: client}
			for k := range next {
				j := jobs[k]
				if j.premature {
					// The engineer beat the controller to it.
					srv.ForceUnlock(j.carrier.ID)
				}
				rec, err := wf.Launch(j.carrier, nil)
				if err != nil {
					errs[wi] = err
					return
				}
				records[k] = rec
			}
		}(wi)
	}
	for k := range jobs {
		next <- k
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return SimResult{}, nil, err
		}
	}

	var res SimResult
	res.Launched = len(records)
	for _, rec := range records {
		res.ParamsChanged += rec.Pushed
		if rec.Planned == 0 {
			continue
		}
		res.WithChanges++
		if !rec.Fallout() {
			res.Implemented++
			continue
		}
		res.Fallouts++
		switch rec.Outcome {
		case controller.SkippedUnlocked:
			res.FalloutUnlock++
		case controller.TimedOut:
			res.FalloutTimeout++
		}
	}
	return res, records, nil
}
