package core

import (
	"fmt"

	"auric/internal/geo"
	"auric/internal/lte"
)

// Observer receives model-quality events from a ShardedEngine: full
// generation installs (Load), applied ingest deltas (Apply), and served
// recommendations — the feed internal/health scores shard models from.
//
// Callbacks run synchronously on the engine's own goroutines. ObserveLoad
// and ObserveApply run under the engine's load mutex, after the new
// generation is installed and the old one drained, so an observer must
// never call back into Load or Apply; the serving accessors (Recommend,
// MarketEngine, Inventory, ...) are safe. ObserveServed runs on the
// serving path — one call per successfully recommended carrier, possibly
// from many goroutines at once — so implementations must be cheap and
// internally synchronized. All arguments are immutable serving state and
// may be retained.
type Observer interface {
	// ObserveLoad reports a full retrain: generation gen now serves the
	// given snapshot inventory, with no live-ingest history.
	ObserveLoad(gen int64, net *lte.Network, x2 *geo.Graph, cfg *lte.Config)
	// ObserveApply reports an installed ingest delta: generation gen now
	// serves net, with the listed carriers upserted (ids parallel the
	// delta's upserts) and tombstoned.
	ObserveApply(gen int64, net *lte.Network, upserts, tombstones []lte.CarrierID)
	// ObserveServed reports one carrier's served recommendations on the
	// market shard that produced them.
	ObserveServed(market int, c *lte.Carrier, recs []Recommendation)
}

// observerBox wraps the Observer interface so it can live in an
// atomic.Pointer (interfaces are not directly atomically swappable).
type observerBox struct{ o Observer }

// SetObserver installs (or, with nil, removes) the engine's model-quality
// observer. Attach it before Load so the observer sees the baseline
// generation; swapping mid-traffic is safe — in-flight requests finish
// against whichever observer they loaded.
func (se *ShardedEngine) SetObserver(o Observer) {
	if o == nil {
		se.watcher.Store(nil)
		return
	}
	se.watcher.Store(&observerBox{o: o})
}

// observer returns the installed observer, or nil.
func (se *ShardedEngine) observer() Observer {
	if b := se.watcher.Load(); b != nil {
		return b.o
	}
	return nil
}

// MarketEngine returns the serving generation's engine for one market,
// with the network it serves and the generation number. The engine is
// immutable serving state: it stays valid (and answers consistently)
// after a reload swaps in a successor. Health checks use it to query a
// shard directly — bypassing the sharded routing layer and its observer,
// so probe traffic never pollutes the serving-quality windows.
func (se *ShardedEngine) MarketEngine(m int) (*Engine, *lte.Network, int64, error) {
	st, err := se.acquire()
	if err != nil {
		return nil, nil, 0, err
	}
	defer st.release()
	if m < 0 || m >= len(st.shards) || st.shards[m] == nil {
		return nil, nil, 0, fmt.Errorf("core: market %d has no trained shard", m)
	}
	return st.shards[m], st.net, st.gen, nil
}
