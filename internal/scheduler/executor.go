package scheduler

import (
	"time"

	"morphstreamr/internal/adaptive"
	"morphstreamr/internal/obs"
	"morphstreamr/internal/store"
	"morphstreamr/internal/tpg"
)

// Executor runs one graph per epoch the way the adaptive controller
// decides: the graph's structure picks the strategy, the sequential
// executor or the persistent pool runs it, and the measured wall time trains
// the controller for later epochs. It is the single place a Strategy is
// turned into a run. Like the controller it is not goroutine-safe; Close
// releases the pool's workers.
type Executor struct {
	// Ctrl decides every epoch's strategy; its MaxWorkers is the pool's
	// worker-count ceiling. Required.
	Ctrl *adaptive.Controller
	// AssignFor returns the chain-to-worker assignment for a live worker
	// count; nil uses HashAssign.
	AssignFor func(workers int) func(*tpg.Chain) int
	// FireHook and Stats are passed to every pool run (see Options). The
	// sequential executor runs no hooks, so a hooked Executor runs every
	// epoch on the pool whatever the controller decided: chaos injection and
	// supervisor cancellation must not silently lapse.
	FireHook func(*tpg.OpNode)
	Stats    *obs.SchedStats

	pool *Pool // created by the first parallel epoch
}

// Execute runs epoch's graph to completion against st.
func (x *Executor) Execute(epoch uint64, g *tpg.Graph, st *store.Store) error {
	maxChain := 0
	for _, ch := range g.ChainList {
		maxChain = max(maxChain, len(ch.Ops))
	}
	strat := x.Ctrl.Decide(adaptive.Signals{Epoch: epoch, Ops: g.NumOps, MaxChain: maxChain})
	if x.FireHook != nil {
		strat.Impl = adaptive.ImplSteal
	}

	t0 := time.Now()
	var err error
	if strat.Impl == adaptive.ImplSeq {
		_, err = RunSequential(g, st, false)
	} else {
		if x.pool == nil {
			x.pool = NewPool(x.Ctrl.MaxWorkers(), x.Stats)
		}
		opt := Options{Workers: strat.Workers, FireHook: x.FireHook, Stats: x.Stats}
		if x.AssignFor != nil {
			opt.Assign = x.AssignFor(strat.Workers)
		}
		_, err = x.pool.Run(g, st, opt)
	}
	if err != nil {
		return err
	}
	// strat carries the impl that actually ran: a hook-forced pool run must
	// not be credited to the sequential side's grain EWMA.
	x.Ctrl.Feedback(adaptive.Feedback{Epoch: epoch, Strategy: strat, Wall: time.Since(t0), Ops: g.NumOps})
	return nil
}

// Close terminates the pool's workers, if any were ever started. Idempotent.
// It waits for an in-flight Execute, so it must not be called synchronously
// on an Executor whose run is wedged.
func (x *Executor) Close() {
	if x.pool != nil {
		x.pool.Close()
	}
}
