package scheduler

import (
	"fmt"
	"runtime/debug"
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
	// Stats is passed to every pool run (see Options).
	Stats *obs.SchedStats

	pool *Pool // created by the first parallel epoch
}

// Execute runs epoch's graph to completion against st. Whichever executor
// runs it, an operation panic fails the epoch with ErrOpPanic instead of
// the process, and a failed epoch trains nothing.
func (x *Executor) Execute(epoch uint64, g *tpg.Graph, st *store.Store) error {
	maxChain := 0
	for _, ch := range g.ChainList {
		maxChain = max(maxChain, len(ch.Ops))
	}
	strat := x.Ctrl.Decide(adaptive.Signals{Epoch: epoch, Ops: g.NumOps, MaxChain: maxChain})

	t0 := time.Now()
	var err error
	if strat.Impl == adaptive.ImplSeq {
		err = x.runSequential(g, st)
	} else {
		if x.pool == nil {
			x.pool = NewPool(x.Ctrl.MaxWorkers(), x.Stats)
		}
		opt := Options{Workers: strat.Workers, Stats: x.Stats}
		if x.AssignFor != nil {
			opt.Assign = x.AssignFor(strat.Workers)
		}
		_, err = x.pool.Run(g, st, opt)
	}
	if err != nil {
		return err
	}
	x.Ctrl.Feedback(adaptive.Feedback{Epoch: epoch, Strategy: strat, Wall: time.Since(t0), Ops: g.NumOps})
	return nil
}

// runSequential is RunSequential under the pool's panic contract: one
// deferred recover per epoch turns an operation panic into ErrOpPanic.
func (x *Executor) runSequential(g *tpg.Graph, st *store.Store) (err error) {
	defer func() {
		if pv := recover(); pv != nil {
			if x.Stats != nil {
				x.Stats.Panics.Add(1)
			}
			err = fmt.Errorf("%w: %v\n%s", ErrOpPanic, pv, debug.Stack())
		}
	}()
	_, err = RunSequential(g, st, false)
	return err
}

// Close terminates the pool's workers, if any were ever started. Idempotent.
// It waits for an in-flight Execute, so it must not be called synchronously
// on an Executor whose run is wedged.
func (x *Executor) Close() {
	if x.pool != nil {
		x.pool.Close()
	}
}
