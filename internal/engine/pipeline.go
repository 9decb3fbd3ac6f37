package engine

import (
	"time"

	"morphstreamr/internal/tpg"
	"morphstreamr/internal/types"
)

// builtEpoch is one epoch's stream-processing result handed from the
// builder goroutine to the barrier goroutine: the batch index plus the
// structural task precedence graph (bases not yet captured).
type builtEpoch struct {
	idx int
	g   *tpg.Graph
}

// ProcessEpochs ingests a run of punctuation intervals, one batch per
// epoch, in order. Semantically it is exactly a loop of ProcessEpoch calls
// — same outputs, same durable write sequence, same error behaviour (the
// first failing epoch surfaces its error and the engine marks itself
// crashed; earlier epochs' effects stand).
//
// With Config.Pipeline set, it additionally overlaps stream processing
// with transaction processing across adjacent epochs: a builder goroutine
// preprocesses events and constructs the structural TPG for epoch N+1
// while the caller's goroutine executes epoch N. The overlap is safe
// because structural construction reads nothing but the batch itself —
// epoch-start dependency values are captured from the store at the
// barrier, after epoch N has fully executed — and every effectful step
// (input persistence, execution, sealing, markers, output release) stays
// on the caller's goroutine in epoch order. A crash at any point therefore
// leaves the device in a state reachable by the sequential schedule, which
// is what the recovery invariants (and the crash-point sweep) assume.
func (e *Engine) ProcessEpochs(batches [][]types.Event) error {
	if !e.cfg.Pipeline || len(batches) < 2 {
		for _, b := range batches {
			if err := e.ProcessEpoch(b); err != nil {
				return err
			}
		}
		return nil
	}
	if e.crashed {
		return ErrCrashed
	}

	// The unbuffered channel gives one epoch of lookahead: the builder
	// blocks handing over epoch N+1 until the barrier goroutine is done
	// with epoch N, so at most two graphs are live at once.
	built := make(chan builtEpoch)
	stop := make(chan struct{})
	// The builder emits its spans on lane 1 — the caller's goroutine owns
	// lane 0 — so a trace shows the compute/construct overlap directly.
	base := e.epoch
	go func() {
		defer close(built)
		for i := range batches {
			ep := base + uint64(i) + 1
			g := e.construct(1, ep, batches[i])
			select {
			case built <- builtEpoch{idx: i, g: g}:
			case <-stop:
				// The barrier goroutine hit an error and will not drain
				// us; drop the graph back into the recycler and quit.
				e.builder.Release(g)
				return
			}
		}
	}()

	for range batches {
		start := time.Now() // include any stall waiting on the builder
		b := <-built
		e.epoch++
		err := e.processEpoch(e.epoch, batches[b.idx], b.g)
		if err != nil {
			e.markCrashed()
			close(stop)
			for range built { // unblock and join the builder
			}
			return err
		}
		e.totalWall += time.Since(start)
		e.observeEpoch(start, len(batches[b.idx]))
	}
	return nil
}
