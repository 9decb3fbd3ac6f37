// Package schedbench is the shared harness behind the scheduler
// microbenchmarks: the Go benchmarks in internal/scheduler and `cmd/bench
// sched` (which writes BENCH_scheduler.json) both drive it, so the
// committed numbers and `go test -bench` measure the same thing.
//
// A benchmark case executes one prepared epoch graph repeatedly: the graph
// is built once, and each run calls ResetExec to restore every dependency
// counter to its post-build state instead of rebuilding — so the
// measurement isolates scheduling cost (acquisition, stealing, resolution,
// termination) from graph construction. The store evolves across runs and
// captured dependency base values go stale; that is deliberate and fair,
// since execution cost per operation does not depend on the values.
package schedbench

import (
	"morphstreamr/internal/obs"
	"morphstreamr/internal/scheduler"
	"morphstreamr/internal/store"
	"morphstreamr/internal/tpg"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// EpochEvents is the batch size of every benchmark epoch.
const EpochEvents = 2048

// Workers are the parallelism levels the trajectory sweeps.
func Workers() []int { return []int{1, 2, 4, 8} }

// Workload is one named generator configuration.
type Workload struct {
	Name   string
	NewGen func() workload.Generator
}

// Workloads returns the benchmark grid's workload axis: Grep&Sum across
// key skews (uniform, moderate, heavy — the skew controls temporal-chain
// length and hence how contended the hot chains are) and the Streaming
// Ledger's transfer mix (multi-op transactions with condition guards).
func Workloads() []Workload {
	gs := func(theta float64) func() workload.Generator {
		return func() workload.Generator {
			p := workload.DefaultGSParams()
			p.Theta = theta
			return workload.NewGS(p)
		}
	}
	return []Workload{
		{Name: "GS-theta0.0", NewGen: gs(0)},
		{Name: "GS-theta0.6", NewGen: gs(0.6)},
		{Name: "GS-theta1.2", NewGen: gs(1.2)},
		{Name: "SL-default", NewGen: func() workload.Generator {
			return workload.NewSL(workload.DefaultSLParams())
		}},
	}
}

// Epoch is one prepared benchmark input: a built graph over the store
// holding its epoch-start state.
type Epoch struct {
	G  *tpg.Graph
	St *store.Store
}

// Prepare draws one epoch of events and builds its graph.
func Prepare(w Workload) *Epoch {
	gen := w.NewGen()
	st := store.New(gen.App().Tables())
	events := workload.Batch(gen, EpochEvents)
	txns := make([]*types.Txn, len(events))
	for i := range events {
		txn := gen.App().Preprocess(events[i])
		txns[i] = &txn
	}
	return &Epoch{G: tpg.Build(txns, st.Get), St: st}
}

// Run resets the epoch's execution state and runs it once on the
// work-stealing scheduler.
func Run(ep *Epoch, workers int) error {
	return RunObserved(ep, workers, nil, nil)
}

// RunObserved is Run with the observability layer wired in: scheduler
// steal/park/stall counters accumulate into stats and one execute span per
// run is emitted through o. Both are nil-safe — nil o and stats reproduce
// Run exactly, which is what the hot-path overhead budget is measured
// against.
func RunObserved(ep *Epoch, workers int, o *obs.Observer, stats *obs.SchedStats) error {
	ep.G.ResetExec()
	sp := o.Begin(0, obs.CatEpoch, "execute", 0)
	defer sp.End()
	_, err := scheduler.Run(ep.G, ep.St, scheduler.Options{Workers: workers, Stats: stats})
	return err
}
