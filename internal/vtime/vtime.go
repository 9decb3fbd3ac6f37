// Package vtime simulates the parallel recovery of a W-worker multicore in
// virtual time.
//
// Why simulation: the paper's recovery results are statements about
// parallel structure — WAL redo serializes onto one core, DL and LV are
// bounded by the inherent dependency graph, MorphStreamR's restructured
// chains run stall-free. Wall-clock measurement can only exhibit those
// effects on a machine with that many physical cores; on a small CI host,
// goroutines time-slice and every scheme degenerates to its total serial
// work. Following the reproduction ground rules (simulate hardware you do
// not have), recovery runs each replay *for real* first — a TPG on the
// engine's own executor, log records in log order — so recovered state is
// exact, and this package only prices it: a discrete-event list schedule
// of the executed graph, which fires nothing, computes from the actual
// dependency structure and a fixed cost model (FixedCosts) the per-worker
// busy/stall clocks and the makespan a W-worker machine would achieve.
// Device reads stay real measured wall time; replay and the bulk phases
// around it (decode, sort, graph rebuild, view indexing) are virtual.
//
// Pricing is opt-in: a recovery is priced only when its caller passes costs
// (engine.Config.RecoveryCosts). shard.GroupRecover prices with FixedCosts;
// a live heal passes none and runs only the replay.
//
// The simulation is deterministic: identical inputs produce identical
// clocks on any host, which also makes the scalability sweeps (Figure 13)
// reproducible everywhere.
package vtime

import (
	"time"

	"morphstreamr/internal/metrics"
	"morphstreamr/internal/types"
)

// ExecFactor models the ratio between the cost of performing one state
// access (big-table random access + user function + execution bookkeeping)
// and the cost of inserting one operation into the precedence graph.
const ExecFactor = 4

// Costs is the virtual cost model. Every recovery-side charge — execution,
// preprocessing, graph construction, log decoding, sorting — is expressed
// in these units so that the components of a recovery breakdown are
// mutually consistent; FixedCosts is the model, and the zero value prices
// nothing.
type Costs struct {
	// Op is the cost of one state access: apply the function, read/write
	// the record, update execution bookkeeping.
	Op time.Duration
	// PerDep is the additional cost per parametric dependency value.
	PerDep time.Duration
	// Preprocess is the cost of turning one event into a transaction.
	Preprocess time.Duration
	// Postprocess is the cost of producing one output.
	Postprocess time.Duration
	// Build is the per-operation cost of dependency identification and
	// graph insertion (TPG construction).
	Build time.Duration
	// Explore is the scheduling overhead per executed unit (dequeue,
	// dependency bookkeeping, chain switching).
	Explore time.Duration
	// Record is the per-record cost of decoding and indexing log records,
	// view entries, and auxiliary structures during reload/construct.
	Record time.Duration
	// Edge is the per-dependency-edge cost of rebuilding graphs or
	// partitioning chains during construct.
	Edge time.Duration
	// Compare is the per-comparison cost of sorting log records into
	// global order (WAL reload).
	Compare time.Duration
	// Sync is the per-edge cost of resolving a dependency across workers
	// during parallel execution: the cache-line transfer plus notification
	// that cross-thread dependency resolution costs on a real multicore.
	// MorphStreamR's restructuring exists precisely to avoid paying it.
	Sync time.Duration
	// Lookup is the cost of probing an already-built hash index (the
	// AbortView / ParametricView reads that replace dependency
	// resolution during MorphStreamR recovery).
	Lookup time.Duration
	// Pipeline is the per-event cost of the full stream-processing
	// dataflow (operator queues, windowing bookkeeping, output emission)
	// that full reprocessing replays but log-based redo bypasses.
	Pipeline time.Duration
}

// FixedCosts is the cost model: the paper's machine at fixed component
// ratios (op = ExecFactor × build, sync = op, and the documented divisors)
// on a clean power-of-two base, so derived quantities divide without
// remainder and every virtual duration is the same on every host.
func FixedCosts() Costs {
	const base = 32 * time.Nanosecond // graph insertion of one operation
	const pre = 64 * time.Nanosecond  // turning one event into a transaction
	return Costs{
		Op:          ExecFactor * base,
		PerDep:      ExecFactor * base / 8,
		Preprocess:  pre,
		Postprocess: pre / 2,
		Build:       base,
		Explore:     base / 2,
		Record:      base,
		Edge:        base / 3,
		Compare:     base / 8,
		Sync:        ExecFactor * base,
		Lookup:      base / 4,
		Pipeline:    6 * pre,
	}
}

// IsZero reports whether c is the zero model: a recovery given it is
// unpriced — it replays everything and charges only measured device reads.
func (c Costs) IsZero() bool { return c == Costs{} }

// SetCalibration accepts only FixedCosts, the one model, and panics on any
// other value.
//
// Deprecated: there is no process-wide model to set; recovery is priced
// with the costs its caller passes. Kept only for benchmark/main.go,
// which ROADMAP item 2 rewrites together with this shim.
func SetCalibration(c Costs) {
	if c != FixedCosts() {
		panic("vtime: SetCalibration: FixedCosts is the only cost model")
	}
}

// SortCost returns the virtual cost of sorting n log records into global
// order: n·log2(n) comparisons.
func (c Costs) SortCost(n int) time.Duration {
	if n <= 1 {
		return 0
	}
	log2 := 0
	for v := n; v > 1; v >>= 1 {
		log2++
	}
	return time.Duration(n) * time.Duration(log2) * c.Compare
}

// GraphCost returns the virtual cost of preprocessing events and building
// a task precedence graph over ops operations: the construct charge of
// replay paths that rebuild the epoch pipeline.
func (c Costs) GraphCost(events, ops int) time.Duration {
	return time.Duration(events)*c.Preprocess + time.Duration(ops)*c.Build
}

// TxnCost returns the virtual cost of executing one transaction's state
// accesses (excluding preprocessing).
func (c Costs) TxnCost(txn *types.Txn) time.Duration {
	d := time.Duration(0)
	for i := range txn.Ops {
		d += c.Op + time.Duration(len(txn.Ops[i].Deps))*c.PerDep
	}
	return d
}

// Clock tracks one virtual worker.
type Clock struct {
	// Now is the worker's current virtual time.
	Now time.Duration
	// Busy splits into execution vs scheduling overhead; Stall is idle
	// time waiting for dependencies or work.
	Execute time.Duration
	Explore time.Duration
	Abort   time.Duration
	Stall   time.Duration
}

// Advance moves the worker to start (accumulating stall), then charges
// explore overhead and the busy cost, returning the finish time.
func (c *Clock) Advance(start, explore, busy time.Duration, abort bool) time.Duration {
	if start > c.Now {
		c.Stall += start - c.Now
		c.Now = start
	}
	c.Explore += explore
	if abort {
		c.Abort += busy
	} else {
		c.Execute += busy
	}
	c.Now += explore + busy
	return c.Now
}

// Result summarises one simulated parallel phase.
type Result struct {
	Clocks []Clock
	// Makespan is the virtual wall-clock length of the phase: the maximum
	// worker finish time. Workers finishing early are padded with stall
	// time so that the total thread-time is exactly Workers * Makespan.
	Makespan time.Duration
}

// Charge folds the simulated clocks into a recovery breakdown under the
// aggregate-thread-time convention (total contribution = W * makespan).
// Dependency stalls charge to wait time, except for mechanisms that stall
// by actively probing shared state (LV's recovered-LSN vector polling),
// whose stalls the paper books as explore time — set stallToExplore.
func (r Result) Charge(bd *metrics.RecoveryBreakdown, stallToExplore bool) {
	for i := range r.Clocks {
		c := &r.Clocks[i]
		bd.Execute += c.Execute
		bd.Abort += c.Abort
		bd.Explore += c.Explore
		if stallToExplore {
			bd.Explore += c.Stall
		} else {
			bd.Wait += c.Stall
		}
	}
}

// Finish pads all clocks to the makespan and wraps them in a Result.
func Finish(clocks []Clock) Result {
	var mk time.Duration
	for i := range clocks {
		if clocks[i].Now > mk {
			mk = clocks[i].Now
		}
	}
	for i := range clocks {
		if clocks[i].Now < mk {
			clocks[i].Stall += mk - clocks[i].Now
			clocks[i].Now = mk
		}
	}
	return Result{Clocks: clocks, Makespan: mk}
}
