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
// dependency structure and a host-calibrated cost model the per-worker
// busy/stall clocks and the makespan a W-worker machine would achieve.
// Device reads stay real measured wall time; replay and the bulk phases
// around it (decode, sort, graph rebuild, view indexing) are virtual.
//
// The simulation is deterministic: identical inputs produce identical
// clocks on any host, which also makes the scalability sweeps (Figure 13)
// reproducible everywhere.
package vtime

import (
	"sync"
	"time"

	"morphstreamr/internal/metrics"
	"morphstreamr/internal/store"
	"morphstreamr/internal/tpg"
	"morphstreamr/internal/types"
)

// ExecFactor models the ratio between the cost of performing one state
// access (big-table random access + user function + execution bookkeeping)
// and the cost of inserting one operation into the precedence graph. See
// Calibrate.
const ExecFactor = 4

// Costs is the virtual cost model. Every recovery-side charge — execution,
// preprocessing, graph construction, log decoding, sorting — is expressed
// in these units so that the components of a recovery breakdown are
// mutually consistent and host-independent in *ratio*; the absolute scale
// is calibrated once per process from the host's real per-operation
// pipeline cost, so virtual durations sit on the same axis as the real
// measured device I/O they are reported next to.
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

var (
	calMu   sync.Mutex
	calDone bool
	calCost Costs
)

// SetCalibration overrides the process-wide cost model, bypassing the
// micro-benchmark. It exists as a determinism seam: profiler and
// critical-path tests pin FixedCosts so their expected virtual durations
// are exact integers on every host. Subsequent Calibrate calls return c
// verbatim.
func SetCalibration(c Costs) {
	calMu.Lock()
	defer calMu.Unlock()
	calCost = c
	calDone = true
}

// FixedCosts is a host-independent cost model with the same component
// ratios as a calibrated one (op = ExecFactor × build, sync = op, and the
// documented divisors), on a clean power-of-two base so derived quantities
// divide without remainder.
func FixedCosts() Costs {
	const base = 32 * time.Nanosecond // stands in for the measured tBuild
	const pre = 64 * time.Nanosecond  // stands in for the measured tPre
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

// Calibrate measures the host's real pipeline costs once — transaction
// construction, graph building, and operation execution over a synthetic
// epoch — and derives the cost model. The component ratios are documented
// assumptions (DESIGN.md §1); the measured base adapts the scale to the
// host. SetCalibration pre-empts the measurement entirely.
func Calibrate() Costs {
	calMu.Lock()
	defer calMu.Unlock()
	if !calDone {
		const (
			nTxns  = 4000
			rounds = 5
		)
		// Per-event preprocessing cost: allocating a two-op transaction.
		mkTxn := func(i uint64) *types.Txn {
			src := types.Key{Table: 0, Row: uint32(i % 1024)}
			dst := types.Key{Table: 0, Row: uint32((i + 7) % 1024)}
			return &types.Txn{ID: i, TS: i, Ops: []types.Operation{
				{TxnID: i, TS: i, Idx: 0, Key: src, Fn: types.FnGuardedSubSelf, Const: 1},
				{TxnID: i, TS: i, Idx: 1, Key: dst, Fn: types.FnGuardedAdd, Const: 1,
					Deps: []types.Key{src}},
			}}
		}
		// Take the best of several rounds: the minimum is the standard
		// micro-benchmark estimator, immune to GC pauses and scheduler
		// preemption that would otherwise scale every virtual duration of
		// this process by a noise factor.
		tPre, tBuild, tFire := time.Hour, time.Hour, time.Hour
		for r := 0; r < rounds; r++ {
			st := store.New([]types.TableSpec{{ID: 0, Rows: 1024, Init: 100}})
			t0 := time.Now()
			txns := make([]*types.Txn, nTxns)
			for i := range txns {
				txns[i] = mkTxn(uint64(i))
			}
			if d := time.Since(t0) / nTxns; d < tPre {
				tPre = d
			}
			t0 = time.Now()
			g := tpg.Build(txns, st.Get)
			if d := time.Since(t0) / time.Duration(g.NumOps); d < tBuild {
				tBuild = d
			}
			t0 = time.Now()
			for _, tn := range g.Txns {
				for _, n := range tn.Ops {
					tpg.Fire(n, st)
				}
			}
			if d := time.Since(t0) / time.Duration(g.NumOps); d < tFire {
				tFire = d
			}
		}

		clamp := func(d, min time.Duration) time.Duration {
			if d < min {
				return min
			}
			return d
		}
		tPre = clamp(tPre, 20*time.Nanosecond)
		tBuild = clamp(tBuild, 20*time.Nanosecond)
		tFire = clamp(tFire, 10*time.Nanosecond)

		// Execution cost model: one state access in the reproduced system
		// is dominated by a DRAM-miss-prone table access, model
		// maintenance, and the user function — in MorphStream's reported
		// profiles several times the cost of inserting the operation into
		// the precedence graph. We model it as ExecFactor times the
		// measured graph-insert cost (the raw in-cache types.Apply cost,
		// tFire, is far below either and serves only as a floor).
		op := ExecFactor * tBuild
		if op < tFire {
			op = tFire
		}
		calCost = Costs{
			Op:          op,
			PerDep:      op / 8,
			Preprocess:  tPre,
			Postprocess: tPre / 2,
			Build:       tBuild,
			Explore:     tBuild / 2,
			Record:      tBuild,
			Edge:        tBuild / 3,
			Compare:     tBuild / 8,
			Sync:        ExecFactor * tBuild,
			Lookup:      tBuild / 4,
			Pipeline:    6 * tPre,
		}
		calDone = true
	}
	return calCost
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
