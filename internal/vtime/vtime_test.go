package vtime

import (
	"reflect"
	"testing"
	"time"

	"morphstreamr/internal/metrics"
	"morphstreamr/internal/types"
)

func TestSortCost(t *testing.T) {
	c := Costs{Compare: 10}
	if got := c.SortCost(0); got != 0 {
		t.Errorf("SortCost(0) = %v", got)
	}
	if got := c.SortCost(1); got != 0 {
		t.Errorf("SortCost(1) = %v", got)
	}
	// 8 records, log2 = 3 -> 8*3*10 = 240ns.
	if got := c.SortCost(8); got != 240 {
		t.Errorf("SortCost(8) = %v, want 240ns", got)
	}
}

func TestTxnAndGraphCost(t *testing.T) {
	c := Costs{Op: 100, PerDep: 10, Preprocess: 7, Build: 3}
	txn := &types.Txn{ID: 1, TS: 1, Ops: []types.Operation{
		{TxnID: 1, TS: 1, Idx: 0, Key: types.Key{Row: 1}, Fn: types.FnAdd},
		{TxnID: 1, TS: 1, Idx: 1, Key: types.Key{Row: 2}, Fn: types.FnGuardedAdd,
			Deps: []types.Key{{Row: 1}}},
	}}
	if got := c.TxnCost(txn); got != 210 {
		t.Errorf("TxnCost = %v, want 210ns", got)
	}
	if got := c.GraphCost(10, 20); got != 7*10+3*20 {
		t.Errorf("GraphCost = %v", got)
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	fin := c.Advance(100, 5, 20, false)
	if fin != 125 || c.Stall != 100 || c.Explore != 5 || c.Execute != 20 || c.Abort != 0 {
		t.Errorf("clock after advance: %+v, fin=%v", c, fin)
	}
	fin = c.Advance(50, 0, 10, true) // start in the past: no stall
	if fin != 135 || c.Stall != 100 || c.Abort != 10 {
		t.Errorf("clock after second advance: %+v, fin=%v", c, fin)
	}
}

func TestFinishPadsToMakespan(t *testing.T) {
	clocks := []Clock{{Now: 100}, {Now: 40}}
	r := Finish(clocks)
	if r.Makespan != 100 {
		t.Errorf("makespan = %v", r.Makespan)
	}
	if r.Clocks[1].Stall != 60 || r.Clocks[1].Now != 100 {
		t.Errorf("padding wrong: %+v", r.Clocks[1])
	}
}

// TestSimulateGraphDeterministic: identical inputs must produce identical
// clocks — the property that makes figures reproducible across hosts.
func TestSimulateGraphDeterministic(t *testing.T) {
	costs := Costs{Op: 100, PerDep: 10, Explore: 5, Sync: 50}
	a := SimulateGraphProf(slGraph(t, 5, 800, 4, false), 4, costs, nil)
	if b := SimulateGraphProf(slGraph(t, 5, 800, 4, false), 4, costs, nil); !reflect.DeepEqual(a, b) {
		t.Fatalf("nondeterministic walk:\n %+v\n %+v", a, b)
	}
}

// TestSimulateGraphSyncCharged: cross-worker dependencies cost Sync;
// co-located ones do not.
func TestSimulateGraphSyncCharged(t *testing.T) {
	mk := func(workers uint32) time.Duration {
		txns := []*types.Txn{oneOp(0, 0), oneOp(1, 1, types.Key{Row: 0})}
		g := buildTiny(t, txns, 2, func(row uint32) int { return int(row % workers) })
		r := SimulateGraphProf(g, 2, Costs{Op: 100, Sync: 77}, nil)
		var explore time.Duration
		for _, c := range r.Clocks {
			explore += c.Explore
		}
		return explore
	}
	if got := mk(1); got != 0 {
		t.Errorf("co-located dependency charged %v explore, want 0", got)
	}
	if got := mk(2); got != 77 {
		t.Errorf("cross-worker dependency charged %v explore, want 77ns", got)
	}
}

// TestSimulateTxnGraph: graph-constrained transaction replay respects
// dependencies and bounds parallelism.
func TestSimulateTxnGraph(t *testing.T) {
	// Chain of 4 dependent transactions + 4 independent ones, 2 workers.
	g := &TxnGraph{
		Out:      [][]int32{{1}, {2}, {3}, nil, nil, nil, nil, nil},
		Indegree: []int32{0, 1, 1, 1, 0, 0, 0, 0},
		Cost:     []time.Duration{100, 100, 100, 100, 100, 100, 100, 100},
		Explore:  make([]time.Duration, 8),
		Aborted:  make([]bool, 8),
	}
	prof := NewProfiler(2)
	r := SimulateTxnGraphProf(g, 2, prof, nil)
	spans, _ := prof.Spans()
	end := map[string]time.Duration{}
	for _, s := range spans {
		if prev := map[string]string{"t1": "t0", "t2": "t1", "t3": "t2"}[s.Label]; prev != "" {
			if e, ok := end[prev]; !ok || s.Start < e {
				t.Fatalf("dependency order violated: %s starts at %v, before %s ends", s.Label, s.Start, prev)
			}
		}
		end[s.Label] = s.Start + s.Dur
	}
	// Critical path = 4 chained txns = 400ns; greedy list scheduling may
	// delay the chain behind already-ready work, but never beyond one
	// extra slot per chain step.
	if r.Makespan < 400 || r.Makespan > 500 {
		t.Errorf("makespan = %v, want within [400ns, 500ns]", r.Makespan)
	}
}

func TestSimulateTxnGraphEmpty(t *testing.T) {
	if r := SimulateTxnGraphProf(&TxnGraph{}, 3, nil, nil); r.Makespan != 0 {
		t.Errorf("empty graph makespan = %v", r.Makespan)
	}
}

func TestChargeMapsStalls(t *testing.T) {
	r := Result{Clocks: []Clock{{Execute: 10, Explore: 2, Abort: 3, Stall: 5}}}
	var bd1 metrics.RecoveryBreakdown
	r.Charge(&bd1, false)
	if bd1.Wait != 5 || bd1.Explore != 2 || bd1.Execute != 10 || bd1.Abort != 3 {
		t.Errorf("stall->wait mapping: %+v", bd1)
	}
	var bd2 metrics.RecoveryBreakdown
	r.Charge(&bd2, true)
	if bd2.Wait != 0 || bd2.Explore != 7 {
		t.Errorf("stall->explore mapping: %+v", bd2)
	}
}
