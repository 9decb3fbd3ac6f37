package tpg

import (
	"testing"

	"morphstreamr/internal/types"
)

// txnPair builds two transactions with a cross-transaction parametric
// dependency and a condition-guarded multi-op body.
func testTxns(base uint64) []*types.Txn {
	k0 := types.Key{Table: 0, Row: 0}
	k1 := types.Key{Table: 0, Row: 1}
	t1 := &types.Txn{ID: base, TS: base, Ops: []types.Operation{
		{TxnID: base, TS: base, Idx: 0, Key: k0, Fn: types.FnAdd, Const: 5},
	}}
	t2 := &types.Txn{ID: base + 1, TS: base + 1, Ops: []types.Operation{
		{TxnID: base + 1, TS: base + 1, Idx: 0, Key: k0, Fn: types.FnAdd, Const: 1},
		{TxnID: base + 1, TS: base + 1, Idx: 1, Key: k1, Fn: types.FnGuardedAdd, Const: 2, Deps: []types.Key{k0}},
	}}
	return []*types.Txn{t1, t2}
}

func checkGraphShape(t *testing.T, g *Graph) {
	t.Helper()
	if g.NumOps != 3 {
		t.Fatalf("NumOps = %d, want 3", g.NumOps)
	}
	if len(g.Txns) != 2 || len(g.ChainList) != 2 {
		t.Fatalf("got %d txns, %d chains; want 2, 2", len(g.Txns), len(g.ChainList))
	}
	// The guarded add depends on the k0 chain's latest earlier writer (the
	// second txn's own condition op has TS base+1; latest earlier writer of
	// k0 below base+1 is... the first txn's op at TS base? No: the dep is
	// resolved against writers with TS strictly below the op's own TS.
	dep := g.Txns[1].Ops[1]
	if len(dep.PDSrc) != 1 || dep.PDSrc[0] == nil {
		t.Fatalf("expected an in-epoch parametric producer, got %+v", dep.PDSrc)
	}
	if dep.Pending() != 2 { // LD from its condition op + the PD edge
		t.Fatalf("dep pending = %d, want 2", dep.Pending())
	}
}

// TestBuilderRecyclesGraphs: a released graph is reused and builds the
// same structure a fresh Build produces.
func TestBuilderRecyclesGraphs(t *testing.T) {
	b := NewBuilder()
	g1 := b.Build(testTxns(10))
	checkGraphShape(t, g1)
	g1.CaptureBases(func(types.Key) types.Value { return 7 })
	if dep := g1.Txns[1].Ops[1]; dep.DepVals[0] != 0 {
		// PDSrc non-nil → CaptureBases must not overwrite it.
		t.Fatalf("captured over an in-epoch producer: %v", dep.DepVals)
	}

	b.Release(g1)
	g2 := b.Build(testTxns(20))
	if g2 != g1 {
		t.Fatalf("builder did not recycle the released graph")
	}
	checkGraphShape(t, g2)

	// Node identity must belong to the new build: ops point at the new
	// transactions, chains at the new keys, counters fully reset.
	for _, tn := range g2.Txns {
		if tn.Aborted() {
			t.Fatal("recycled graph kept an abort verdict")
		}
		for _, n := range tn.Ops {
			if n.Executed() {
				t.Fatal("recycled graph kept an executed flag")
			}
			if n.Op.TxnID < 20 {
				t.Fatalf("node still points at the old epoch's op: %+v", n.Op)
			}
			if len(n.PDOut) > 0 && n.PDOut[0].Op.TxnID < 20 {
				t.Fatal("recycled PDOut leaks old-epoch nodes")
			}
		}
	}
}

// TestBuildStructureThenCapture: the split build equals the eager Build.
func TestBuildStructureThenCapture(t *testing.T) {
	readBase := func(k types.Key) types.Value { return types.Value(100 + int64(k.Row)) }
	eager := Build(testTxns(1), readBase)
	split := NewBuilder().Build(testTxns(1))
	split.CaptureBases(readBase)

	for ti, tn := range eager.Txns {
		for oi, n := range tn.Ops {
			m := split.Txns[ti].Ops[oi]
			if n.Pending() != m.Pending() {
				t.Fatalf("txn %d op %d pending: eager %d split %d", ti, oi, n.Pending(), m.Pending())
			}
			for i := range n.DepVals {
				if n.DepVals[i] != m.DepVals[i] {
					t.Fatalf("txn %d op %d depval %d: eager %d split %d",
						ti, oi, i, n.DepVals[i], m.DepVals[i])
				}
			}
		}
	}
}

// TestResetExecRestoresCounters: after executing a graph, ResetExec brings
// every dependency counter and flag back to its post-build state.
func TestResetExecRestoresCounters(t *testing.T) {
	g := NewBuilder().Build(testTxns(1))
	g.CaptureBases(func(types.Key) types.Value { return 0 })
	want := make(map[*OpNode]int32)
	for _, tn := range g.Txns {
		for _, n := range tn.Ops {
			want[n] = n.Pending()
		}
	}
	// Simulate execution state.
	for _, tn := range g.Txns {
		tn.SetAborted()
		for _, n := range tn.Ops {
			n.pending.Store(0)
			n.executed.Store(true)
		}
	}
	g.ResetExec()
	for _, tn := range g.Txns {
		if tn.Aborted() {
			t.Fatal("ResetExec kept abort verdict")
		}
		for _, n := range tn.Ops {
			if n.Executed() {
				t.Fatal("ResetExec kept executed flag")
			}
			if n.Pending() != want[n] {
				t.Fatalf("pending = %d, want %d", n.Pending(), want[n])
			}
		}
	}
}

// TestArenaPointerStability: pointers taken before growth stay valid.
func TestArenaPointerStability(t *testing.T) {
	var a arena[int]
	var ptrs []*int
	for i := 0; i < 3000; i++ {
		p := a.take()
		*p = i
		ptrs = append(ptrs, p)
	}
	for i, p := range ptrs {
		if *p != i {
			t.Fatalf("slot %d corrupted: %d", i, *p)
		}
	}
	a.rewind()
	q := a.take()
	if q != ptrs[0] {
		t.Fatal("rewind did not reuse the first slot")
	}
}
