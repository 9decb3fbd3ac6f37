package tpg

import (
	"testing"

	"morphstreamr/internal/store"
	"morphstreamr/internal/types"
)

// The tests in this file replay the paper's running example (Figure 3):
//
//	e1: Deposit(A, V1)      -> txn1 = <O1>           O1 = W1(A, f1(V1))
//	e2: Transfer(A, B, V2)  -> txn2 = <O2, O3>       O2 = W2(A, f2(A,V2)), O3 = W2(B, f3(B,A,V2))
//	e3: Transfer(B, A, V3)  -> txn3 = <O4, O5>       O4 = W3(B, f4(B,V3)), O5 = W3(A, f5(A,B,V3))
//
// Expected dependencies: TD O1->O2 (same key A), TD O3->O4 (same key B),
// TD O2->O5 (A); LD O2->O3, O4->O5; PD O1->O3 (O3 reads A as of ts 2),
// PD O3->O5 (O5 reads B as of ts 3).

var (
	keyA = types.Key{Table: 0, Row: 0}
	keyB = types.Key{Table: 0, Row: 1}
)

func fig3Txns(v1, v2, v3 int64) []*types.Txn {
	txn1 := &types.Txn{ID: 1, TS: 1, Ops: []types.Operation{
		{TxnID: 1, TS: 1, Idx: 0, Key: keyA, Fn: types.FnAdd, Const: v1},
	}}
	txn2 := &types.Txn{ID: 2, TS: 2, Ops: []types.Operation{
		{TxnID: 2, TS: 2, Idx: 0, Key: keyA, Fn: types.FnGuardedSubSelf, Const: v2},
		{TxnID: 2, TS: 2, Idx: 1, Key: keyB, Fn: types.FnGuardedAdd, Const: v2, Deps: []types.Key{keyA}},
	}}
	txn3 := &types.Txn{ID: 3, TS: 3, Ops: []types.Operation{
		{TxnID: 3, TS: 3, Idx: 0, Key: keyB, Fn: types.FnGuardedSubSelf, Const: v3},
		{TxnID: 3, TS: 3, Idx: 1, Key: keyA, Fn: types.FnGuardedAdd, Const: v3, Deps: []types.Key{keyB}},
	}}
	return []*types.Txn{txn1, txn2, txn3}
}

func fig3Store() *store.Store {
	return store.New([]types.TableSpec{{ID: 0, Rows: 2, Init: 0}})
}

func buildFig3(t *testing.T, v1, v2, v3 int64) (*Graph, *store.Store) {
	t.Helper()
	st := fig3Store()
	g := Build(fig3Txns(v1, v2, v3), st.Get)
	return g, st
}

func TestBuildStructure(t *testing.T) {
	g, _ := buildFig3(t, 100, 30, 20)
	if g.NumOps != 5 {
		t.Fatalf("NumOps = %d, want 5", g.NumOps)
	}
	if len(g.ChainList) != 2 {
		t.Fatalf("chains = %d, want 2 (A and B)", len(g.ChainList))
	}
	chainA, chainB := g.ChainOf(keyA), g.ChainOf(keyB)
	if len(chainA.Ops) != 3 || len(chainB.Ops) != 2 {
		t.Fatalf("chain lengths: A=%d B=%d, want 3 and 2", len(chainA.Ops), len(chainB.Ops))
	}
	// Chains sorted by timestamp.
	for i := 1; i < len(chainA.Ops); i++ {
		if chainA.Ops[i-1].Op.TS >= chainA.Ops[i].Op.TS {
			t.Error("chain A not in timestamp order")
		}
	}

	o1 := g.Txns[0].Ops[0]
	o2, o3 := g.Txns[1].Ops[0], g.Txns[1].Ops[1]
	o4, o5 := g.Txns[2].Ops[0], g.Txns[2].Ops[1]

	// TD edges via chain links.
	if o2.ChainPrev != o1 || o5.ChainPrev != o2 {
		t.Error("chain A TD edges wrong")
	}
	if o4.ChainPrev != o3 {
		t.Error("chain B TD edge wrong")
	}
	// LD edges.
	if o3.CondSrc != o2 || o5.CondSrc != o4 {
		t.Error("LD edges wrong")
	}
	// PD edges: O3 reads A as of ts 2 -> producer O1; O5 reads B as of
	// ts 3 -> producer O3.
	if len(o3.PDSrc) != 1 || o3.PDSrc[0] != o1 {
		t.Errorf("O3's parametric producer = %v, want O1", o3.PDSrc)
	}
	if len(o5.PDSrc) != 1 || o5.PDSrc[0] != o3 {
		t.Errorf("O5's parametric producer = %v, want O3", o5.PDSrc)
	}
	// Pending counts: O1 ready; O2 waits TD; O3 waits LD+PD; O4 waits TD;
	// O5 waits TD+LD+PD... O5: ChainPrev O2 (+1), CondSrc O4 (+1), PD O3 (+1).
	// The edge-derived in-degree agrees, and Pos is transaction order.
	for pos, n := range []*OpNode{o1, o2, o3, o4, o5} {
		want := []int32{0, 1, 2, 1, 3}[pos]
		if got := n.Pending(); got != want || n.Indegree() != want || n.Pos != pos {
			t.Errorf("%s: pending %d, in-degree %d, pos %d; want %d, %d, %d", n.Ref(), got, n.Indegree(), n.Pos, want, want, pos)
		}
	}
	heads := g.Heads(nil)
	if len(heads) != 1 || heads[0] != o1 {
		t.Errorf("heads = %v, want [O1]", heads)
	}
}

// execInOrder fires all nodes in (TS, Idx) order, which is topological.
func execInOrder(g *Graph, st *store.Store) {
	for _, tn := range g.Txns {
		for _, n := range tn.Ops {
			Fire(n, st)
		}
	}
}

func TestFig3CommitPath(t *testing.T) {
	g, st := buildFig3(t, 100, 30, 20)
	execInOrder(g, st)
	// A: 0 +100 -30 +20 = 90; B: 0 +30 -20 = 10.
	if got := st.Get(keyA); got != 90 {
		t.Errorf("A = %d, want 90", got)
	}
	if got := st.Get(keyB); got != 10 {
		t.Errorf("B = %d, want 10", got)
	}
	for i, tn := range g.Txns {
		if tn.Aborted() {
			t.Errorf("txn %d aborted unexpectedly", i+1)
		}
	}
}

func TestFig3AbortPath(t *testing.T) {
	// V2 > A's balance: txn2 must abort atomically; txn3 still runs
	// against the untouched balances.
	g, st := buildFig3(t, 100, 1000, 20)
	execInOrder(g, st)
	if !g.Txns[1].Aborted() {
		t.Fatal("txn2 should abort (insufficient balance)")
	}
	if g.Txns[0].Aborted() {
		t.Fatal("txn1 must not abort")
	}
	// B never received txn2's credit, so txn3's guard (B >= 20) fails
	// too: the abort cascades through real balances, not through edges.
	if !g.Txns[2].Aborted() {
		t.Fatal("txn3 should abort: B's balance is 0 without txn2's credit")
	}
	if got := st.Get(keyA); got != 100 {
		t.Errorf("A = %d, want 100", got)
	}
	if got := st.Get(keyB); got != 0 {
		t.Errorf("B = %d, want 0", got)
	}
}

func TestAbortedProducerYieldsPreviousVersion(t *testing.T) {
	// txn2 aborts; txn3's parametric read of B must see B's value as of
	// ts 3, i.e. the value before txn2's no-op write (0), and O5 must
	// still see A = 100 for its own chain.
	g, st := buildFig3(t, 100, 1000, 0)
	execInOrder(g, st)
	o5 := g.Txns[2].Ops[1]
	if o5.DepVals[0] != 0 {
		t.Errorf("O5 read B = %d through aborted producer, want 0", o5.DepVals[0])
	}
	// txn3 transfers 0: guard B >= 0 passes; A += 0.
	if g.Txns[2].Aborted() {
		t.Error("txn3 should commit with amount 0")
	}
	if got := st.Get(keyA); got != 100 {
		t.Errorf("A = %d, want 100", got)
	}
}

func TestResolveOrdersChainSuccessorFirst(t *testing.T) {
	g, st := buildFig3(t, 100, 30, 20)
	o1 := g.Txns[0].Ops[0]
	o2, o3 := g.Txns[1].Ops[0], g.Txns[1].Ops[1]
	Fire(o1, st)
	ready := Resolve(o1, nil)
	if len(ready) != 1 || ready[0] != o2 {
		t.Fatalf("after O1: ready = %v, want [O2]", ready)
	}
	Fire(o2, st)
	ready = Resolve(o2, nil)
	// O2 completes chain A's TD to O5 (still pending LD+PD) and the LD to
	// O3 (still pending PD from O1 — already resolved? O3's PD producer is
	// O1, resolved when O1 resolved). O1's resolve already decremented
	// O3's PD; so after O2, O3 is ready.
	if len(ready) != 1 || ready[0] != o3 {
		t.Fatalf("after O2: ready = %v, want [O3]", ready)
	}
}

func TestDoubleFirePanics(t *testing.T) {
	g, st := buildFig3(t, 1, 1, 1)
	o1 := g.Txns[0].Ops[0]
	Fire(o1, st)
	defer func() {
		if recover() == nil {
			t.Error("double Fire must panic")
		}
	}()
	Fire(o1, st)
}

func TestEdgesPointForward(t *testing.T) {
	// Acyclicity by construction: every edge goes from smaller to larger
	// (TS, Idx). Verify on a moderately sized random-ish graph.
	var txns []*types.Txn
	for i := uint64(1); i <= 50; i++ {
		k1 := types.Key{Table: 0, Row: uint32(i % 7)}
		k2 := types.Key{Table: 0, Row: uint32((i + 3) % 7)}
		txn := &types.Txn{ID: i, TS: i, Ops: []types.Operation{
			{TxnID: i, TS: i, Idx: 0, Key: k1, Fn: types.FnAdd, Const: 1},
			{TxnID: i, TS: i, Idx: 1, Key: k2, Fn: types.FnGuardedAdd, Const: 1, Deps: []types.Key{k1}},
		}}
		txns = append(txns, txn)
	}
	st := store.New([]types.TableSpec{{ID: 0, Rows: 7, Init: 5}})
	g := Build(txns, st.Get)
	after := func(a, b *OpNode) bool {
		return a.Op.TS < b.Op.TS || (a.Op.TS == b.Op.TS && a.Op.Idx < b.Op.Idx)
	}
	for _, tn := range g.Txns {
		for _, n := range tn.Ops {
			if n.ChainNext != nil && !after(n, n.ChainNext) {
				t.Fatal("TD edge points backward")
			}
			for _, d := range n.LDOut {
				if !after(n, d) {
					t.Fatal("LD edge points backward")
				}
			}
			for _, d := range n.PDOut {
				if !after(n, d) {
					t.Fatal("PD edge points backward")
				}
			}
		}
	}
	// Pending counts must equal incoming edge counts.
	incoming := make(map[*OpNode]int32)
	for _, tn := range g.Txns {
		for _, n := range tn.Ops {
			if n.ChainNext != nil {
				incoming[n.ChainNext]++
			}
			for _, d := range n.LDOut {
				incoming[d]++
			}
			for _, d := range n.PDOut {
				incoming[d]++
			}
		}
	}
	for _, tn := range g.Txns {
		for _, n := range tn.Ops {
			if n.Pending() != incoming[n] {
				t.Fatalf("pending(%v@%d) = %d, incoming edges = %d",
					n.Op.Key, n.Op.TS, n.Pending(), incoming[n])
			}
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	st := fig3Store()
	g := Build(nil, st.Get)
	if g.NumOps != 0 || len(g.Heads(nil)) != 0 || len(g.Txns) != 0 {
		t.Error("empty graph should be inert")
	}
}

func TestExecutedTxnsViews(t *testing.T) {
	g, st := buildFig3(t, 100, 30, 20)
	execInOrder(g, st)
	ex := g.Txns[1].ExecutedInto(&types.ExecutedTxn{})
	if ex.Aborted || ex.Txn != g.Txns[1].Txn || len(ex.Results) != 2 || ex.Results[0] != 70 || ex.Results[1] != 30 {
		t.Errorf("txn2 executed view = %+v, want results [70 30]", ex)
	}
}
