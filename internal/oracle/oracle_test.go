package oracle

import (
	"testing"

	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// TestFig3Scenario replays the paper's Figure 3 example end to end
// through a real SL application: deposit then two transfers.
func TestFig3Scenario(t *testing.T) {
	app := workload.NewSLApp(16, 0)
	o := New(app)
	accA := types.Key{Table: workload.SLAccounts, Row: 1}
	accB := types.Key{Table: workload.SLAccounts, Row: 2}

	// e1: Deposit(A, 100)
	out := o.Apply(types.Event{Seq: 0, Kind: workload.SLDeposit,
		Keys: []types.Key{accA, {Table: workload.SLAssets, Row: 1}}, Vals: []types.Value{100}})
	if out.Vals[0] != 100 {
		t.Fatalf("deposit output balance = %d, want 100", out.Vals[0])
	}

	// e2: Transfer(A, B, 30) — commits.
	out = o.Apply(types.Event{Seq: 1, Kind: workload.SLTransfer,
		Keys: []types.Key{accA, accB,
			{Table: workload.SLAssets, Row: 1}, {Table: workload.SLAssets, Row: 2}},
		Vals: []types.Value{30}})
	if out.Vals[0] != 0 {
		t.Fatal("transfer should commit")
	}
	if o.Value(accA) != 70 || o.Value(accB) != 30 {
		t.Fatalf("after transfer: A=%d B=%d, want 70/30", o.Value(accA), o.Value(accB))
	}

	// e3: Transfer(B, A, 50) — aborts: B holds only 30.
	out = o.Apply(types.Event{Seq: 2, Kind: workload.SLTransfer,
		Keys: []types.Key{accB, accA,
			{Table: workload.SLAssets, Row: 2}, {Table: workload.SLAssets, Row: 1}},
		Vals: []types.Value{50}})
	if out.Vals[0] != 1 {
		t.Fatal("transfer should abort: insufficient balance")
	}
	if o.Value(accA) != 70 || o.Value(accB) != 30 {
		t.Fatalf("aborted transfer mutated state: A=%d B=%d", o.Value(accA), o.Value(accB))
	}
}

// TestAbortAtomicity: an aborting condition op must void the whole
// transaction even when later ops would have succeeded on their own.
func TestAbortAtomicity(t *testing.T) {
	app := workload.NewTPApp(8)
	o := New(app)
	speedK := types.Key{Table: workload.TPSpeed, Row: 3}
	cntK := types.Key{Table: workload.TPCount, Row: 3}

	ex := o.ExecuteTxn(&types.Txn{ID: 0, TS: 0, Ops: []types.Operation{
		{TxnID: 0, TS: 0, Idx: 0, Key: speedK, Fn: types.FnEwmaGuard, Const: -5},
		{TxnID: 0, TS: 0, Idx: 1, Key: cntK, Fn: types.FnInc},
	}})
	if !ex.Aborted {
		t.Fatal("negative speed must abort")
	}
	if o.Value(cntK) != 0 {
		t.Error("counter incremented despite abort: atomicity broken")
	}
	if ex.Results[0] != 0 || ex.Results[1] != 0 {
		t.Errorf("aborted results = %v, want value-preserving zeros", ex.Results)
	}
}

// TestDepValuesCapturedAtTxnStart: a transaction reading a key it also
// writes must see the pre-transaction value in its dependencies.
func TestDepValuesCapturedAtTxnStart(t *testing.T) {
	app := workload.NewSLApp(8, 100)
	o := New(app)
	src := types.Key{Table: workload.SLAccounts, Row: 0}
	dst := types.Key{Table: workload.SLAccounts, Row: 1}
	// Transfer of exactly 100: the dst credit's guard reads src's
	// PRE-debit balance (100), not the post-debit 0.
	ex := o.ExecuteTxn(&types.Txn{ID: 0, TS: 0, Ops: []types.Operation{
		{TxnID: 0, TS: 0, Idx: 0, Key: src, Fn: types.FnGuardedSubSelf, Const: 100},
		{TxnID: 0, TS: 0, Idx: 1, Key: dst, Fn: types.FnGuardedAdd, Const: 100, Deps: []types.Key{src}},
	}})
	if ex.Aborted {
		t.Fatal("transfer of exact balance must commit")
	}
	if o.Value(src) != 0 || o.Value(dst) != 200 {
		t.Errorf("src=%d dst=%d, want 0/200", o.Value(src), o.Value(dst))
	}
}

func TestRunCollectsAllOutputs(t *testing.T) {
	p := workload.DefaultTPParams()
	p.Segments = 64
	gen := workload.NewTP(p)
	o := New(gen.App())
	events := workload.Batch(gen, 100)
	outs := o.Run(events)
	if len(outs) != 100 {
		t.Fatalf("outputs = %d, want 100", len(outs))
	}
	for i, out := range outs {
		if out.EventSeq != uint64(i) {
			t.Fatalf("output %d for event %d", i, out.EventSeq)
		}
	}
}
