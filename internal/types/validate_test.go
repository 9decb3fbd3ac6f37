package types

import (
	"strings"
	"testing"
)

func validTxn() Txn {
	return Txn{
		ID: 7, TS: 7,
		Ops: []Operation{
			{TxnID: 7, TS: 7, Idx: 0, Key: Key{Table: 0, Row: 1}, Fn: FnGuardedSubSelf, Const: 5},
			{TxnID: 7, TS: 7, Idx: 1, Key: Key{Table: 0, Row: 2}, Fn: FnGuardedAdd, Const: 5,
				Deps: []Key{{Table: 0, Row: 1}}},
		},
	}
}

func TestValidateTxnAccepts(t *testing.T) {
	txn := validTxn()
	if err := ValidateTxn(&txn); err != nil {
		t.Fatalf("valid txn rejected: %v", err)
	}
}

func TestValidateTxnRejections(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Txn)
		want   string
	}{
		{"empty", func(x *Txn) { x.Ops = nil }, "no operations"},
		{"id-ts", func(x *Txn) { x.TS = 8 }, "ID and TS differ"},
		{"wrong-op-txn", func(x *Txn) { x.Ops[1].TxnID = 9 }, "wrong txn id"},
		{"idx-order", func(x *Txn) { x.Ops[1].Idx = 0 }, "out of order"},
		{"dup-key", func(x *Txn) { x.Ops[1].Key = x.Ops[0].Key; x.Ops[1].Deps = []Key{{Row: 3}} }, "duplicate key"},
		{"bad-func", func(x *Txn) { x.Ops[0].Fn = FuncID(200) }, "unknown func"},
		{"bad-arity", func(x *Txn) { x.Ops[1].Deps = nil }, "wants 1 deps"},
		{"self-dep", func(x *Txn) { x.Ops[1].Deps = []Key{x.Ops[1].Key} }, "self-dependency"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			txn := validTxn()
			tc.mutate(&txn)
			err := ValidateTxn(&txn)
			if err == nil {
				t.Fatal("mutation accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestKeyOrderingAndString(t *testing.T) {
	a := Key{Table: 0, Row: 5}
	b := Key{Table: 1, Row: 0}
	c := Key{Table: 0, Row: 9}
	if !a.Less(b) || b.Less(a) {
		t.Error("table ordering broken")
	}
	if !a.Less(c) || c.Less(a) {
		t.Error("row ordering broken")
	}
	if a.Less(a) {
		t.Error("Less must be irreflexive")
	}
	if a.String() != "t0/r5" {
		t.Errorf("Key.String() = %q", a.String())
	}
}
