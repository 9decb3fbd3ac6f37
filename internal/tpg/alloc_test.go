package tpg

import (
	"testing"

	"morphstreamr/internal/types"
)

// TestBuilderBuildAllocBound pins the arena-recycling contract of the
// epoch-construction hot path: once a graph has been built and released,
// rebuilding an epoch of the same shape reuses its arenas, slices, and
// chain index, so steady-state construction allocates nothing at all.
func TestBuilderBuildAllocBound(t *testing.T) {
	txns := make([]*types.Txn, 200)
	for i := range txns {
		id := uint64(i + 1)
		k1 := types.Key{Table: 0, Row: uint32(i % 31)}
		k2 := types.Key{Table: 0, Row: uint32((i + 7) % 31)}
		txns[i] = &types.Txn{ID: id, TS: id, Ops: []types.Operation{
			{TxnID: id, TS: id, Idx: 0, Key: k1, Fn: types.FnAdd, Const: 1},
			{TxnID: id, TS: id, Idx: 1, Key: k2, Fn: types.FnGuardedAdd, Const: 1, Deps: []types.Key{k1}},
		}}
	}

	b := NewBuilder()
	b.Release(b.Build(txns)) // warm: grow arenas once

	got := testing.AllocsPerRun(50, func() {
		b.Release(b.Build(txns))
	})
	gotOwn := testing.AllocsPerRun(50, func() {
		g := b.Begin(len(txns))
		for i, txn := range txns {
			g.Input[i] = *txn
		}
		g.BuildInput()
		b.Release(g)
	})
	if gotOwn != 0 {
		t.Fatalf("recycled Begin/BuildInput: %.1f allocs/op, want 0 (the graph keeps its transaction storage)", gotOwn)
	}
	// The map-indexed build allocated twice per epoch here (the reflection
	// swapper and closure of its sort.Slice); the dense index sorts nothing.
	if got != 0 {
		t.Fatalf("recycled build: %.1f allocs/op, want 0 (200 txns would be ~400+ without recycling)", got)
	}
}
