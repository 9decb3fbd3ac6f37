package tpg

import (
	"math/rand"
	"sort"
	"testing"

	"morphstreamr/internal/types"
)

// refChain is the test-local reference for one chain: the map-and-sort
// construction Graph.build used before its index went dense.
type refChain struct {
	key types.Key
	ops []*types.Operation // ascending timestamp
}

// refBuild groups an epoch's operations by key through a hash map and
// orders the keys with a comparison sort.
func refBuild(txns []*types.Txn) []refChain {
	byKey := map[types.Key]*refChain{}
	for _, txn := range txns {
		for i := range txn.Ops {
			op := &txn.Ops[i]
			ch := byKey[op.Key]
			if ch == nil {
				ch = &refChain{key: op.Key}
				byKey[op.Key] = ch
			}
			ch.ops = append(ch.ops, op)
		}
	}
	out := make([]refChain, 0, len(byKey))
	for _, ch := range byKey {
		out = append(out, *ch)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key.Less(out[j].key) })
	return out
}

// refWriter is the reference parametric-dependency source: the last
// operation on key with a timestamp below ts, by linear scan.
func refWriter(chains []refChain, key types.Key, ts uint64) *types.Operation {
	for _, ch := range chains {
		if ch.key != key {
			continue
		}
		var src *types.Operation
		for _, op := range ch.ops {
			if op.TS < ts {
				src = op
			}
		}
		return src
	}
	return nil
}

// randomEpoch draws a multi-table epoch whose keys exercise every shape
// the dense index must handle without knowing any table size: a hot dense
// range, a sparse range, rows far beyond any plausible declared size, and
// a second and a high table ID.
func randomEpoch(rng *rand.Rand, firstTS uint64, n int) []*types.Txn {
	key := func() types.Key {
		switch rng.Intn(8) {
		case 0, 1, 2:
			return types.Key{Table: 0, Row: uint32(rng.Intn(40))}
		case 3, 4:
			return types.Key{Table: 1, Row: uint32(rng.Intn(5000))}
		case 5:
			return types.Key{Table: 1, Row: uint32(rng.Intn(1 << 24))}
		case 6:
			return types.Key{Table: 0, Row: ^uint32(0) - uint32(rng.Intn(3))}
		default:
			return types.Key{Table: 250, Row: uint32(rng.Intn(300))}
		}
	}
	txns := make([]*types.Txn, n)
	for i := range txns {
		ts := firstTS + uint64(i)
		txn := &types.Txn{ID: ts, TS: ts}
		seen := map[types.Key]bool{}
		for len(txn.Ops) < 1+rng.Intn(3) {
			k := key()
			if seen[k] {
				continue
			}
			seen[k] = true
			op := types.Operation{TxnID: ts, TS: ts, Idx: uint8(len(txn.Ops)), Key: k, Fn: types.FnSum}
			for d := rng.Intn(4); d > 0; d-- {
				if dk := key(); dk != k {
					op.Deps = append(op.Deps, dk)
				}
			}
			txn.Ops = append(txn.Ops, op)
		}
		txns[i] = txn
	}
	return txns
}

// checkAgainstReference requires the graph to equal the reference in chain
// order, chain membership and parametric sources.
func checkAgainstReference(t *testing.T, g *Graph, txns []*types.Txn) {
	t.Helper()
	ref := refBuild(txns)
	if len(g.ChainList) != len(ref) {
		t.Fatalf("%d chains, reference has %d", len(g.ChainList), len(ref))
	}
	for i, ch := range g.ChainList {
		want := ref[i]
		if ch.Key != want.key {
			t.Fatalf("ChainList[%d] is %v, reference (ascending key order) has %v", i, ch.Key, want.key)
		}
		if ch.Pos != i {
			t.Fatalf("chain %v: Pos %d at ChainList[%d]", ch.Key, ch.Pos, i)
		}
		if g.ChainOf(ch.Key) != ch {
			t.Fatalf("ChainOf(%v) is not ChainList[%d]", ch.Key, i)
		}
		if len(ch.Ops) != len(want.ops) {
			t.Fatalf("chain %v: %d ops, reference has %d", ch.Key, len(ch.Ops), len(want.ops))
		}
		for j, n := range ch.Ops {
			if n.Op != want.ops[j] {
				t.Fatalf("chain %v op %d: %s, reference has t%d.%d", ch.Key, j, n.Ref(), want.ops[j].TxnID, want.ops[j].Idx)
			}
			if n.Chain != ch {
				t.Fatalf("%s: Chain link points at %v, sits in %v", n.Ref(), n.Chain.Key, ch.Key)
			}
		}
	}
	for _, tn := range g.Txns {
		for _, n := range tn.Ops {
			for i, dk := range n.Op.Deps {
				want := refWriter(ref, dk, n.Op.TS)
				got := n.PDSrc[i]
				if (got == nil) != (want == nil) || (got != nil && got.Op != want) {
					t.Fatalf("%s dep %d on %v: PDSrc %v, reference %v", n.Ref(), i, dk, got, want)
				}
			}
		}
	}
}

// TestDenseBuildMatchesMapAndSort: on random multi-table epochs with
// sparse and out-of-range rows, the dense build — fresh and recycled —
// equals the map-and-sort reference, and a recycled graph carries no chain
// over from the epoch it last held.
func TestDenseBuildMatchesMapAndSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := NewBuilder()
	var prev []*types.Txn
	for epoch := 0; epoch < 12; epoch++ {
		txns := randomEpoch(rng, uint64(epoch)*1000+1, 150+rng.Intn(300))
		checkAgainstReference(t, NewBuilder().Build(txns), txns)

		g := b.Build(txns)
		checkAgainstReference(t, g, txns)
		now := map[types.Key]bool{}
		for _, ch := range g.ChainList {
			now[ch.Key] = true
		}
		for _, txn := range prev {
			for i := range txn.Ops {
				if k := txn.Ops[i].Key; !now[k] && g.ChainOf(k) != nil {
					t.Fatalf("epoch %d: recycled graph still maps %v, a key only the previous epoch touched", epoch, k)
				}
			}
		}
		b.Release(g)

		// The same epoch through Begin/BuildInput: the graph stores the
		// transactions itself, so the reference is built over its copies.
		g = b.Begin(len(txns))
		own := make([]*types.Txn, len(txns))
		for i, txn := range txns {
			g.Input[i] = *txn
			own[i] = &g.Input[i]
		}
		g.BuildInput()
		checkAgainstReference(t, g, own)
		b.Release(g)
		prev = txns
	}
}

// TestChainOfAbsentKeys: lookups of keys the epoch never touched — in an
// untouched table, beyond the touched rows, at the top of the row space —
// report no chain and do not grow the index.
func TestChainOfAbsentKeys(t *testing.T) {
	g := NewBuilder().Build(fig3Txns(100, 30, 20))
	for _, k := range []types.Key{
		{Table: 0, Row: 2}, {Table: 0, Row: 1 << 20}, {Table: 0, Row: ^uint32(0)},
		{Table: 1, Row: 0}, {Table: 255, Row: 77},
	} {
		if ch := g.ChainOf(k); ch != nil {
			t.Errorf("ChainOf(%v) = chain %v, want nil", k, ch.Key)
		}
	}
	if len(g.ChainList) != 2 {
		t.Fatalf("lookups changed the chain list: %d chains", len(g.ChainList))
	}
}
