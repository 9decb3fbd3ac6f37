// Package tpg implements the task precedence graph (TPG) at the heart of
// the engine (Section IV): vertices are state access operations, edges are
// the three fine-grained dependency kinds of Section II-A:
//
//   - Temporal dependencies (TD) order operations on the same key by
//     timestamp; each key's operations form a chain.
//   - Logical dependencies (LD) tie a transaction's operations to its
//     condition operation (index 0), which decides commit or abort.
//   - Parametric dependencies (PD) connect an operation to the most recent
//     earlier writer of each key whose value its function consumes.
//
// Determinism contract. An operation's dependency values are the values of
// its dep keys as of the operation's timestamp: the Result of the latest
// in-epoch writer with a smaller timestamp, or the epoch-start store value
// when no such writer exists (captured at build time, before any execution
// mutates the store). Because results are version-exact — consumers read
// the producing operation's recorded Result, never the live record — the
// final state is independent of the parallel schedule, and equals the
// sequential timestamp-order execution. The oracle package checks this.
//
// Abort contract. A transaction aborts if and only if its condition
// operation's function returns commit=false. Operations of an aborted
// transaction are value-preserving no-ops whose Result is their base value,
// keeping downstream temporal and parametric reads exact.
package tpg

import (
	"cmp"
	"slices"
	"strconv"
	"sync/atomic"

	"morphstreamr/internal/types"
)

// OpNode is one TPG vertex: an operation plus its execution state.
type OpNode struct {
	Op  *types.Operation
	Txn *TxnNode

	// Chain links (TD edges).
	ChainPrev *OpNode
	ChainNext *OpNode
	Chain     *Chain
	// Pos is the node's index in transaction order (Graph.Txns, then each
	// transaction's Ops), so per-node scratch state can live in a slice of
	// NumOps entries instead of a map keyed by node.
	Pos int

	// PDSrc[i] is the in-epoch producer of Op.Deps[i], or nil when the
	// value was captured from the epoch-start store into DepVals[i].
	PDSrc []*OpNode
	// PDOut lists operations whose DepVals await this node's Result.
	PDOut []*OpNode
	// CondSrc is the LD source (the transaction's condition op) for
	// non-condition operations of multi-op transactions.
	CondSrc *OpNode
	// LDOut lists same-transaction operations notified by this condition op.
	LDOut []*OpNode

	// DepVals holds the resolved dependency values, aligned with Op.Deps.
	// Entries with a nil PDSrc are filled at build time; the rest are
	// copied from the producer's Result when the scheduler resolves the
	// edge (or injected from the ParametricView during MSR recovery).
	DepVals []types.Value

	// Base is the value of Op.Key immediately before this operation; the
	// chain head reads it from the store, later links from ChainPrev.
	Base types.Value
	// Result is the value of Op.Key immediately after this operation.
	Result types.Value

	// pending counts unresolved incoming edges. The node becomes ready
	// when it reaches zero.
	pending atomic.Int32
	// executed is set exactly once, by the worker that ran the node.
	executed atomic.Bool
}

// Pending returns the current unresolved-dependency count.
func (n *OpNode) Pending() int32 { return n.pending.Load() }

// AddPending adjusts the unresolved-dependency count by delta and returns
// the new value. Schedulers use it to resolve edges; delta -1 reaching zero
// means the node is ready.
func (n *OpNode) AddPending(delta int32) int32 { return n.pending.Add(delta) }

// Indegree counts the node's incoming edges from the edge lists: its chain
// predecessor, its condition operation, and every non-nil parametric
// source. On a graph not yet executed it equals Pending; an execution
// counts Pending down to zero and leaves Indegree as it was.
func (n *OpNode) Indegree() int32 {
	in := int32(0)
	if n.ChainPrev != nil {
		in++
	}
	if n.CondSrc != nil {
		in++
	}
	for _, src := range n.PDSrc {
		if src != nil {
			in++
		}
	}
	return in
}

// Executed reports whether the node has run.
func (n *OpNode) Executed() bool { return n.executed.Load() }

// MarkExecuted records that the node has run. It returns false if the node
// was already marked, which schedulers treat as a double-execution bug.
func (n *OpNode) MarkExecuted() bool { return n.executed.CompareAndSwap(false, true) }

// Ref returns a compact stable label for the node — "t<txn>.<idx>" — used
// by the recovery profiler to name timeline spans and stall blockers.
func (n *OpNode) Ref() string {
	return "t" + strconv.FormatUint(n.Op.TxnID, 10) + "." + strconv.Itoa(int(n.Op.Idx))
}

// TxnNode groups the operation nodes of one state transaction.
type TxnNode struct {
	Txn     *types.Txn
	Ops     []*OpNode
	aborted atomic.Bool
}

// Aborted reports whether the transaction's condition op failed its guard.
func (t *TxnNode) Aborted() bool { return t.aborted.Load() }

// SetAborted marks the transaction aborted. Only the condition operation's
// executor calls it; during MSR recovery, abort pushdown sets it before
// execution starts.
func (t *TxnNode) SetAborted() { t.aborted.Store(true) }

// ExecutedInto fills view with the post-execution state of the transaction
// and returns it, reusing view's Results slice when it has capacity. The
// engine's postprocess loop threads one scratch view through all
// transactions of an epoch — valid because the App.Postprocess contract
// forbids retaining the view past the call.
func (t *TxnNode) ExecutedInto(view *types.ExecutedTxn) *types.ExecutedTxn {
	res := view.Results[:0]
	for _, op := range t.Ops {
		res = append(res, op.Result)
	}
	view.Txn, view.Results, view.Aborted = t.Txn, res, t.Aborted()
	return view
}

// Chain is the temporally ordered list of one key's operations.
type Chain struct {
	Key types.Key
	Ops []*OpNode // ascending timestamp
	// Owner is the worker (or recovery task) the chain is assigned to;
	// schedulers and partitioners set it before execution.
	Owner int
	// Pos is the chain's index in Graph.ChainList, so per-chain scratch
	// state can live in a slice instead of a map keyed by chain or key.
	Pos int
}

// Graph is one epoch's TPG.
type Graph struct {
	Txns []*TxnNode
	// ChainList holds the chains in ascending key order, one per distinct
	// key. Callers may rely on both: the engine's OnWriteSet hands the
	// keys on as a sorted, duplicate-free write set.
	ChainList []*Chain
	// NumOps is the total vertex count.
	NumOps int
	// Input is the transaction storage of a graph obtained from
	// Builder.Begin: the caller fills it and calls BuildInput. It is kept
	// (not cleared) across recycling, like the arenas; nil for graphs built
	// from the caller's own transactions.
	Input []types.Txn
	// inputPtrs[i] is &Input[i] over Input's whole capacity.
	inputPtrs []*types.Txn
	// Ops is the operation arena behind Input: the caller appends each
	// transaction's operations to it (types.App.AppendOps) and points the
	// transaction's Ops into it. Rewinding empties it and keeps its
	// capacity, so steady-state epochs preprocess without allocating.
	Ops []types.Operation

	// index maps each accessed key to its chain. It is dense, grows with
	// the rows an epoch touches rather than with declared table sizes, and
	// walks in key order — which is where ChainList's order comes from.
	index types.Dense[*Chain]

	// Arenas back the node, transaction, and chain allocations. A fresh
	// graph grows them chunk by chunk; a recycled graph (see Builder)
	// rewinds and reuses them, eliminating steady-state allocation.
	nodes  arena[OpNode]
	txns   arena[TxnNode]
	chains arena[Chain]
	// Slabs back the small per-transaction, per-node and per-chain slices.
	links slab[*OpNode]
	vals  slab[types.Value]
}

// ReadBase supplies epoch-start values for keys without in-epoch producers.
// It is store.Get in practice; CaptureBases reads these values before
// execution starts so that store mutation cannot leak mid-epoch values
// into dependencies.
type ReadBase func(types.Key) types.Value

// Build constructs the TPG for one epoch's transactions and captures
// epoch-start base values. Transactions must arrive in ascending timestamp
// order (the spout's event order).
func Build(txns []*types.Txn, readBase ReadBase) *Graph {
	g := &Graph{}
	g.build(txns)
	g.CaptureBases(readBase)
	return g
}

// BuildEvents preprocesses events into app's transactions and builds
// their TPG (Build).
func BuildEvents(app types.App, events []types.Event, readBase ReadBase) *Graph {
	txns := make([]*types.Txn, len(events))
	for i, ev := range events {
		txn := app.Preprocess(ev)
		txns[i] = &txn
	}
	return Build(txns, readBase)
}

// BuildInput constructs the structural TPG over the transactions in Input
// (see Builder.Begin). The caller must CaptureBases before executing it.
func (g *Graph) BuildInput() { g.build(g.inputPtrs[:len(g.Input)]) }

// ChainOf returns the chain of operations on k, or nil when the epoch has
// none.
func (g *Graph) ChainOf(k types.Key) *Chain { return g.index.Get(k) }

// newNode takes a (possibly recycled) node from the arena and resets it
// for op. Slice fields keep their capacity; everything else is zeroed.
// Fields are assigned individually because OpNode embeds atomics, which
// must not be copied wholesale.
func (g *Graph) newNode(op *types.Operation, tn *TxnNode) *OpNode {
	n := g.nodes.take()
	n.Op, n.Txn = op, tn
	n.ChainPrev, n.ChainNext, n.Chain = nil, nil, nil
	n.PDSrc = n.PDSrc[:0]
	n.PDOut = n.PDOut[:0]
	n.CondSrc = nil
	n.LDOut = n.LDOut[:0]
	n.DepVals = n.DepVals[:0]
	n.Base, n.Result = 0, 0
	n.pending.Store(0)
	n.executed.Store(false)
	return n
}

// build is the structural construction shared by Build, BuildInput and
// Builder.Build.
func (g *Graph) build(txns []*types.Txn) {
	if g.Txns == nil {
		g.Txns = make([]*TxnNode, 0, len(txns))
	}
	ops := 0
	for _, txn := range txns {
		ops += len(txn.Ops)
	}
	g.txns.reserve(len(txns))
	g.nodes.reserve(ops)

	// Pass 1: create nodes and chains.
	for _, txn := range txns {
		tn := g.txns.take()
		tn.Txn = txn
		tn.aborted.Store(false)
		tn.Ops = g.links.resize(tn.Ops, len(txn.Ops))
		for i := range txn.Ops {
			op := &txn.Ops[i]
			n := g.newNode(op, tn)
			n.Pos = g.NumOps
			tn.Ops[i] = n
			slot := g.index.Slot(op.Key)
			ch := *slot
			if ch == nil {
				ch = g.chains.take()
				ch.Key = op.Key
				ch.Ops = ch.Ops[:0]
				ch.Owner = 0
				*slot = ch
			}
			n.Chain = ch
			// Most chains of a low-contention epoch never outgrow two links.
			ch.Ops = g.links.push(ch.Ops, n, 2)
			g.NumOps++
		}
		g.Txns = append(g.Txns, tn)
	}

	// Deterministic chain order for partitioners, schedulers and the
	// durable records sealed from them: the index walks in key order.
	g.index.Each(func(_ types.Key, ch *Chain) {
		ch.Pos = len(g.ChainList)
		g.ChainList = append(g.ChainList, ch)
	})

	// Pass 2: TD edges. Transactions arrive in ascending TS, so each chain
	// is already sorted; assert-by-construction with a defensive sort only
	// if needed.
	for _, ch := range g.ChainList {
		if !sorted(ch.Ops) {
			slices.SortStableFunc(ch.Ops, func(a, b *OpNode) int { return cmp.Compare(a.Op.TS, b.Op.TS) })
		}
		for i := 1; i < len(ch.Ops); i++ {
			ch.Ops[i].ChainPrev = ch.Ops[i-1]
			ch.Ops[i-1].ChainNext = ch.Ops[i]
			ch.Ops[i].pending.Add(1)
		}
	}

	// Pass 3: LD and PD edges. Dependency values without an in-epoch
	// producer stay unfilled (PDSrc entry nil) until CaptureBases.
	for _, tn := range g.Txns {
		if len(tn.Ops) > 1 {
			cond := tn.Ops[0]
			for _, n := range tn.Ops[1:] {
				n.CondSrc = cond
				cond.LDOut = g.links.push(cond.LDOut, n, len(tn.Ops)-1)
				n.pending.Add(1)
			}
		}
		for _, n := range tn.Ops {
			if len(n.Op.Deps) == 0 {
				continue
			}
			n.PDSrc = g.links.resize(n.PDSrc, len(n.Op.Deps))
			n.DepVals = g.vals.resize(n.DepVals, len(n.Op.Deps))
			for i, dk := range n.Op.Deps {
				src := latestEarlierWriter(g.index.Get(dk), n.Op.TS)
				if src == nil {
					continue
				}
				n.PDSrc[i] = src
				src.PDOut = g.links.push(src.PDOut, n, 2)
				n.pending.Add(1)
			}
		}
	}
}

// CaptureBases fills the dependency values that have no in-epoch producer
// with the store's current (epoch-start) content. It must run after the
// previous epoch's execution has fully finished and before this graph's
// execution starts.
func (g *Graph) CaptureBases(readBase ReadBase) {
	for _, tn := range g.Txns {
		for _, n := range tn.Ops {
			for i, src := range n.PDSrc {
				if src == nil {
					n.DepVals[i] = readBase(n.Op.Deps[i])
				}
			}
		}
	}
}

// ResetExec rewinds the graph's execution state — dependency counters,
// executed flags, abort verdicts, base/result values — so the same
// structure can be executed again. Captured epoch-start dependency values
// are kept as-is, so a re-run against a mutated store is structurally
// identical but not value-identical to the first; benchmarks use it to
// measure pure scheduling cost without rebuilding the graph.
func (g *Graph) ResetExec() {
	for _, tn := range g.Txns {
		tn.aborted.Store(false)
		for _, n := range tn.Ops {
			n.pending.Store(n.Indegree())
			n.executed.Store(false)
			n.Base, n.Result = 0, 0
		}
	}
}

// rewind clears the graph for reuse, keeping arena chunks, slice
// capacities, and the chain index's nodes (only the leaves this epoch
// touched are cleared).
func (g *Graph) rewind() {
	g.Txns = g.Txns[:0]
	g.Ops = g.Ops[:0]
	g.index.Reset()
	g.ChainList = g.ChainList[:0]
	g.NumOps = 0
	g.nodes.rewind()
	g.txns.rewind()
	g.chains.rewind()
}

func sorted(ops []*OpNode) bool {
	for i := 1; i < len(ops); i++ {
		if ops[i-1].Op.TS > ops[i].Op.TS {
			return false
		}
	}
	return true
}

// latestEarlierWriter returns the chain's last operation with a timestamp
// strictly below ts, or nil. Chains are sorted, so binary search applies.
func latestEarlierWriter(ch *Chain, ts uint64) *OpNode {
	if ch == nil {
		return nil
	}
	// lo is the first index with TS >= ts.
	lo, hi := 0, len(ch.Ops)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ch.Ops[mid].Op.TS < ts {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil
	}
	return ch.Ops[lo-1]
}

// Heads appends the nodes with no unresolved dependencies, the initial
// ready frontier for schedulers, to dst and returns it; a scheduler that
// seeds epoch after epoch passes one buffer back each time.
func (g *Graph) Heads(dst []*OpNode) []*OpNode {
	for _, ch := range g.ChainList {
		for _, n := range ch.Ops {
			if n.Pending() == 0 {
				dst = append(dst, n)
			}
		}
	}
	return dst
}
