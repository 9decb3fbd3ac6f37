package vtime

import (
	"container/heap"
	"time"

	"morphstreamr/internal/tpg"
)

// blockRef remembers which producer last pushed a consumer's ready time
// forward, and over which edge kind — the stall attribution the profiler
// reports. Only the binding (latest-finishing) producer is kept.
type blockRef struct {
	edge EdgeKind
	src  *tpg.OpNode
}

// SimulateGraphProf prices the replay of an already executed task
// precedence graph: it fires nothing, and walks a W-worker list schedule of
// the graph in virtual time instead.
//
// Chain ownership must be set (Chain.Owner); an operation runs on its
// chain's worker, starting no earlier than the virtual finish time of every
// dependency. Readiness comes from the edge lists (OpNode.Indegree), not
// from the pending counters, which the execution has used up; an aborted
// transaction's operations are read from Txn.Aborted, which the execution
// has settled. Stalls — a worker idle because its next operation waits on
// another worker's unfinished producer — accumulate in Clock.Stall, the
// quantity MorphStreamR's restructuring eliminates.
//
// A non-nil profiler receives one Op event per operation — start time,
// explore and busy cost, the stall-causing edge and blocking operation,
// and the operation's earliest finish on an unbounded machine (the
// critical-path bound). There is one loop: a nil profiler skips the
// critical-path and attribution bookkeeping and nothing else, so the
// schedule, and with it every virtual clock, is the same to the nanosecond
// with and without a profiler.
//
// The critical-path recurrence ef[n] = max(ef[producers]) + Explore + op
// cost deliberately excludes Sync charges: cross-worker synchronisation
// depends on chain ownership (the schedule), not the graph, so including
// it would make the "lower bound" depend on the very assignment being
// evaluated. Actual explore ≥ Explore always, so the bound stays valid.
func SimulateGraphProf(g *tpg.Graph, workers int, costs Costs, prof *Profiler) Result {
	clocks := make([]Clock, workers)
	if g.NumOps == 0 {
		return Finish(clocks)
	}
	ready := make([]opHeap, workers)

	// Per-operation state, indexed by OpNode.Pos (transaction order, which
	// also breaks ties deterministically).
	pending := make([]int32, g.NumOps)
	readyAt := make([]time.Duration, g.NumOps)
	var ef []time.Duration
	var blocked []blockRef
	if prof != nil {
		ef = make([]time.Duration, g.NumOps)
		blocked = make([]blockRef, g.NumOps)
	}
	for _, ch := range g.ChainList {
		for _, n := range ch.Ops {
			if pending[n.Pos] = n.Indegree(); pending[n.Pos] == 0 {
				heap.Push(&ready[ch.Owner], opItem{node: n, readyAt: 0})
			}
		}
	}

	remaining := g.NumOps
	for remaining > 0 {
		// Pick the worker whose next operation can start earliest.
		best, bestStart := -1, time.Duration(0)
		for w := range ready {
			if len(ready[w]) == 0 {
				continue
			}
			start := clocks[w].Now
			if ra := ready[w][0].readyAt; ra > start {
				start = ra
			}
			if best == -1 || start < bestStart {
				best, bestStart = w, start
			}
		}
		if best == -1 {
			// Every remaining operation is blocked: impossible for an
			// acyclic graph whose producers resolve on finish.
			panic("vtime: no runnable operations with work remaining (cyclic graph?)")
		}
		n := heap.Pop(&ready[best]).(opItem).node

		// Dependencies resolved across workers cost a synchronisation
		// round-trip each; same-worker resolution is free beyond the
		// regular explore overhead.
		explore := costs.Explore
		for _, src := range n.PDSrc {
			if src != nil && src.Chain.Owner != n.Chain.Owner {
				explore += costs.Sync
			}
		}
		if n.CondSrc != nil && n.CondSrc.Chain.Owner != n.Chain.Owner {
			explore += costs.Sync
		}
		cost := costs.Op + time.Duration(len(n.DepVals))*costs.PerDep
		aborted := n.Txn.Aborted()
		fin := clocks[best].Advance(bestStart, explore, cost, aborted)
		remaining--

		var efFin time.Duration
		if prof != nil {
			efFin = ef[n.Pos] + costs.Explore + cost
			ef[n.Pos] = efFin
			edge, blockerLabel := EdgeNone, ""
			if b := blocked[n.Pos]; b.src != nil {
				edge = b.edge
				blockerLabel = b.src.Ref()
			}
			prof.Op(best, n.Ref(), bestStart, explore, cost, aborted, edge, blockerLabel, efFin)
		}

		notify := func(d *tpg.OpNode, edge EdgeKind) {
			if fin > readyAt[d.Pos] {
				readyAt[d.Pos] = fin
				if prof != nil {
					blocked[d.Pos] = blockRef{edge: edge, src: n}
				}
			}
			if prof != nil && efFin > ef[d.Pos] {
				ef[d.Pos] = efFin
			}
			if pending[d.Pos]--; pending[d.Pos] == 0 {
				heap.Push(&ready[d.Chain.Owner], opItem{node: d, readyAt: readyAt[d.Pos]})
			}
		}
		if nx := n.ChainNext; nx != nil {
			notify(nx, EdgeTD)
		}
		for _, d := range n.LDOut {
			notify(d, EdgeLD)
		}
		for _, d := range n.PDOut {
			notify(d, EdgePD)
		}
	}
	return Finish(clocks)
}

// opItem orders a worker's ready operations by readiness time, then by
// transaction order (OpNode.Pos).
type opItem struct {
	node    *tpg.OpNode
	readyAt time.Duration
}

type opHeap []opItem

func (h opHeap) Len() int { return len(h) }
func (h opHeap) Less(i, j int) bool {
	if h[i].readyAt != h[j].readyAt {
		return h[i].readyAt < h[j].readyAt
	}
	return h[i].node.Pos < h[j].node.Pos
}
func (h opHeap) Swap(i, j int)   { h[i], h[j] = h[j], h[i] }
func (h *opHeap) Push(x any)     { *h = append(*h, x.(opItem)) }
func (h *opHeap) Pop() (out any) { old := *h; n := len(old); out = old[n-1]; *h = old[:n-1]; return }
