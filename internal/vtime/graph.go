package vtime

import (
	"container/heap"
	"time"

	"morphstreamr/internal/store"
	"morphstreamr/internal/tpg"
)

// SimulateGraph replays a task precedence graph: operations execute for
// real (via tpg.Fire, in a dependency-respecting order, so the store ends
// up exactly as a parallel execution would leave it) while a W-worker
// list schedule is simulated in virtual time.
//
// Chain ownership must already be set (Chain.Owner); an operation runs on
// its chain's worker, starting no earlier than the virtual finish time of
// every dependency. Stalls — a worker idle because its next operation
// waits on another worker's unfinished producer — accumulate in Clock.
// Stall, the quantity MorphStreamR's restructuring eliminates.
func SimulateGraph(g *tpg.Graph, st *store.Store, workers int, costs Costs) Result {
	return SimulateGraphProf(g, st, workers, costs, nil)
}

// blockRef remembers which producer last pushed a consumer's ready time
// forward, and over which edge kind — the stall attribution the profiler
// reports. Only the binding (latest-finishing) producer is kept.
type blockRef struct {
	edge EdgeKind
	src  *tpg.OpNode
}

// SimulateGraphProf is SimulateGraph with an attached profiler: it
// receives one Op event per fired operation — start time, explore and
// busy cost, the stall-causing edge and blocking operation, and the
// operation's earliest finish on an unbounded machine (the critical-path
// bound). There is one loop: a nil profiler skips the critical-path and
// attribution bookkeeping (two maps and a label per operation) and nothing
// else, so the schedule, and with it every virtual clock, is the same to
// the nanosecond with and without a profiler.
//
// The critical-path recurrence ef[n] = max(ef[producers]) + Explore + op
// cost deliberately excludes Sync charges: cross-worker synchronisation
// depends on chain ownership (the schedule), not the graph, so including
// it would make the "lower bound" depend on the very assignment being
// evaluated. Actual explore ≥ Explore always, so the bound stays valid.
func SimulateGraphProf(g *tpg.Graph, st *store.Store, workers int, costs Costs, prof *Profiler) Result {
	clocks := make([]Clock, workers)
	if g.NumOps == 0 {
		return Finish(clocks)
	}
	ready := make([]opHeap, workers)

	// Deterministic sequence numbers for tie-breaking.
	seq := make(map[*tpg.OpNode]int, g.NumOps)
	readyAt := make(map[*tpg.OpNode]time.Duration, g.NumOps)
	var ef map[*tpg.OpNode]time.Duration
	var blocked map[*tpg.OpNode]blockRef
	if prof != nil {
		ef = make(map[*tpg.OpNode]time.Duration, g.NumOps)
		blocked = make(map[*tpg.OpNode]blockRef, g.NumOps)
	}
	i := 0
	for _, tn := range g.Txns {
		for _, n := range tn.Ops {
			seq[n] = i
			i++
		}
	}
	for _, ch := range g.ChainList {
		for _, n := range ch.Ops {
			if n.Pending() == 0 {
				heap.Push(&ready[ch.Owner], opItem{node: n, readyAt: 0, seq: seq[n]})
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
		item := heap.Pop(&ready[best]).(opItem)
		n := item.node

		tpg.Fire(n, st)
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
			efFin = ef[n] + costs.Explore + cost
			ef[n] = efFin
			edge, blockerLabel := EdgeNone, ""
			if b, ok := blocked[n]; ok {
				edge = b.edge
				blockerLabel = b.src.Ref()
			}
			prof.Op(best, n.Ref(), bestStart, explore, cost, aborted, edge, blockerLabel, efFin)
		}

		notify := func(d *tpg.OpNode, edge EdgeKind) {
			if fin > readyAt[d] {
				readyAt[d] = fin
				if prof != nil {
					blocked[d] = blockRef{edge: edge, src: n}
				}
			}
			if prof != nil && efFin > ef[d] {
				ef[d] = efFin
			}
			if d.AddPending(-1) == 0 {
				heap.Push(&ready[d.Chain.Owner], opItem{node: d, readyAt: readyAt[d], seq: seq[d]})
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
// deterministic sequence.
type opItem struct {
	node    *tpg.OpNode
	readyAt time.Duration
	seq     int
}

type opHeap []opItem

func (h opHeap) Len() int { return len(h) }
func (h opHeap) Less(i, j int) bool {
	if h[i].readyAt != h[j].readyAt {
		return h[i].readyAt < h[j].readyAt
	}
	return h[i].seq < h[j].seq
}
func (h opHeap) Swap(i, j int)   { h[i], h[j] = h[j], h[i] }
func (h *opHeap) Push(x any)     { *h = append(*h, x.(opItem)) }
func (h *opHeap) Pop() (out any) { old := *h; n := len(old); out = old[n-1]; *h = old[:n-1]; return }
