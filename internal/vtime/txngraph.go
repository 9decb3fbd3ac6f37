package vtime

import (
	"container/heap"
	"strconv"
	"time"
)

// TxnGraph is a transaction-level precedence graph for virtual replay —
// the shape DL rebuilds from its log, and the shape LV's vectors encode
// implicitly. Nodes are identified by index.
type TxnGraph struct {
	// Out[i] lists the nodes depending on i; Indegree[i] counts i's
	// unresolved dependencies.
	Out      [][]int32
	Indegree []int32
	// Cost[i] and Explore[i] are node i's virtual execution and scheduling
	// charges; Aborted[i] reports whether it aborted when it ran.
	Cost, Explore []time.Duration
	Aborted       []bool
}

// SimulateTxnGraphProf prices the replay of an already executed
// transaction graph on W virtual workers with greedy earliest-start list
// scheduling: any free worker takes the longest-ready transaction.
// Parallelism is bounded by the graph itself — the paper's point about
// dependency-logging recovery being limited to the workload's inherent
// parallelism.
//
// label names node i for the profiler's timeline (nil falls back to
// "t<i>"). Unlike the operation-level walk, a transaction node's explore
// charge here is schedule-independent (DL prices its logged indegree), so
// the critical-path recurrence includes it in full.
func SimulateTxnGraphProf(g *TxnGraph, workers int, prof *Profiler, label func(i int32) string) Result {
	clocks := make([]Clock, workers)
	n := len(g.Indegree)
	if n == 0 {
		return Finish(clocks)
	}
	readyAt := make([]time.Duration, n)
	var efReady []time.Duration // max producer ef per node
	var blockedBy []int32       // binding producer per node (-1 = none)
	if prof != nil {
		efReady = make([]time.Duration, n)
		blockedBy = make([]int32, n)
		for i := range blockedBy {
			blockedBy[i] = -1
		}
		if label == nil {
			label = func(i int32) string { return "t" + strconv.Itoa(int(i)) }
		}
	}
	var ready txnHeap
	for i := 0; i < n; i++ {
		if g.Indegree[i] == 0 {
			heap.Push(&ready, txnItem{idx: int32(i), readyAt: 0})
		}
	}
	done := 0
	for done < n {
		if len(ready) == 0 {
			panic("vtime: no ready transactions with work remaining (cyclic log?)")
		}
		item := heap.Pop(&ready).(txnItem)
		// Earliest-available worker takes the transaction.
		best := 0
		for w := 1; w < workers; w++ {
			if clocks[w].Now < clocks[best].Now {
				best = w
			}
		}
		start := item.readyAt
		if clocks[best].Now > start {
			start = clocks[best].Now
		}
		cost, explore, aborted := g.Cost[item.idx], g.Explore[item.idx], g.Aborted[item.idx]
		fin := clocks[best].Advance(start, explore, cost, aborted)
		done++
		var efFin time.Duration
		if prof != nil {
			efFin = efReady[item.idx] + explore + cost
			edge, blocker := EdgeNone, ""
			if b := blockedBy[item.idx]; b >= 0 {
				edge, blocker = EdgeTxn, label(b)
			}
			prof.Op(best, label(item.idx), start, explore, cost, aborted, edge, blocker, efFin)
		}
		for _, j := range g.Out[item.idx] {
			if fin > readyAt[j] {
				readyAt[j] = fin
				if prof != nil {
					blockedBy[j] = item.idx
				}
			}
			if prof != nil && efFin > efReady[j] {
				efReady[j] = efFin
			}
			g.Indegree[j]--
			if g.Indegree[j] == 0 {
				heap.Push(&ready, txnItem{idx: j, readyAt: readyAt[j]})
			}
		}
	}
	return Finish(clocks)
}

type txnItem struct {
	idx     int32
	readyAt time.Duration
}

type txnHeap []txnItem

func (h txnHeap) Len() int { return len(h) }
func (h txnHeap) Less(i, j int) bool {
	if h[i].readyAt != h[j].readyAt {
		return h[i].readyAt < h[j].readyAt
	}
	return h[i].idx < h[j].idx
}
func (h txnHeap) Swap(i, j int)   { h[i], h[j] = h[j], h[i] }
func (h *txnHeap) Push(x any)     { *h = append(*h, x.(txnItem)) }
func (h *txnHeap) Pop() (out any) { old := *h; n := len(old); out = old[n-1]; *h = old[:n-1]; return }
