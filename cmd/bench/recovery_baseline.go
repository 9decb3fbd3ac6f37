package main

import (
	"container/heap"
	"fmt"
	"runtime"
	"sort"
	"time"

	"morphstreamr/internal/scheduler"
	"morphstreamr/internal/store"
	"morphstreamr/internal/tpg"
	"morphstreamr/internal/types"
	"morphstreamr/internal/vtime"
	"morphstreamr/internal/workload"
)

// simulateBaseline is a frozen replica of the list scheduler as it was
// before the profiler instrumentation landed: no profiler parameter, no
// nil checks, no critical-path bookkeeping. It exists purely as the
// overhead yardstick — measuring vtime.SimulateGraph (the shipped
// profiling-off path) against this replica on identical graphs isolates
// exactly what the instrumentation costs when profiling is off. Keep it
// in lockstep with the un-profiled branches of vtime.SimulateGraphProf.
func simulateBaseline(g *tpg.Graph, st *store.Store, workers int, costs vtime.Costs) vtime.Result {
	clocks := make([]vtime.Clock, workers)
	if g.NumOps == 0 {
		return vtime.Finish(clocks)
	}
	ready := make([]baseHeap, workers)
	seq := make(map[*tpg.OpNode]int, g.NumOps)
	readyAt := make(map[*tpg.OpNode]time.Duration, g.NumOps)
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
				heap.Push(&ready[ch.Owner], baseItem{node: n, readyAt: 0, seq: seq[n]})
			}
		}
	}
	remaining := g.NumOps
	for remaining > 0 {
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
			panic("recoverytrace: no runnable operations with work remaining")
		}
		item := heap.Pop(&ready[best]).(baseItem)
		n := item.node

		tpg.Fire(n, st)
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
		fin := clocks[best].Advance(bestStart, explore, cost, n.Txn.Aborted())
		remaining--

		resolve := func(d *tpg.OpNode) {
			if fin > readyAt[d] {
				readyAt[d] = fin
			}
			if d.AddPending(-1) == 0 {
				heap.Push(&ready[d.Chain.Owner], baseItem{node: d, readyAt: readyAt[d], seq: seq[d]})
			}
		}
		if nx := n.ChainNext; nx != nil {
			resolve(nx)
		}
		for _, d := range n.LDOut {
			resolve(d)
		}
		for _, d := range n.PDOut {
			resolve(d)
		}
	}
	return vtime.Finish(clocks)
}

type baseItem struct {
	node    *tpg.OpNode
	readyAt time.Duration
	seq     int
}

type baseHeap []baseItem

func (h baseHeap) Len() int { return len(h) }
func (h baseHeap) Less(i, j int) bool {
	if h[i].readyAt != h[j].readyAt {
		return h[i].readyAt < h[j].readyAt
	}
	return h[i].seq < h[j].seq
}
func (h baseHeap) Swap(i, j int)   { h[i], h[j] = h[j], h[i] }
func (h *baseHeap) Push(x any)     { *h = append(*h, x.(baseItem)) }
func (h *baseHeap) Pop() (out any) { old := *h; n := len(old); out = old[n-1]; *h = old[:n-1]; return }

// buildSimGraph constructs a deterministic StreamLedger TPG for the
// overhead A/B: Fire mutates pending counts and the store, so every
// simulation run gets a fresh graph built from the identical stream.
func buildSimGraph(events, workers int) (*tpg.Graph, *store.Store) {
	gen := workload.NewSL(workload.DefaultSLParams())
	st := store.New(gen.App().Tables())
	batch := workload.Batch(gen, events)
	txns := make([]*types.Txn, len(batch))
	for i := range batch {
		txn := gen.App().Preprocess(batch[i])
		txns[i] = &txn
	}
	g := tpg.Build(txns, st.Get)
	assign := scheduler.HashAssign(workers)
	for _, ch := range g.ChainList {
		ch.Owner = assign(ch)
	}
	return g, st
}

// measureOffOverhead times the shipped profiling-off simulator against the
// frozen baseline replica on identical graphs and cross-checks that both
// schedulers agree on the makespan (they run the same algorithm).
//
// Estimator: the two variants run as adjacent pairs (order alternating,
// heap collected before each timed section), each pair yields a
// shipped/baseline ratio, and the median ratio is reported. Single-shot
// comparisons of two ~5ms functions swing several percent either way from
// per-instance noise (map hash seeds, allocation placement, scheduler
// preemption); pairing keeps process conditions adjacent and the median
// discards the tails, which is what makes a 2% budget checkable at all.
// The reported baseline is the minimum sample; off is baseline scaled by
// the median ratio, so the recorded pair is consistent with the verdict.
func measureOffOverhead(events, workers, repeat int, costs vtime.Costs) (baseline, off time.Duration, err error) {
	timed := func(shipped bool) (time.Duration, time.Duration) {
		g, st := buildSimGraph(events, workers)
		runtime.GC()
		t0 := time.Now()
		var r vtime.Result
		if shipped {
			r = vtime.SimulateGraph(g, st, workers, costs)
		} else {
			r = simulateBaseline(g, st, workers, costs)
		}
		return time.Since(t0), r.Makespan
	}
	ratios := make([]float64, 0, repeat)
	for i := 0; i < repeat; i++ {
		shippedFirst := i%2 == 0
		da, ma := timed(shippedFirst)
		db, mb := timed(!shippedFirst)
		if ma != mb {
			return 0, 0, fmt.Errorf("baseline and shipped makespans differ (%v vs %v): replica out of sync", ma, mb)
		}
		ds, dbase := da, db
		if !shippedFirst {
			ds, dbase = db, da
		}
		ratios = append(ratios, float64(ds)/float64(dbase))
		if i == 0 || dbase < baseline {
			baseline = dbase
		}
	}
	sort.Float64s(ratios)
	med := ratios[len(ratios)/2]
	if len(ratios)%2 == 0 {
		med = (med + ratios[len(ratios)/2-1]) / 2
	}
	off = time.Duration(float64(baseline) * med)
	return baseline, off, nil
}
