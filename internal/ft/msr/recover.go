package msr

import (
	"fmt"
	"time"

	"morphstreamr/internal/codec"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/partition"
	"morphstreamr/internal/scheduler"
	"morphstreamr/internal/tpg"
	"morphstreamr/internal/types"
	"morphstreamr/internal/vtime"
)

// viewKey addresses one ParametricView entry: the (From_key, To_key) pair
// of Figure 5 plus the consuming operation's timestamp.
type viewKey struct {
	From types.Key
	To   types.Key
	TS   uint64
}

// Recover implements ftapi.Mechanism. The protocol follows Figure 7:
// construct the intermediate-result indexes from the log records, then
// replay each committed epoch's input events with abort pushdown,
// operation restructuring, and optimized task assignment applied.
func (m *Mech) Recover(rc *ftapi.RecoveryContext) (uint64, error) {
	costs := rc.Costs
	// Reload the view log. Views stay segmented per commit group: each
	// group commits (and was group-committed) atomically, so its epochs
	// replay as one merged batch. Longer log commitment epochs therefore
	// hand recovery larger batches — more chains to balance, fewer
	// scheduling rounds — which is the recovery-side benefit the
	// workload-aware commitment of Section VI-B trades against runtime
	// overhead. A torn tail record (the group commit the device died
	// inside) is discarded whole; its epochs reprocess through the
	// engine's uncommitted-tail path.
	decoded, committed, err := ftapi.ReadCommitted(rc, codec.DecodeMSR)
	if err != nil {
		return 0, fmt.Errorf("msr: recover: %w", err)
	}
	type commitGroup struct {
		lo, hi uint64
		views  codec.MSRViews
		epochs map[uint64]bool
	}
	entries := 0
	var merged []commitGroup
	for _, dg := range decoded {
		cg := commitGroup{lo: dg.Lo, hi: dg.Hi, epochs: make(map[uint64]bool, len(dg.Epochs))}
		for _, ep := range dg.Epochs {
			views := ep.Recs
			cg.views.Aborted = append(cg.views.Aborted, views.Aborted...)
			cg.views.Parametric = append(cg.views.Parametric, views.Parametric...)
			cg.views.Groups = append(cg.views.Groups, views.Groups...)
			cg.epochs[ep.Epoch] = true
			entries += len(views.Aborted) + len(views.Parametric) + len(views.Groups)
		}
		merged = append(merged, cg)
	}
	// Decoding the (selectively small) view entries is part of reload;
	// group segments decode independently, so the work parallelizes.
	rc.Spread("view-decode", &rc.Breakdown.Reload, time.Duration(entries)*costs.Record)

	inputs := rc.InputsThrough(committed)
	for _, cg := range merged {
		batch := ftapi.EpochEvents{Epoch: cg.hi}
		covered := 0
		for _, ee := range inputs {
			if ee.Epoch >= cg.lo && ee.Epoch <= cg.hi {
				if !cg.epochs[ee.Epoch] {
					return 0, fmt.Errorf("msr: recover: no views for committed epoch %d", ee.Epoch)
				}
				batch.Events = append(batch.Events, ee.Events...)
				covered++
			}
		}
		if covered != len(cg.epochs) {
			return 0, fmt.Errorf("msr: recover: inputs missing for commit group %d-%d", cg.lo, cg.hi)
		}
		if err := m.replayEpoch(rc, batch, cg.views); err != nil {
			return 0, fmt.Errorf("msr: recover group %d-%d: %w", cg.lo, cg.hi, err)
		}
	}
	return committed, nil
}

// replayEpoch replays one committed epoch under the configured recovery
// optimizations. Outputs are suppressed: they were delivered before the
// crash (the epoch is committed).
func (m *Mech) replayEpoch(rc *ftapi.RecoveryContext, ee ftapi.EpochEvents, views codec.MSRViews) error {
	costs := rc.Costs
	// Index the views (Figure 7 step 3: construct intermediate results).
	abortSet := make(map[uint64]struct{}, len(views.Aborted))
	for _, id := range views.Aborted {
		abortSet[id] = struct{}{}
	}
	pview := make(map[viewKey]types.Value, len(views.Parametric))
	for _, e := range views.Parametric {
		pview[viewKey{From: e.From, To: e.To, TS: e.TS}] = e.Value
	}
	// The persisted chain-group map: the selective-logging contract says
	// every unlogged dependency is intra-group, so co-locating each
	// group's chains on one worker makes all surviving edges local.
	var groups map[types.Key]int
	if len(views.Groups) > 0 {
		groups = make(map[types.Key]int, len(views.Groups))
		for _, e := range views.Groups {
			groups[e.Key] = int(e.Group)
		}
	}
	rc.Spread("index", &rc.Breakdown.Construct, time.Duration(len(views.Aborted)+len(views.Parametric)+len(views.Groups))*costs.Record)

	// Abort pushdown (Figure 7 step 5): discard doomed input events before
	// preprocessing, eliminating their whole pipeline cost.
	events := ee.Events
	if m.opts.AbortPushdown && len(abortSet) > 0 {
		kept := make([]types.Event, 0, len(events))
		for _, ev := range events {
			if _, doomed := abortSet[ev.Seq]; doomed {
				continue
			}
			kept = append(kept, ev)
		}
		events = kept
		// One AbortView probe per input event.
		rc.Spread("abort-scan", &rc.Breakdown.Abort, time.Duration(len(ee.Events))*costs.Lookup)
	}

	g := tpg.BuildEvents(rc.App, events, rc.Store.Get)
	rc.Spread("build", &rc.Breakdown.Construct, costs.GraphCost(len(events), g.NumOps))

	// Operation restructuring (Figure 7 step 6): inject recorded
	// intermediate results to sever parametric edges, and — when abort
	// pushdown guarantees every remaining transaction commits — sever
	// logical edges too. A ParametricView entry's presence *is* the
	// selective-logging classification: inter-group resolutions were
	// logged, intra-group ones were not and keep their edges, which
	// shadow exploration resolves locally (the consumer's chain is
	// co-located with the producer's by task assignment below).
	severed := 0
	if m.opts.OpRestructure {
		for _, tn := range g.Txns {
			for _, opn := range tn.Ops {
				for i, src := range opn.PDSrc {
					if src == nil {
						continue
					}
					vk := viewKey{From: opn.Op.Deps[i], To: opn.Op.Key, TS: opn.Op.TS}
					v, ok := pview[vk]
					if !ok {
						continue // intra-group: not logged, resolve in place
					}
					opn.DepVals[i] = v
					unlinkPD(src, opn, i)
					severed++
				}
			}
		}
	}
	if m.opts.AbortPushdown {
		for _, tn := range g.Txns {
			cond := tn.Ops[0]
			for _, d := range cond.LDOut {
				d.CondSrc = nil
				d.AddPending(-1)
				severed++
			}
			cond.LDOut = nil
		}
	}

	// Replay the restructured graph for real on the engine's executor.
	if err := rc.Execute(ee.Epoch, g); err != nil {
		return err
	}
	if costs.IsZero() {
		return nil
	}

	// Task assignment (Figure 7 step 7): co-locate each logged group's
	// chains (their surviving dependencies are intra-group by the
	// selective-logging contract) and spread tasks by LPT. It runs after
	// execution, whose executor labels chains with its own assignment, and
	// only for the walk, which schedules by the owners it sets.
	assignChains(g, groups, rc.Workers, m.opts.OptTaskAssign)
	rc.Spread("restructure", &rc.Breakdown.Construct,
		time.Duration(severed)*costs.Lookup+time.Duration(len(g.ChainList))*costs.Compare)

	// Price the replay on W virtual workers (see package vtime):
	// restructured chains carry no cross-worker edges, so workers run
	// stall-free; whatever dependencies survive (intra-group shadow
	// resolution, or everything under the Simple configuration) show up
	// as stalls.
	rc.Prof.BeginPhase("replay")
	result := vtime.SimulateGraphProf(g, rc.Workers, costs, rc.Prof)
	rc.Prof.EndPhase(result.Makespan)
	result.Charge(rc.Breakdown, false)
	return nil
}

// unlinkPD severs the parametric edge src -> (consumer, depIndex): the
// consumer's value now comes from the ParametricView, so the producer must
// no longer notify it (a stale notification would double-decrement the
// consumer's pending count).
func unlinkPD(src, consumer *tpg.OpNode, depIndex int) {
	consumer.PDSrc[depIndex] = nil
	for i, d := range src.PDOut {
		if d == consumer {
			src.PDOut = append(src.PDOut[:i], src.PDOut[i+1:]...)
			break
		}
	}
	consumer.AddPending(-1)
}

// assignChains sets every chain's owner for the replay run.
//
// With optimized task assignment and a persisted group map (selective
// logging), each group becomes one task: the partitioner already balanced
// the groups, and the logging contract guarantees unlogged dependencies
// stay inside them, so co-location makes every surviving edge local.
// Without a group map (full logging severed everything), chains still
// connected by surviving dependencies are grouped via union-find and
// spread by LPT on operation-count weights — with components exceeding a
// worker's fair share hash-spread instead, so a straggler component
// degrades to cross-worker resolution rather than serialising the replay.
// Without optimized assignment, chains fall back to hash placement — the
// runtime default, which skewed workloads punish.
func assignChains(g *tpg.Graph, groups map[types.Key]int, workers int, opt bool) {
	if !opt {
		hash := scheduler.HashAssign(workers)
		for _, ch := range g.ChainList {
			ch.Owner = hash(ch)
		}
		return
	}
	if groups != nil {
		weights := make([]int, workers)
		for _, ch := range g.ChainList {
			if t, ok := groups[ch.Key]; ok && t < workers {
				weights[t] += len(ch.Ops)
			}
		}
		taskWorker := partition.LPT(weights, workers)
		hash := scheduler.HashAssign(workers)
		for _, ch := range g.ChainList {
			if t, ok := groups[ch.Key]; ok && t < workers {
				ch.Owner = taskWorker[t]
			} else {
				// Chains the runtime classified after the cached
				// partitioning: their dependencies were logged (treated
				// as inter-group), so placement is unconstrained.
				ch.Owner = hash(ch)
			}
		}
		return
	}
	// Union chains along surviving LD/PD edges.
	uf := newUnionFind(len(g.ChainList))
	for _, tn := range g.Txns {
		for _, opn := range tn.Ops {
			if opn.CondSrc != nil {
				uf.union(opn.CondSrc.Chain.Pos, opn.Chain.Pos)
			}
			for _, src := range opn.PDSrc {
				if src != nil {
					uf.union(src.Chain.Pos, opn.Chain.Pos)
				}
			}
		}
	}
	// Tasks = connected components, weighted by operation count.
	taskOf := make(map[int]int)
	var weights []int
	taskIdx := make([]int, len(g.ChainList))
	total := 0
	for i, ch := range g.ChainList {
		root := uf.find(i)
		t, ok := taskOf[root]
		if !ok {
			t = len(weights)
			taskOf[root] = t
			weights = append(weights, 0)
		}
		weights[t] += len(ch.Ops)
		taskIdx[i] = t
		total += len(ch.Ops)
	}
	// A component larger than a worker's fair share would serialise the
	// replay if co-located; split it across workers by hash instead. Its
	// internal dependencies then resolve across threads — slower, but
	// parallel — exactly the graceful degradation a straggler needs.
	fair := total/workers + 1
	oversized := make([]bool, len(weights))
	for t, w := range weights {
		if w > fair+fair/4 {
			oversized[t] = true
			weights[t] = 0 // its chains leave the LPT pool
		}
	}
	taskWorker := partition.LPT(weights, workers)
	hash := scheduler.HashAssign(workers)
	for i, ch := range g.ChainList {
		if oversized[taskIdx[i]] {
			ch.Owner = hash(ch)
		} else {
			ch.Owner = taskWorker[taskIdx[i]]
		}
	}
}

// unionFind is a plain weighted-union, path-halving disjoint set.
type unionFind struct {
	parent []int
	rank   []int8
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int, n), rank: make([]int8, n)}
	for i := range u.parent {
		u.parent[i] = i
	}
	return u
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}
