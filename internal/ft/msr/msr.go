// Package msr implements MorphStreamR, the paper's contribution: instead
// of recording inter-transaction dependencies (DL's edges, LV's vectors),
// the Logging Manager records the intermediate results of dependencies the
// scheduler has already resolved — the AbortView (which transactions
// aborted) and the ParametricView (which value each parametric dependency
// consumed). During recovery these results eliminate logical and
// parametric dependencies outright, so operations restructure into
// independent per-key chains that replay in parallel without lock
// contention (Section V).
//
// Runtime cost is kept low by two mechanisms from Section VI:
//
//   - Selective logging: chains are grouped by a greedy weighted graph
//     partitioning; only dependencies crossing group boundaries — the ones
//     that would force cross-thread communication during recovery — are
//     logged. Intra-group dependencies are re-resolved during recovery by
//     the single worker owning the group (shadow-based exploration).
//   - Workload-aware log commitment: the engine's commit-epoch length is
//     chosen from profiled contention (see Advisor), trading group-commit
//     batching against view-index size and runtime load balance.
package msr

import (
	"slices"

	"morphstreamr/internal/codec"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/metrics"
	"morphstreamr/internal/partition"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/tpg"
	"morphstreamr/internal/types"
)

// Options selects MorphStreamR's logging behaviour and recovery
// optimizations. The zero value disables everything (the paper's "Simple"
// factor-analysis configuration); Default enables everything.
type Options struct {
	// SelectiveLogging records only dependencies that cross chain-group
	// boundaries (Section VI-A). Off = log every resolved dependency.
	SelectiveLogging bool
	// OpRestructure resolves parametric dependencies from the
	// ParametricView during recovery (Section V-B2).
	OpRestructure bool
	// AbortPushdown discards input events of aborted transactions before
	// preprocessing during recovery (Section V-B1).
	AbortPushdown bool
	// OptTaskAssign uses LPT greedy task assignment during recovery
	// (Section V-B3); off = hash assignment.
	OptTaskAssign bool
}

// Default returns the full MorphStreamR configuration.
func Default() Options {
	return Options{
		SelectiveLogging: true,
		OpRestructure:    true,
		AbortPushdown:    true,
		OptTaskAssign:    true,
	}
}

// repartitionEvery controls how often selective logging recomputes the
// chain-group partitioning. Workload shape drifts slowly, so the groups of
// recently seen keys stay valid across epochs; recovery is insensitive to
// the choice because it classifies by view-entry presence, not by
// recomputing groups. Keys not covered by the cached partitioning are
// conservatively treated as inter-group (logged).
const repartitionEvery = 8

// Mech is the MorphStreamR mechanism.
type Mech struct {
	ftapi.GroupCommitter
	opts Options

	// groups is the cached chain-group partitioning, keyed by chain key and
	// holding group+1 so that zero — a key the partitioning never saw —
	// reads as "no group". groupCooldown counts the epochs it stays valid.
	groups        types.Dense[uint16]
	groupCooldown int

	// Per-epoch scratch, indexed by chain position (tpg.Chain.Pos) and
	// reused across epochs: the cached group+1 of each chain of the epoch
	// being sealed, and whether recovery must co-locate it. views is the
	// record under construction; it is encoded before SealEpoch returns.
	chainGroup []uint16
	needGroup  []bool
	views      codec.MSRViews
	// PartitionChains' chain graph, rebuilt in place (see there).
	weights, start []int
	ends, nbrs     []int32
	adj            [][]int32
}

// New creates the MSR mechanism writing to dev, accounting into bytes.
func New(dev storage.Device, bytes *metrics.Bytes, opts Options) *Mech {
	return &Mech{
		GroupCommitter: ftapi.NewGroupCommitter(dev, bytes, "msr-views", "msr-log"),
		opts:           opts,
	}
}

// Kind implements ftapi.Mechanism.
func (m *Mech) Kind() ftapi.Kind { return ftapi.MSR }

// Options returns the mechanism's configuration.
func (m *Mech) Options() Options { return m.opts }

// SealEpoch implements ftapi.Mechanism: it collects the epoch's AbortView
// and ParametricView. Under selective logging it first partitions the
// epoch's chains with the greedy graph partitioner and records only the
// parametric results whose edges cross groups.
func (m *Mech) SealEpoch(ep *ftapi.EpochResult) {
	g := ep.Graph
	views := &m.views
	views.Aborted, views.Parametric, views.Groups = views.Aborted[:0], views.Parametric[:0], views.Groups[:0]
	selective := m.opts.SelectiveLogging
	if selective {
		if m.groupCooldown <= 0 {
			m.groups.Reset()
			for i, group := range m.PartitionChains(g, ep.Workers) {
				*m.groups.Slot(g.ChainList[i].Key) = uint16(group) + 1
			}
			m.groupCooldown = repartitionEvery
		}
		m.groupCooldown--
		// Resolve each chain's cached group once, in key order, so the
		// per-edge classification below is two slice reads. Keys the cached
		// partitioning has not seen read zero: inter-group (logged).
		m.chainGroup = m.chainGroup[:0]
		for _, ch := range g.ChainList {
			m.chainGroup = append(m.chainGroup, m.groups.Get(ch.Key))
		}
		// needGroup collects the chains recovery must co-locate: the
		// endpoints of parametric dependencies deliberately left unlogged.
		// Logical dependencies never need co-location — the AbortView
		// always carries the full abort verdicts.
		m.needGroup = append(m.needGroup[:0], make([]bool, len(g.ChainList))...)
	}
	anyNeed := false
	for _, tn := range g.Txns {
		if tn.Aborted() {
			views.Aborted = append(views.Aborted, tn.Txn.ID)
		}
		for _, opn := range tn.Ops {
			for i, src := range opn.PDSrc {
				if src == nil {
					continue
				}
				if selective {
					from, to := src.Chain.Pos, opn.Chain.Pos
					if gf := m.chainGroup[from]; gf != 0 && gf == m.chainGroup[to] {
						// Intra-group: shadow-resolved during recovery by
						// the worker owning both chains.
						m.needGroup[from], m.needGroup[to] = true, true
						anyNeed = true
						continue
					}
				}
				views.Parametric = append(views.Parametric, codec.ViewEntry{
					From:  opn.Op.Deps[i],
					To:    opn.Op.Key,
					TS:    opn.Op.TS,
					Value: opn.DepVals[i],
				})
			}
		}
	}
	// Persist the group of every co-location-relevant chain, in chain
	// (key) order: the group map is itself an intermediate result of the
	// resolved classification.
	if anyNeed {
		for i, need := range m.needGroup {
			if need {
				views.Groups = append(views.Groups, codec.GroupEntry{Key: g.ChainList[i].Key, Group: uint8(m.chainGroup[i] - 1)})
			}
		}
	}
	m.SealInto(ep.Epoch, func(w *codec.Buffer) { codec.EncodeMSRInto(w, *views) })
}

// GC implements ftapi.Mechanism; views live only until their covering
// commit, so there is nothing left to drop.
func (m *Mech) GC(uint64) {}

// PartitionChains groups an epoch's chains into k groups with the greedy
// weighted graph partitioner: chain weight is its operation count, edge
// weight the number of logical plus parametric dependencies between two
// chains. The result holds the group of each chain by its position in
// g.ChainList. It is deterministic in the graph, which recovery relies on
// to reproduce the runtime classification. The chain graph is built in m's
// scratch, so calls must not overlap.
func (m *Mech) PartitionChains(g *tpg.Graph, k int) []int {
	n := len(g.ChainList)
	m.weights = m.weights[:0]
	for _, ch := range g.ChainList {
		m.weights = append(m.weights, len(ch.Ops))
	}
	// Every cross-chain dependency as a pair of chain positions, counting
	// degrees, then the adjacency lists as windows of one buffer.
	ends, start := m.ends[:0], append(m.start[:0], make([]int, n+1)...)
	edge := func(a, b *tpg.Chain) {
		if a != b {
			ends = append(ends, int32(a.Pos), int32(b.Pos))
			start[a.Pos+1]++
			start[b.Pos+1]++
		}
	}
	for _, tn := range g.Txns {
		for _, opn := range tn.Ops {
			if opn.CondSrc != nil {
				edge(opn.CondSrc.Chain, opn.Chain)
			}
			for _, src := range opn.PDSrc {
				if src != nil {
					edge(src.Chain, opn.Chain)
				}
			}
		}
	}
	for v := 1; v <= n; v++ {
		start[v] += start[v-1]
	}
	nbrs := slices.Grow(m.nbrs[:0], len(ends))
	adj := slices.Grow(m.adj[:0], n)[:n]
	for v := range adj {
		adj[v] = nbrs[start[v]:start[v]:start[v+1]]
	}
	for i := 0; i < len(ends); i += 2 {
		a, b := ends[i], ends[i+1]
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	m.ends, m.start, m.nbrs, m.adj = ends, start, nbrs, adj
	return partition.GreedyAdj(m.weights, adj, k)
}
