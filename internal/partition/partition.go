// Package partition provides the three placement algorithms the system
// needs:
//
//   - a static range partitioner mapping keys to data partitions, used by
//     workload generators to control the multi-partition transaction ratio
//     and by the runtime scheduler for locality;
//   - a greedy weighted graph partitioner (after Yao et al., used by
//     selective logging, Section VI-A1) that groups operation chains to
//     balance load while minimising the dependencies that cross groups;
//   - a greedy LPT (longest processing time first) task assigner used by
//     MorphStreamR's optimized task assignment during recovery
//     (Section V-B3).
package partition

import (
	"cmp"
	"container/heap"
	"slices"
	"sort"

	"morphstreamr/internal/types"
)

// Ranges maps keys to data partitions by dividing every table's row space
// into count contiguous ranges. Range partitioning (rather than hashing)
// matches how TSPEs shard state across executors and makes "multi-partition
// transaction" a property the generators can control exactly.
type Ranges struct {
	count int
	// rows is indexed by TableID, as store.Store's tables are: Of sits on
	// the route of every event and the owner check of every written key.
	// Undeclared tables have zero rows.
	rows []uint32
}

// NewRanges builds a range partitioner over the given tables.
func NewRanges(specs []types.TableSpec, count int) *Ranges {
	if count <= 0 {
		count = 1
	}
	r := &Ranges{count: count}
	for _, sp := range specs {
		if int(sp.ID) >= len(r.rows) {
			r.rows = append(r.rows, make([]uint32, int(sp.ID)+1-len(r.rows))...)
		}
		r.rows[sp.ID] = sp.Rows
	}
	return r
}

// rowsOf returns the declared size of table t, zero when undeclared.
func (r *Ranges) rowsOf(t types.TableID) uint32 {
	if int(t) >= len(r.rows) {
		return 0
	}
	return r.rows[t]
}

// Count returns the number of partitions.
func (r *Ranges) Count() int { return r.count }

// Of returns the partition of a key in [0, Count()). It is the exact
// inverse of the RowsIn tiling — the unique p with
// RowsIn(t,p).lo <= row < RowsIn(t,p).hi — for every table size, not just
// sizes divisible by the partition count: floor(row*count/rows) would
// drift below the tiling whenever rows%count != 0 and strand rows in a
// partition that doesn't own them (found by FuzzRangesOf). Rows at or
// beyond the table's end clamp into the last partition.
func (r *Ranges) Of(k types.Key) int {
	rows := r.rowsOf(k.Table)
	if rows == 0 {
		return 0
	}
	if k.Row >= rows {
		return r.count - 1
	}
	return int(((uint64(k.Row)+1)*uint64(r.count) - 1) / uint64(rows))
}

// RowsIn returns the half-open row range [lo, hi) of partition p for the
// given table, so generators can draw intra-partition keys directly.
func (r *Ranges) RowsIn(t types.TableID, p int) (lo, hi uint32) {
	rows := uint64(r.rowsOf(t))
	lo = uint32(rows * uint64(p) / uint64(r.count))
	hi = uint32(rows * uint64(p+1) / uint64(r.count))
	return lo, hi
}

// GraphVertex is one vertex of the chain graph handed to Greedy: a chain of
// state accesses with its operation-count weight and weighted edges to
// other vertices (the number of LDs and PDs connecting the two chains).
type GraphVertex struct {
	Weight int
	Edges  map[int]int // neighbour vertex index -> dependency count
}

// Greedy partitions the vertices into k groups, balancing total vertex
// weight while preferring to co-locate heavily connected vertices. It
// processes vertices in decreasing weight order and scores each candidate
// group by the dependency weight already co-located there minus a balance
// penalty proportional to the group's relative load.
//
// The returned slice maps vertex index to group in [0, k).
func Greedy(vertices []GraphVertex, k int) []int {
	if k <= 0 {
		k = 1
	}
	assign := make([]int, len(vertices))
	for i := range assign {
		assign[i] = -1
	}
	order := make([]int, len(vertices))
	total := 0
	for i := range vertices {
		order[i] = i
		total += vertices[i].Weight
	}
	sort.SliceStable(order, func(a, b int) bool {
		return vertices[order[a]].Weight > vertices[order[b]].Weight
	})
	load := make([]int, k)
	avg := float64(total)/float64(k) + 1
	for _, v := range order {
		bestGroup, bestScore := 0, -1e18
		for g := 0; g < k; g++ {
			gain := 0
			for nb, w := range vertices[v].Edges {
				if assign[nb] == g {
					gain += w
				}
			}
			// The balance penalty dominates once a group exceeds the
			// average load, matching the algorithm's stated goal of
			// near-equal workloads with reduced cut size.
			score := float64(gain) - 2*float64(load[g])/avg*float64(vertices[v].Weight+1)
			if score > bestScore {
				bestScore, bestGroup = score, g
			}
		}
		assign[v] = bestGroup
		load[bestGroup] += vertices[v].Weight
	}
	return assign
}

// GreedyAdj is the allocation-lean variant of Greedy used on the runtime
// hot path (selective logging partitions every epoch's chain graph). The
// graph is given as unweighted multi-edge adjacency lists: adj[v] holds one
// entry per dependency between v and the neighbour, so repeated entries
// carry the edge weight. Semantics match Greedy: vertices in decreasing
// weight order, each placed by co-location gain minus a balance penalty.
func GreedyAdj(weights []int, adj [][]int32, k int) []int {
	if k <= 0 {
		k = 1
	}
	n := len(weights)
	assign := make([]int, n)
	order := make([]int, n)
	total := 0
	for i := 0; i < n; i++ {
		assign[i] = -1
		order[i] = i
		total += weights[i]
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(weights[b], weights[a]) })
	load := make([]int, k)
	gain := make([]int, k)
	avg := float64(total)/float64(k) + 1
	for _, v := range order {
		for i := range gain {
			gain[i] = 0
		}
		for _, nb := range adj[v] {
			if g := assign[nb]; g >= 0 {
				gain[g]++
			}
		}
		bestGroup, bestScore := 0, -1e18
		for g := 0; g < k; g++ {
			score := float64(gain[g]) - 2*float64(load[g])/avg*float64(weights[v]+1)
			if score > bestScore {
				bestScore, bestGroup = score, g
			}
		}
		assign[v] = bestGroup
		load[bestGroup] += weights[v]
	}
	return assign
}

// CutWeight sums the edge weight crossing groups under an assignment:
// the number of dependencies selective logging must record.
func CutWeight(vertices []GraphVertex, assign []int) int {
	cut := 0
	for i := range vertices {
		for nb, w := range vertices[i].Edges {
			if nb > i && assign[nb] != assign[i] {
				cut += w
			}
		}
	}
	return cut
}

// Imbalance returns max group load divided by average group load (1.0 is
// perfect balance). Empty groups count as zero load.
func Imbalance(vertices []GraphVertex, assign []int, k int) float64 {
	load := make([]int, k)
	total := 0
	for i, g := range assign {
		load[g] += vertices[i].Weight
		total += vertices[i].Weight
	}
	if total == 0 {
		return 1
	}
	maxLoad := 0
	for _, l := range load {
		if l > maxLoad {
			maxLoad = l
		}
	}
	return float64(maxLoad) * float64(k) / float64(total)
}

// LPT assigns weighted tasks to workers using the longest-processing-time
// greedy rule: tasks in decreasing weight order, each to the currently
// least-loaded worker. Its makespan is within 4/3 of optimal, which is why
// the paper's optimized task assignment uses it. Returns the worker of
// each task.
func LPT(weights []int, workers int) []int {
	if workers <= 0 {
		workers = 1
	}
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })
	h := make(loadHeap, workers)
	for w := 0; w < workers; w++ {
		h[w] = workerLoad{worker: w}
	}
	heap.Init(&h)
	assign := make([]int, len(weights))
	for _, t := range order {
		least := h[0]
		assign[t] = least.worker
		least.load += weights[t]
		h[0] = least
		heap.Fix(&h, 0)
	}
	return assign
}

// Makespan returns the maximum per-worker load under an assignment.
func Makespan(weights []int, assign []int, workers int) int {
	load := make([]int, workers)
	for i, w := range assign {
		load[w] += weights[i]
	}
	m := 0
	for _, l := range load {
		if l > m {
			m = l
		}
	}
	return m
}

type workerLoad struct {
	worker int
	load   int
}

type loadHeap []workerLoad

func (h loadHeap) Len() int { return len(h) }
func (h loadHeap) Less(i, j int) bool {
	if h[i].load != h[j].load {
		return h[i].load < h[j].load
	}
	return h[i].worker < h[j].worker
}
func (h loadHeap) Swap(i, j int)   { h[i], h[j] = h[j], h[i] }
func (h *loadHeap) Push(x any)     { *h = append(*h, x.(workerLoad)) }
func (h *loadHeap) Pop() (out any) { old := *h; n := len(old); out = old[n-1]; *h = old[:n-1]; return }
