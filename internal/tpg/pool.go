package tpg

import "morphstreamr/internal/types"

// arena is a chunked bump allocator. take hands out pointers into large
// backing slices (so they stay valid forever), and rewind makes every slot
// reusable without freeing the chunks — the caller is responsible for
// resetting a recycled slot before use.
type arena[T any] struct {
	chunks [][]T
	ci     int // current chunk
	i      int // next index within it
	slots  int // total slots over all chunks
}

// arenaMinChunk bounds a chunk from below, so a run of small epochs does
// not grow an arena one sliver at a time.
const arenaMinChunk = 256

// reserve makes room for n more takes, adding at most one chunk: exactly
// the shortfall (a fresh graph that knows its epoch's size allocates it
// once, where doubling chunks overshot by up to half), or arenaMinChunk if
// that is more.
func (a *arena[T]) reserve(n int) {
	for ci, i := a.ci, a.i; ci < len(a.chunks); ci, i = ci+1, 0 {
		n -= len(a.chunks[ci]) - i
	}
	if n > 0 {
		n = max(n, arenaMinChunk)
		a.chunks = append(a.chunks, make([]T, n))
		a.slots += n
	}
}

func (a *arena[T]) take() *T {
	for a.ci == len(a.chunks) || a.i == len(a.chunks[a.ci]) {
		if a.ci == len(a.chunks) {
			a.reserve(max(1, a.slots)) // nothing reserved ahead: double
			continue
		}
		a.ci++
		a.i = 0
	}
	p := &a.chunks[a.ci][a.i]
	a.i++
	return p
}

func (a *arena[T]) rewind() {
	a.ci, a.i = 0, 0
}

// slab carves the graph's many small slices — a transaction's node list, a
// node's dependency sources and values, a chain's first links — out of
// large backing arrays, so a fresh graph allocates per chunk instead of
// per node. Carved memory is never handed out twice: a recycled node or
// chain keeps the slice it was given (and whatever it grew into) and
// carves again only when it needs more than it has.
type slab[T any] struct {
	free  []T
	chunk int // size of the last chunk allocated
}

// Chunks double from slabMinChunk to slabMaxChunk, so a fresh graph over a
// handful of transactions does not pay for thousands of slots.
const (
	slabMinChunk = 256
	slabMaxChunk = 4096
)

// carve returns a zeroed slice of length n and capacity c >= n.
func (s *slab[T]) carve(n, c int) []T {
	if len(s.free) < c {
		s.chunk = min(max(2*s.chunk, slabMinChunk), slabMaxChunk)
		s.free = make([]T, max(c, s.chunk))
	}
	out := s.free[:n:c]
	s.free = s.free[c:]
	return out
}

// push appends v to list. A full list moves to a fresh carving of room
// elements, or twice its length if that is more, so lists grow out of the
// slab too.
func (s *slab[T]) push(list []T, v T, room int) []T {
	if len(list) == cap(list) {
		list = append(s.carve(0, max(room, 2*len(list))), list...)
	}
	return append(list, v)
}

// resize returns old with length n and zeroed content when it has the
// capacity, a fresh carving otherwise.
func (s *slab[T]) resize(old []T, n int) []T {
	if cap(old) >= n {
		old = old[:n]
		clear(old)
		return old
	}
	return s.carve(n, n)
}

// Builder recycles whole graphs across epochs. Build hands out a graph
// whose arenas, slices, and chain index come from a previously released
// graph whenever one is available, so steady-state epoch construction
// allocates (almost) nothing; Release returns a graph once nothing
// references it any more — in the engine, after the fault-tolerance
// mechanism has sealed the epoch. A Builder is not synchronised: one
// goroutine at a time builds and releases, and a given graph must not be
// used after Release.
type Builder struct {
	free []*Graph
}

// NewBuilder creates an empty graph recycler.
func NewBuilder() *Builder { return &Builder{} }

// Build constructs the TPG's vertices and edges for one epoch on recycled
// memory, without touching the store: the caller must CaptureBases before
// executing it.
func (b *Builder) Build(txns []*types.Txn) *Graph {
	g := b.take()
	g.build(txns)
	return g
}

// Begin is the first half of Build for a caller that produces the epoch's
// transactions itself: it hands out a (recycled) graph whose Input holds n
// transactions for the caller to fill, in timestamp order, before calling
// BuildInput. The epoch's transactions then live and recycle with the
// graph that points into them, instead of being allocated per epoch.
func (b *Builder) Begin(n int) *Graph {
	g := b.take()
	if cap(g.Input) < n {
		g.Input = make([]types.Txn, n)
		g.inputPtrs = make([]*types.Txn, n)
		for i := range g.Input {
			g.inputPtrs[i] = &g.Input[i]
		}
	}
	g.Input = g.Input[:n]
	return g
}

// take pops a released graph, or makes a fresh one.
func (b *Builder) take() *Graph {
	if n := len(b.free); n > 0 {
		g := b.free[n-1]
		b.free = b.free[:n-1]
		return g
	}
	return &Graph{}
}

// Release returns a graph to the recycler. The graph, its nodes, and its
// chains must no longer be referenced by anyone.
func (b *Builder) Release(g *Graph) {
	if g == nil {
		return
	}
	g.rewind()
	b.free = append(b.free, g)
}
