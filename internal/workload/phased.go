package workload

import (
	"math/rand"

	"morphstreamr/internal/types"
)

// Phased is the phase-shifting Grep&Sum stream behind the adaptive
// scheduling benchmark (`cmd/bench sched`'s trajectory section): the stream
// alternates between a spread phase — uniform writes across the whole
// table, where the TPG decomposes into thousands of short chains and
// parallel execution shines — and a hot phase, where every write lands on
// a handful of keys, the graph collapses into a few long temporal chains,
// and any parallel scheduler mostly coordinates idle workers. A static
// worker count is wrong in one phase or the other; the adaptive controller
// must notice each shift from the graph's structure and morph.

// PhasedParams configures the phase-shifting generator.
type PhasedParams struct {
	Seed int64
	// Rows is the table size (and the key range of the spread phase).
	Rows uint32
	// PhaseEvents is the number of events in each phase before the stream
	// flips to the other.
	PhaseEvents int
	// HotRows is the number of distinct keys the hot phase writes; the
	// default of 1 makes the hot graph one strictly serial chain.
	HotRows uint32
}

// DefaultPhasedParams: 4096-row table, one hot key, and phases of 8
// benchmark epochs (schedbench runs 2048-event epochs), long enough for a
// hysteresis-damped controller to morph and then profit from it.
func DefaultPhasedParams() PhasedParams {
	return PhasedParams{Seed: 1, Rows: 1 << 12, PhaseEvents: 8 * 2048, HotRows: 1}
}

// PhasedGen generates the phase-shifting event stream. All events are
// GSPut writes (the GS skew-study mode), so chain structure — not
// parametric dependencies — is the only thing that changes across phases.
type PhasedGen struct {
	p   PhasedParams
	app *GSApp
	rng *rand.Rand
	seq uint64
}

// NewPhased builds a phase-shifting generator.
func NewPhased(p PhasedParams) *PhasedGen {
	if p.Rows == 0 {
		p.Rows = 1 << 12
	}
	if p.PhaseEvents <= 0 {
		p.PhaseEvents = 8 * 2048
	}
	if p.HotRows == 0 {
		p.HotRows = 1
	}
	return &PhasedGen{p: p, app: NewGSApp(p.Rows), rng: rand.New(rand.NewSource(p.Seed))}
}

// App implements Generator.
func (g *PhasedGen) App() types.App { return g.app }

// Next implements Generator.
func (g *PhasedGen) Next() types.Event {
	seq := g.seq
	g.seq++
	var row uint32
	if (seq/uint64(g.p.PhaseEvents))%2 == 0 {
		row = uint32(g.rng.Int63n(int64(g.p.Rows))) // spread phase
	} else {
		row = uint32(g.rng.Int63n(int64(g.p.HotRows))) // hot phase
	}
	return types.Event{
		Seq:  seq,
		Kind: GSPut,
		Keys: []types.Key{{Table: GSTable, Row: row}},
		Vals: []types.Value{g.rng.Int63n(1000)},
	}
}
