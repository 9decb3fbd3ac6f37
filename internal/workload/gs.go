package workload

import (
	"math/rand"

	"morphstreamr/internal/partition"
	"morphstreamr/internal/types"
)

// Grep and Sum (GS): each Sum transaction reads a list of states and
// writes the summation result back to the first one. A single operation
// per transaction, but with a tunable number of parametric dependencies,
// tunable Zipfian skew, a tunable multi-partition ratio, and (for the
// sensitivity study of Figure 14c) a tunable abort ratio via a validation
// guard. The paper uses GS as its flexible sensitivity-study workload and
// characterises the default configuration as the most skewed one.

// GSTable is the single shared table of the GS application.
const GSTable types.TableID = 0

// Event kinds of the GS application.
const (
	// GSSum reads Keys[1:] and writes the sum (including the current
	// value) to Keys[0]. Vals[0] != 0 marks a doomed event whose
	// validation guard fails.
	GSSum types.EventKind = iota
	// GSPut overwrites Keys[0] with Vals[0]; the write-only mode used by
	// the skew sensitivity study (Figure 14b).
	GSPut
)

// GSParams configures the Grep&Sum generator.
type GSParams struct {
	Seed       int64
	Rows       uint32
	Partitions int
	// Theta is the Zipfian skew of the written key.
	Theta float64
	// Reads is the number of states each Sum reads besides its target
	// (the parametric dependency count per transaction).
	Reads int
	// MultiPartitionRatio is the probability that each read key is drawn
	// from a different data partition than the written key.
	MultiPartitionRatio float64
	// AbortRatio is the fraction of events whose validation guard fails.
	AbortRatio float64
	// WriteOnly switches every event to GSPut (skew study configuration).
	WriteOnly bool
}

// DefaultGSParams returns the paper-shaped default: high skew, three reads
// per sum, a third of reads crossing partitions.
func DefaultGSParams() GSParams {
	return GSParams{
		Seed:                1,
		Rows:                1 << 12,
		Partitions:          4,
		Theta:               1.0,
		Reads:               3,
		MultiPartitionRatio: 0.3,
		AbortRatio:          0,
	}
}

// GSApp implements types.App for Grep&Sum.
type GSApp struct {
	rows uint32
}

// NewGSApp creates the application for a table of the given size.
func NewGSApp(rows uint32) *GSApp { return &GSApp{rows: rows} }

// Name implements types.App.
func (a *GSApp) Name() string { return "GS" }

// Tables implements types.App. Records start at 1 so that sums start
// propagating non-trivial values immediately.
func (a *GSApp) Tables() []types.TableSpec {
	return []types.TableSpec{{ID: GSTable, Rows: a.rows, Init: 1}}
}

// Preprocess implements types.App.
func (a *GSApp) Preprocess(ev types.Event) types.Txn { return types.NewTxn(ev, a.AppendOps(nil, ev)) }

// AppendOps implements types.App. A sum's dependencies alias the event's
// read keys.
func (a *GSApp) AppendOps(ops []types.Operation, ev types.Event) []types.Operation {
	switch ev.Kind {
	case GSSum:
		return append(ops, ev.Op(0, ev.Keys[0], types.FnSumAbortIf, ev.Vals[0], ev.Keys[1:]...))
	case GSPut:
		return append(ops, ev.Op(0, ev.Keys[0], types.FnPut, ev.Vals[0]))
	default:
		panic("workload: unknown GS event kind")
	}
}

// Postprocess implements types.App: the output reports the written value
// and the commit/abort status.
func (a *GSApp) Postprocess(vals []types.Value, t *types.ExecutedTxn) (types.Output, []types.Value) {
	status := int64(0)
	if t.Aborted {
		status = 1
	}
	return types.AppendOutput(vals, t.Txn.ID, t.Txn.Event.Kind, status, t.Results[0])
}

// GSGen generates the GS event stream.
type GSGen struct {
	p     GSParams
	app   *GSApp
	rng   *rand.Rand
	picks *keyPicker
	parts *partition.Ranges
	seq   uint64
}

// NewGS builds a Grep&Sum generator.
func NewGS(p GSParams) *GSGen {
	app := NewGSApp(p.Rows)
	return &GSGen{
		p:     p,
		app:   app,
		rng:   rand.New(rand.NewSource(p.Seed)),
		picks: newKeyPicker(p.Seed+1, p.Rows, p.Theta),
		parts: partition.NewRanges(app.Tables(), p.Partitions),
	}
}

// App implements Generator.
func (g *GSGen) App() types.App { return g.app }

// Next implements Generator.
func (g *GSGen) Next() types.Event {
	seq := g.seq
	g.seq++
	target := g.picks.next()
	if g.p.WriteOnly {
		return types.Event{
			Seq:  seq,
			Kind: GSPut,
			Keys: []types.Key{{Table: GSTable, Row: target}},
			Vals: []types.Value{g.rng.Int63n(1000)},
		}
	}
	keys := make([]types.Key, 0, 1+g.p.Reads)
	keys = append(keys, types.Key{Table: GSTable, Row: target})
	part := g.parts.Of(keys[0])
	retries := 0
	for len(keys) < 1+g.p.Reads {
		var row uint32
		switch {
		case retries > 8:
			// Tiny-partition fallback: draw from the whole table so the
			// generator cannot livelock when a partition has fewer rows
			// than the transaction needs distinct keys.
			row = uint32(g.rng.Int63n(int64(g.p.Rows)))
		case g.rng.Float64() < g.p.MultiPartitionRatio:
			row = pickOther(g.rng, g.parts, GSTable, part)
		default:
			row = pickIn(g.rng, g.parts, GSTable, part)
		}
		k := types.Key{Table: GSTable, Row: row}
		if containsKey(keys, k) {
			retries++
			continue
		}
		retries = 0
		keys = append(keys, k)
	}
	doomed := int64(0)
	if g.rng.Float64() < g.p.AbortRatio {
		doomed = 1
	}
	return types.Event{Seq: seq, Kind: GSSum, Keys: keys, Vals: []types.Value{doomed}}
}

func containsKey(keys []types.Key, k types.Key) bool {
	for _, kk := range keys {
		if kk == k {
			return true
		}
	}
	return false
}
