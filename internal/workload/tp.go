package workload

import (
	"math/rand"

	"morphstreamr/internal/types"
)

// Toll Processing (TP): the Linear Road-inspired workload. Roads are
// divided into segments; two mutable tables record each segment's average
// speed and its vehicle count. A position report folds the reported speed
// into the segment's moving average and increments the count, then the
// toll is computed during postprocessing from the two updated records.
// Invalid reports (negative speeds) abort the whole transaction, which is
// why the paper characterises TP as the abort-heavy workload with few
// parametric dependencies.

// Table identifiers of the TP application.
const (
	TPSpeed types.TableID = 0
	TPCount types.TableID = 1
)

// TPReport is the single event kind: a vehicle position report with
// Keys[0] = speed-table segment key, Keys[1] = count-table segment key,
// Vals[0] = reported speed (negative = invalid, aborts).
const TPReport types.EventKind = 0

// Linear Road-style toll model: segments congested below the speed
// threshold charge a toll growing quadratically with the vehicle count
// beyond the free quota.
const (
	tpSpeedThreshold = 40
	tpFreeVehicles   = 50
)

// TPParams configures the Toll Processing generator.
type TPParams struct {
	Seed int64
	// Segments is the number of road segments (rows per table).
	Segments   uint32
	Partitions int
	// Theta is the Zipfian skew of segment popularity.
	Theta float64
	// AbortRatio is the fraction of reports that are invalid.
	AbortRatio float64
}

// DefaultTPParams returns the paper-shaped default: a modest number of hot
// segments and a high invalid-report rate.
func DefaultTPParams() TPParams {
	return TPParams{
		Seed:       1,
		Segments:   1 << 11,
		Partitions: 4,
		Theta:      0.4,
		AbortRatio: 0.3,
	}
}

// TPApp implements types.App for Toll Processing.
type TPApp struct {
	segments uint32
}

// NewTPApp creates the application for the given number of road segments.
func NewTPApp(segments uint32) *TPApp { return &TPApp{segments: segments} }

// Name implements types.App.
func (a *TPApp) Name() string { return "TP" }

// Tables implements types.App.
func (a *TPApp) Tables() []types.TableSpec {
	return []types.TableSpec{
		{ID: TPSpeed, Rows: a.segments, Init: 0},
		{ID: TPCount, Rows: a.segments, Init: 0},
	}
}

// Preprocess implements types.App.
func (a *TPApp) Preprocess(ev types.Event) types.Txn { return types.NewTxn(ev, a.AppendOps(nil, ev)) }

// AppendOps implements types.App. The speed update is the condition
// operation: a negative report fails its guard and aborts the transaction,
// so the vehicle count (logically dependent) stays untouched.
func (a *TPApp) AppendOps(ops []types.Operation, ev types.Event) []types.Operation {
	return append(ops,
		ev.Op(0, ev.Keys[0], types.FnEwmaGuard, ev.Vals[0]),
		ev.Op(1, ev.Keys[1], types.FnInc, 0))
}

// Postprocess implements types.App: computes the toll from the updated
// average speed and vehicle count. Aborted reports emit a zero toll with
// an error status.
func (a *TPApp) Postprocess(vals []types.Value, t *types.ExecutedTxn) (types.Output, []types.Value) {
	if t.Aborted {
		return types.AppendOutput(vals, t.Txn.ID, TPReport, 1, 0)
	}
	avgSpeed, count := t.Results[0], t.Results[1]
	toll := int64(0)
	if avgSpeed < tpSpeedThreshold && count > tpFreeVehicles {
		over := count - tpFreeVehicles
		toll = 2 * over * over
	}
	return types.AppendOutput(vals, t.Txn.ID, TPReport, 0, toll)
}

// TPGen generates the TP event stream.
type TPGen struct {
	p     TPParams
	app   *TPApp
	rng   *rand.Rand
	picks *keyPicker
	seq   uint64
}

// NewTP builds a Toll Processing generator.
func NewTP(p TPParams) *TPGen {
	return &TPGen{
		p:     p,
		app:   NewTPApp(p.Segments),
		rng:   rand.New(rand.NewSource(p.Seed)),
		picks: newKeyPicker(p.Seed+1, p.Segments, p.Theta),
	}
}

// App implements Generator.
func (g *TPGen) App() types.App { return g.app }

// Next implements Generator.
func (g *TPGen) Next() types.Event {
	seq := g.seq
	g.seq++
	seg := g.picks.next()
	speed := 5 + g.rng.Int63n(75)
	if g.rng.Float64() < g.p.AbortRatio {
		speed = -1 - g.rng.Int63n(10)
	}
	return types.Event{
		Seq:  seq,
		Kind: TPReport,
		Keys: []types.Key{
			{Table: TPSpeed, Row: seg},
			{Table: TPCount, Row: seg},
		},
		Vals: []types.Value{speed},
	}
}
