// Package oracle is an independent, deliberately simple reference
// implementation of transactional stream semantics: it processes events one
// at a time, in timestamp order, against a plain map. Every correct
// schedule must be conflict-equivalent to this execution (Section II-A), so
// the engine's parallel results — and every recovery path — are tested for
// exact equality against the oracle's final state and outputs.
//
// The oracle shares only types.Apply with the engine; it has its own state
// representation and its own dependency handling (none needed: sequential
// execution makes every read trivially version-exact), which keeps it a
// genuine cross-check rather than a re-run of the same code.
package oracle

import (
	"morphstreamr/internal/types"
)

// Oracle executes events sequentially against map-backed state.
type Oracle struct {
	app   types.App
	state map[types.Key]types.Value
	specs []types.TableSpec
}

// New creates an oracle with the application's initial state.
func New(app types.App) *Oracle {
	o := &Oracle{app: app, state: make(map[types.Key]types.Value), specs: app.Tables()}
	return o
}

// get returns the current value of k, defaulting to the table's initial
// value for never-written records.
func (o *Oracle) get(k types.Key) types.Value {
	if v, ok := o.state[k]; ok {
		return v
	}
	for _, sp := range o.specs {
		if sp.ID == k.Table {
			return sp.Init
		}
	}
	return 0
}

// Apply processes one event to completion and returns its output.
func (o *Oracle) Apply(ev types.Event) types.Output {
	txn := o.app.Preprocess(ev)
	exec := o.ExecuteTxn(&txn)
	out, _ := o.app.Postprocess(nil, exec)
	return out
}

// ExecuteTxn runs one transaction under the abort contract shared with the
// engine: dependency values are the current (pre-transaction) state; the
// condition operation decides abort; aborted transactions leave state
// untouched.
func (o *Oracle) ExecuteTxn(txn *types.Txn) *types.ExecutedTxn {
	// Capture dependency values before any write of this transaction:
	// deps are defined as of the transaction's start.
	depVals := make([][]types.Value, len(txn.Ops))
	for i := range txn.Ops {
		op := &txn.Ops[i]
		if len(op.Deps) == 0 {
			continue
		}
		dv := make([]types.Value, len(op.Deps))
		for j, dk := range op.Deps {
			dv[j] = o.get(dk)
		}
		depVals[i] = dv
	}
	results := make([]types.Value, len(txn.Ops))
	aborted := false
	for i := range txn.Ops {
		op := &txn.Ops[i]
		cur := o.get(op.Key)
		if aborted && !op.IsCondition() {
			results[i] = cur
			continue
		}
		v, ok := types.Apply(op.Fn, cur, depVals[i], op.Const)
		if !ok {
			results[i] = cur
			if op.IsCondition() {
				aborted = true
			}
			continue
		}
		results[i] = v
		o.state[op.Key] = v
	}
	return &types.ExecutedTxn{Txn: txn, Results: results, Aborted: aborted}
}

// Run processes a whole event stream and returns all outputs.
func (o *Oracle) Run(events []types.Event) []types.Output {
	out := make([]types.Output, 0, len(events))
	for _, ev := range events {
		out = append(out, o.Apply(ev))
	}
	return out
}

// Value exposes the oracle's view of one record for test assertions.
func (o *Oracle) Value(k types.Key) types.Value { return o.get(k) }
