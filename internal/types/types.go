// Package types defines the fundamental vocabulary shared by every layer of
// the engine: keys, values, events, state-access operations, and state
// transactions.
//
// The definitions mirror Section II of the MorphStreamR paper:
//
//   - A state access operation (Definition 1) is a read or write on shared
//     mutable state, parameterised by a deterministic function drawn from a
//     fixed registry (see funcs.go).
//   - A state transaction (Definition 2) is the set of state accesses
//     triggered by a single input event; all operations of a transaction
//     carry the event's timestamp.
//
// Everything in this package is plain data with value semantics. Runtime
// execution state (dependency counters, results, abort flags) lives in
// package tpg so that types stays reusable by codecs, logs, and oracles.
package types

import "fmt"

// TableID identifies one of the application's shared mutable state tables.
type TableID uint8

// Key addresses a single record of shared mutable state: a (table, row)
// pair. Keys are small value types used pervasively as map keys.
type Key struct {
	Table TableID
	Row   uint32
}

// String renders the key as "t<table>/r<row>", e.g. "t0/r42".
func (k Key) String() string { return fmt.Sprintf("t%d/r%d", k.Table, k.Row) }

// Less orders keys first by table then by row. It provides the canonical
// total order used when deterministic iteration over keys is required.
func (k Key) Less(o Key) bool {
	if k.Table != o.Table {
		return k.Table < o.Table
	}
	return k.Row < o.Row
}

// Value is the content of one record. All paper workloads (balances, asset
// counts, road speeds, vehicle counts) fit in a signed 64-bit integer;
// fixed-point scaling is used where fractional values appear.
type Value = int64

// EventKind tags an input event with its application-specific type
// (deposit, transfer, sum, toll report, ...). The engine treats it as
// opaque; each workload package defines its own kinds.
type EventKind uint8

// Event is a single input record of the stream. Seq is the global sequence
// number assigned by the spout; it doubles as the transaction identifier and
// the timestamp of every state access the event triggers, which yields the
// total event order that correct schedules must be conflict-equivalent to.
//
// Keys and Vals carry the event payload; their meaning depends on Kind and
// is interpreted by the application's Preprocess. Events are deterministic
// and self-contained so that command logging (WAL) and input-event
// persistence can replay them byte-for-byte.
//
// Keys and Vals are immutable once the event is admitted: transactions
// (an operation's Deps) and replication events may alias them instead of
// copying, so nothing may write through them afterwards. A served event's
// slices are valid until its epoch is pruned below the committed frontier
// and recycled, so a serving Backend must not retain them past Feed.
type Event struct {
	Seq  uint64
	Kind EventKind
	Keys []Key
	Vals []Value
}

// Op builds operation idx of ev's transaction: both its transaction ID and
// its timestamp are ev.Seq. deps may alias ev.Keys.
func (ev *Event) Op(idx int, key Key, fn FuncID, c Value, deps ...Key) Operation {
	return Operation{TxnID: ev.Seq, TS: ev.Seq, Idx: uint8(idx), Key: key, Fn: fn, Const: c, Deps: deps}
}

// Source feeds a stream by epoch: it returns the batch for a 1-based epoch,
// or ok=false when the epoch is unknown or the stream is exhausted. It must
// be rewindable — recovery re-reads from the last committed punctuation
// onward, so repeated calls for the same epoch must return the same batch.
type Source func(epoch uint64) ([]Event, bool)

// BatchSource adapts a fixed batch list into a Source: batches[e-1] is
// epoch e.
func BatchSource(batches [][]Event) Source {
	return func(epoch uint64) ([]Event, bool) {
		if epoch == 0 || epoch > uint64(len(batches)) {
			return nil, false
		}
		return batches[epoch-1], true
	}
}

// Operation is one state access of a transaction (Definition 1).
//
// The operation writes Key with the value produced by Fn applied to the
// record's current value, the values of the Deps keys as of the start of the
// transaction, and the immediate Const. Deps induce parametric dependencies
// (PDs) on the most recent earlier writer of each dep key; membership in a
// transaction induces logical dependencies (LDs) on the transaction's
// condition operation (always index 0); and sharing Key with another
// transaction's operation induces a temporal dependency (TD).
type Operation struct {
	TxnID uint64
	TS    uint64
	Idx   uint8 // position within the transaction; 0 is the condition op
	Key   Key
	Fn    FuncID
	Const Value
	Deps  []Key
}

// IsCondition reports whether the operation is its transaction's
// condition-variable-check: the first state access, on which all other
// operations of the same transaction logically depend (Section VI-A2).
func (o *Operation) IsCondition() bool { return o.Idx == 0 }

// Txn is a state transaction (Definition 2): the operations triggered by
// one input event. ID and TS both equal Event.Seq.
type Txn struct {
	ID    uint64
	TS    uint64
	Event Event
	Ops   []Operation
}

// NewTxn is ev's transaction over ops.
func NewTxn(ev Event, ops []Operation) Txn { return Txn{ID: ev.Seq, TS: ev.Seq, Event: ev, Ops: ops} }

// Output is the downstream-visible product of postprocessing one event
// (a balance statement, an invoice, a toll notification, ...). Outputs are
// delivered exactly once: the engine suppresses re-delivery during replay.
type Output struct {
	EventSeq uint64
	Kind     EventKind
	Vals     []Value
}

// AppendOutput appends v to the value slab vals and returns event seq's
// output of the given kind over the appended values, capacity-clipped so a
// later append to the slab cannot write through it, together with the
// extended slab. It is the body of an App.Postprocess.
func AppendOutput(vals []Value, seq uint64, kind EventKind, v ...Value) (Output, []Value) {
	n := len(vals)
	vals = append(vals, v...)
	return Output{EventSeq: seq, Kind: kind, Vals: vals[n:len(vals):len(vals)]}, vals
}

// ExecutedTxn is a transaction together with its execution outcome: the
// post-operation value of each operation (aligned with Txn.Ops) and whether
// the transaction aborted. Results of aborted operations are the unchanged
// prior values, which keeps downstream parametric reads version-exact.
type ExecutedTxn struct {
	Txn     *Txn
	Results []Value
	Aborted bool
}

// TableSpec declares one shared mutable state table: its identifier, the
// number of rows, and the initial value of every record.
type TableSpec struct {
	ID   TableID
	Rows uint32
	Init Value
}

// App is a transactional stream application following the three-step
// programming model of Section II-B: preprocessing turns events into state
// transactions with deterministic read/write sets, the engine performs the
// state accesses, and postprocessing turns execution results into outputs.
//
// Implementations must be deterministic: the same event must always yield
// the same transaction, and the same executed transaction the same output.
// This property is what makes command logging and replay-based recovery
// correct.
type App interface {
	// Name returns a short identifier such as "SL", "GS", or "TP".
	Name() string
	// Tables declares the shared mutable state the application uses.
	Tables() []TableSpec
	// Preprocess converts an input event into a state transaction. It is
	// NewTxn(ev, AppendOps(nil, ev)).
	Preprocess(ev Event) Txn
	// AppendOps appends the operations of ev's transaction to ops and
	// returns the extended slice. The caller owns ops (the engine passes its
	// graph's recycled operation arena); the appended operations may alias
	// ev's Keys and Vals.
	AppendOps(ops []Operation, ev Event) []Operation
	// Postprocess converts an executed transaction into its output, whose
	// Vals it appends to vals, and returns the output and the extended
	// slice (AppendOutput does both). The caller owns vals the way it owns
	// AppendOps' ops: the engine passes an epoch's value slab, which it
	// recycles once the sink has seen the epoch's outputs. The view is only
	// valid for the duration of the call: the engine reuses one scratch
	// ExecutedTxn across the epoch's transactions, so implementations must
	// not retain t or its Results slice.
	Postprocess(vals []Value, t *ExecutedTxn) (Output, []Value)
}
