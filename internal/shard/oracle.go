package shard

import (
	"fmt"
	"sort"

	"morphstreamr/internal/codec"
	"morphstreamr/internal/engine"
	"morphstreamr/internal/oracle"
	"morphstreamr/internal/partition"
	"morphstreamr/internal/store"
	"morphstreamr/internal/types"
)

// GroupOracle is the sharded twin of the crash sweep's single-engine
// oracle: a serial, trusted re-execution of the group protocol. It routes
// every batch over the same key→shard map, runs one sequential oracle per
// shard, and propagates cross-shard frontiers as value-diff deltas — the
// semantic content of the engine's write-set deltas. The two delta flavors
// differ syntactically (write sets include unchanged-value writes; a
// post-recovery full sync publishes whole partitions) but replication puts
// authoritative owner values, so every shard's store agrees with its
// oracle at every barrier regardless — which is exactly the property the
// sharded sweep asserts.
type GroupOracle struct {
	app     *App
	router  *partition.Ranges
	oracles []*oracle.Oracle
	// prev mirrors each shard's owned values as of the last barrier, for
	// value-diff delta extraction.
	prev []map[types.Key]types.Value
	// states[s][e] is shard s's full state after group epoch e (0: initial).
	states [][]map[types.Key]types.Value
	// outputs maps real event sequence → expected output.
	outputs map[uint64]types.Output
	// realFed[s][e] is the cumulative count of real events routed to shard
	// s through group epoch e.
	realFed  [][]int
	deltas   []codec.ShardDelta
	epochs   int
	seqFloor uint64
	// localReads mirrors Config.LocalReads: no replication between shards,
	// so foreign rows stay at their Init values on every shard.
	localReads bool
}

// sortedDelta flattens a delta map into the canonical key order shared by
// the frontier codec, replication events, and the oracle. It is the
// oracle's own: the coordinator builds its deltas in one pass over an
// already-sorted write set, and the oracle's map-and-sort form staying
// independent of that path is what makes agreement between the two a check.
func sortedDelta(delta map[types.Key]types.Value) codec.ShardDelta {
	out := codec.ShardDelta{
		Keys: make([]types.Key, 0, len(delta)),
		Vals: make([]types.Value, 0, len(delta)),
	}
	for k := range delta {
		out.Keys = append(out.Keys, k)
	}
	sort.Slice(out.Keys, func(i, j int) bool { return out.Keys[i].Less(out.Keys[j]) })
	for _, k := range out.Keys {
		out.Vals = append(out.Vals, delta[k])
	}
	return out
}

// NewGroupOracle replays the whole run (one batch per group epoch)
// through the sharded oracle protocol.
func NewGroupOracle(app types.App, shards int, batches [][]types.Event) (*GroupOracle, error) {
	return newGroupOracle(app, shards, batches, false)
}

// NewLocalGroupOracle is the oracle for a Config.LocalReads group: the
// replication step is skipped, exactly as the live coordinator skips it.
func NewLocalGroupOracle(app types.App, shards int, batches [][]types.Event) (*GroupOracle, error) {
	return newGroupOracle(app, shards, batches, true)
}

func newGroupOracle(app types.App, shards int, batches [][]types.Event, localReads bool) (*GroupOracle, error) {
	wrapped := WrapApp(app)
	o := &GroupOracle{
		app:        wrapped,
		router:     partition.NewRanges(app.Tables(), shards),
		outputs:    make(map[uint64]types.Output),
		localReads: localReads,
	}
	for s := 0; s < shards; s++ {
		o.oracles = append(o.oracles, oracle.New(wrapped))
		o.prev = append(o.prev, o.ownedState(s))
		o.states = append(o.states, []map[types.Key]types.Value{o.fullState(s)})
		o.realFed = append(o.realFed, []int{0})
	}
	for _, batch := range batches {
		if err := o.Extend(batch); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// ownedState reads shard s's current owned values from its oracle.
func (o *GroupOracle) ownedState(s int) map[types.Key]types.Value {
	owned := make(map[types.Key]types.Value)
	for _, sp := range o.app.Tables() {
		lo, hi := o.router.RowsIn(sp.ID, s)
		for row := lo; row < hi; row++ {
			k := types.Key{Table: sp.ID, Row: row}
			owned[k] = o.oracles[s].Value(k)
		}
	}
	return owned
}

// fullState materialises shard s's complete store image (Init fallback
// included), so retained states compare against engine stores key by key.
func (o *GroupOracle) fullState(s int) map[types.Key]types.Value {
	st := make(map[types.Key]types.Value)
	for _, sp := range o.app.Tables() {
		for row := uint32(0); row < sp.Rows; row++ {
			k := types.Key{Table: sp.ID, Row: row}
			st[k] = o.oracles[s].Value(k)
		}
	}
	return st
}

// Extend replays one more group epoch through the oracle protocol.
func (o *GroupOracle) Extend(batch []types.Event) error {
	// Route, tracking the epoch's minimum real sequence for replication (the
	// floor past every sequence so far for an epoch without events).
	subs := make([][]types.Event, len(o.oracles))
	minSeq := o.seqFloor
	for i, ev := range batch {
		if len(ev.Keys) == 0 {
			return fmt.Errorf("shard oracle: event %d has no routing key", ev.Seq)
		}
		subs[o.router.Of(ev.Keys[0])] = append(subs[o.router.Of(ev.Keys[0])], ev)
		if i == 0 || ev.Seq < minSeq {
			minSeq = ev.Seq
		}
		o.seqFloor = max(o.seqFloor, ev.Seq+1)
	}
	// Feed replication then the sub-batch, serially per shard.
	for s, orc := range o.oracles {
		if o.deltas != nil && !o.localReads {
			reps, err := buildReplication(s, o.deltas, minSeq)
			if err != nil {
				return err
			}
			for _, ev := range reps {
				orc.Apply(ev)
			}
		}
		for _, ev := range subs[s] {
			out := orc.Apply(ev)
			o.outputs[ev.Seq] = out
		}
	}
	// Barrier: value-diff deltas over owned partitions, retained state.
	deltas := make([]codec.ShardDelta, len(o.oracles))
	for s := range o.oracles {
		cur := o.ownedState(s)
		diff := make(map[types.Key]types.Value)
		for k, v := range cur {
			if o.prev[s][k] != v {
				diff[k] = v
			}
		}
		deltas[s] = sortedDelta(diff)
		o.prev[s] = cur
	}
	o.deltas = deltas
	for s := range o.oracles {
		o.states[s] = append(o.states[s], o.fullState(s))
		o.realFed[s] = append(o.realFed[s], o.realFed[s][o.epochs]+len(subs[s]))
	}
	o.epochs++
	return nil
}

// CheckOutputs verifies shard s's exactly-once delivery through group
// epoch last, as ledger l recorded it across the shard's incarnations: the
// sink saw each released epoch once, in order, and the application outputs
// (replication acknowledgements are skipped) are duplicate-free, value-equal
// to the oracle's and, with the application outputs e still has pending,
// account for every real event routed to the shard.
func (o *GroupOracle) CheckOutputs(s int, last uint64, l *engine.Ledger, e *engine.Engine) error {
	for i, ep := range l.Epochs {
		if ep != uint64(i)+1 {
			return fmt.Errorf("shard %d: sink saw epochs %v, want each released epoch once, in order", s, l.Epochs)
		}
	}
	seen := make(map[uint64]bool, len(l.Outputs))
	for _, out := range l.Outputs {
		if IsReplication(out) {
			continue
		}
		if seen[out.EventSeq] {
			return fmt.Errorf("shard %d: output for event %d delivered twice", s, out.EventSeq)
		}
		seen[out.EventSeq] = true
		want, ok := o.outputs[out.EventSeq]
		if !ok {
			return fmt.Errorf("shard %d: output for unknown event %d delivered", s, out.EventSeq)
		}
		if out.Kind != want.Kind || len(out.Vals) != len(want.Vals) {
			return fmt.Errorf("shard %d: output for event %d diverges: got %+v want %+v", s, out.EventSeq, out, want)
		}
		for i := range out.Vals {
			if out.Vals[i] != want.Vals[i] {
				return fmt.Errorf("shard %d: output for event %d diverges: got %+v want %+v", s, out.EventSeq, out, want)
			}
		}
	}
	pending := e.PendingOutputsMatching(func(o types.Output) bool { return !IsReplication(o) })
	if got, want := len(seen)+pending, o.realFed[s][min(int(last), o.epochs)]; got != want {
		return fmt.Errorf("shard %d: delivered %d + pending %d outputs != %d events through epoch %d",
			s, len(seen), pending, want, last)
	}
	return nil
}

// CheckState compares shard s's store against the oracle state after group
// epoch ep (0: the initial state), reporting the first few divergent keys.
func (o *GroupOracle) CheckState(s int, ep uint64, st *store.Store) error {
	if int(ep) > o.epochs {
		return fmt.Errorf("shard oracle: no retained state for epoch %d (have 0..%d)", ep, o.epochs)
	}
	want := o.states[s][ep]
	var diffs []string
	for _, sp := range o.app.Tables() {
		for row := uint32(0); row < sp.Rows; row++ {
			k := types.Key{Table: sp.ID, Row: row}
			if got, w := st.Get(k), want[k]; got != w {
				diffs = append(diffs, fmt.Sprintf("%v: got %d want %d", k, got, w))
				if len(diffs) == 3 {
					return fmt.Errorf("shard oracle: shard %d state diverges at epoch %d: %s (and possibly more)", s, ep, diffs)
				}
			}
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("shard oracle: shard %d state diverges at epoch %d: %s", s, ep, diffs)
	}
	return nil
}
