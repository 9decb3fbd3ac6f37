// Package depgraph implements DL, dependency logging in the style of
// DistDGCC (Section III-B): every committed transaction's log record
// carries the command plus its incoming dependency edges (the committed
// transactions whose writes it consumed, temporally or parametrically).
//
// At runtime the record size grows with the dependency count — the
// overhead the paper attributes to DL under complex TSP dependencies. At
// recovery the dependency graph must be rebuilt from the records before
// any replay can start (the construct time dominating DL's bars in
// Figure 11), after which transactions replay in parallel constrained by
// the graph: exactly the workload's inherent parallelism, no more.
package depgraph

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"morphstreamr/internal/codec"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/metrics"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/vtime"
)

// Mech is the DL mechanism.
type Mech struct {
	ftapi.GroupCommitter
	bytes *metrics.Bytes
	deps  *ftapi.DepTracker
}

// New creates the DL mechanism writing to dev, accounting into bytes.
func New(dev storage.Device, bytes *metrics.Bytes) *Mech {
	return &Mech{
		GroupCommitter: ftapi.NewGroupCommitter(dev, bytes, "dl-buffer", "dl-log"),
		bytes:          bytes,
		deps:           ftapi.NewDepTracker(),
	}
}

// Kind implements ftapi.Mechanism.
func (m *Mech) Kind() ftapi.Kind { return ftapi.DL }

// SealEpoch implements ftapi.Mechanism: it derives each committed
// transaction's incoming edges (read-after-write, write-after-write, and
// write-after-read) from the cross-epoch dependency tracker and buffers
// one dependency record per transaction. Record size grows with the
// dependency count — DL's characteristic runtime cost.
func (m *Mech) SealEpoch(ep *ftapi.EpochResult) {
	recs := make([]codec.DLRecord, 0, len(ep.Graph.Txns))
	depSet := make(map[uint64]struct{}, 8)
	for _, tn := range ep.Graph.Txns {
		if tn.Aborted() {
			continue
		}
		clear(depSet)
		self := ftapi.WriterRef{TxnID: tn.Txn.ID}
		m.deps.TxnDeps(tn.Txn, self, func(ref ftapi.WriterRef) {
			depSet[ref.TxnID] = struct{}{}
		})
		in := make([]uint64, 0, len(depSet))
		for id := range depSet {
			in = append(in, id)
		}
		slices.Sort(in)
		recs = append(recs, codec.DLRecord{Event: tn.Txn.Event, In: in})
	}
	m.SealInto(ep.Epoch, func(w *codec.Buffer) { codec.EncodeDLInto(w, recs) })
	m.accountTracker()
}

func (m *Mech) accountTracker() {
	// ~24 bytes per tracker entry; tracked as a live high-water mark.
	live := int64(m.deps.Size()) * 24
	m.bytes.Free("dl-tracker", 1<<62) // clamp to zero, then set
	m.bytes.Alloc("dl-tracker", live)
}

// GC implements ftapi.Mechanism: edges into snapshot-covered transactions
// are pre-satisfied, so the dependency tracker resets.
func (m *Mech) GC(uint64) {
	m.deps.Reset()
	m.accountTracker()
}

// Recover implements ftapi.Mechanism: reload records and replay them in log
// order; a priced recovery rebuilds the dependency graph and prices the
// replay as transactions running in parallel as their dependencies
// complete. A torn tail record (the group commit the device died inside)
// is discarded; its epochs reprocess as uncommitted tail.
func (m *Mech) Recover(rc *ftapi.RecoveryContext) (uint64, error) {
	costs := rc.Costs
	groups, committed, err := ftapi.ReadCommitted(rc, codec.DecodeDL)
	if err != nil {
		return 0, fmt.Errorf("depgraph: recover: %w", err)
	}
	recs := ftapi.Flatten(groups)
	// Decoding the fine-grained dependency records is part of reload;
	// group segments decode independently.
	rc.Spread("decode", &rc.Breakdown.Reload, time.Duration(len(recs))*costs.Record)

	// Replay the records in log order, which is topological (every edge
	// resolves to an earlier record), re-seeding the runtime dependency
	// tracker on the way so post-recovery transactions depend correctly on
	// replayed ones.
	m.deps.Reset()
	n := len(recs)
	txns := make([]types.Txn, n)
	aborted := make([]bool, n)
	for i := range recs {
		txns[i] = rc.App.Preprocess(recs[i].Event)
		m.deps.Register(&txns[i], ftapi.WriterRef{TxnID: recs[i].Event.Seq})
		aborted[i] = ftapi.ExecuteTxnOnStore(rc.Store, &txns[i])
	}
	if costs.IsZero() {
		return committed, nil
	}

	// Rebuild the dependency graph the paper's DL replays on: translate
	// incoming-edge ID lists into adjacency and indegree counts. Edges to
	// transactions outside the recovery set are pre-satisfied by the
	// snapshot. This is DL's dominant recovery cost — every record must be
	// re-preprocessed and indexed, every edge inserted, before any replay
	// can start. Only the pricing reads the graph, so an unpriced recovery
	// does not build it.
	//
	// A sequence number can name more than one record: a shard's replication
	// events take the numbers just below their epoch's first event, which an
	// earlier epoch's events may have used. An edge names its source by
	// number only, so it is resolved to every earlier record of that number:
	// the source is one of them, and an edge from an earlier record only
	// holds the replay back, never reorders it.
	vg := &vtime.TxnGraph{
		Out:      make([][]int32, n),
		Indegree: make([]int32, n),
		Cost:     make([]time.Duration, n),
		Explore:  make([]time.Duration, n),
		Aborted:  aborted,
	}
	index := make(map[uint64][]int32, n)
	edges := 0
	for i := range recs {
		for _, dep := range recs[i].In {
			for _, j := range index[dep] {
				vg.Out[j] = append(vg.Out[j], int32(i))
				vg.Indegree[i]++
				edges++
			}
		}
		index[recs[i].Event.Seq] = append(index[recs[i].Event.Seq], int32(i))
	}
	rc.Serial("rebuild", &rc.Breakdown.Construct,
		time.Duration(n)*(costs.Preprocess+2*costs.Record)+time.Duration(edges)*costs.Edge)

	if n == 0 {
		return committed, nil
	}

	// Price the replay on W virtual workers: a transaction becomes ready
	// when all its logged dependencies have replayed, so parallelism is
	// bounded by the rebuilt graph — the inherent-parallelism ceiling the
	// paper contrasts MorphStreamR against.
	for i := range txns {
		vg.Cost[i] = costs.TxnCost(&txns[i])
		// Each incoming edge was resolved by a cross-thread
		// notification during the graph replay.
		vg.Explore[i] = costs.Explore + time.Duration(vg.Indegree[i])*costs.Sync
	}
	rc.Prof.BeginPhase("replay")
	result := vtime.SimulateTxnGraphProf(vg, rc.Workers, rc.Prof, func(i int32) string {
		return "t" + strconv.FormatUint(txns[i].ID, 10)
	})
	rc.Prof.EndPhase(result.Makespan)
	result.Charge(rc.Breakdown, false)
	return committed, nil
}
