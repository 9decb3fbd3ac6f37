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

// txnNode is one vertex of the rebuilt recovery graph.
type txnNode struct {
	txn      types.Txn
	out      []int32 // indices of dependent transactions
	indegree int32
}

// Recover implements ftapi.Mechanism: reload records, rebuild the
// dependency graph, then replay transactions in parallel as their
// dependencies complete. A torn tail record (the group commit the device
// died inside) is discarded; its epochs reprocess as uncommitted tail.
func (m *Mech) Recover(rc *ftapi.RecoveryContext) (uint64, error) {
	costs := vtime.Calibrate()
	readStop := metrics.SerialTimer(&rc.Breakdown.Reload, rc.Workers)
	cur, err := storage.ReadFrom(rc.Device, storage.LogFT, rc.SnapshotEpoch)
	readStop()
	if err != nil {
		return 0, fmt.Errorf("depgraph: recover: %w", err)
	}
	groups, committed, _, err := ftapi.DecodeCommittedCursor(cur, rc.SnapshotEpoch, rc.CommitLimit,
		func(_ uint64, payload []byte) ([]codec.DLRecord, error) { return codec.DecodeDL(payload) })
	if err != nil {
		return 0, fmt.Errorf("depgraph: recover: %w", err)
	}
	var recs []codec.DLRecord
	for _, cg := range groups {
		for _, ep := range cg.Epochs {
			recs = append(recs, ep.Recs...)
		}
	}
	// Decoding the fine-grained dependency records is part of reload;
	// group segments decode independently.
	rc.Breakdown.Reload += time.Duration(len(recs)) * costs.Record
	rc.Prof.SpreadPhase("decode", time.Duration(len(recs))*costs.Record)

	// Rebuild the dependency graph: index transactions, then translate
	// incoming-edge ID lists into adjacency and indegree counts. Edges to
	// transactions outside the recovery set are pre-satisfied by the
	// snapshot. This is DL's dominant recovery cost — every record must be
	// re-preprocessed and indexed, every edge inserted, before any replay
	// can start. The same pass re-seeds the runtime dependency tracker
	// (records arrive in timestamp order), so post-recovery transactions
	// depend correctly on replayed ones.
	//
	// A sequence number can name more than one record: a shard's replication
	// events take the numbers just below their epoch's first event, which an
	// earlier epoch's events may have used. An edge names its source by
	// number only, so it is resolved to every earlier record of that number:
	// the source is one of them, and an edge from an earlier record only
	// holds the replay back, never reorders it.
	m.deps.Reset()
	nodes := make([]txnNode, len(recs))
	index := make(map[uint64][]int32, len(recs))
	edges := 0
	for i := range recs {
		nodes[i].txn = rc.App.Preprocess(recs[i].Event)
		m.deps.Register(&nodes[i].txn, ftapi.WriterRef{TxnID: recs[i].Event.Seq})
		for _, dep := range recs[i].In {
			for _, j := range index[dep] {
				nodes[j].out = append(nodes[j].out, int32(i))
				nodes[i].indegree++
				edges++
			}
		}
		index[recs[i].Event.Seq] = append(index[recs[i].Event.Seq], int32(i))
	}
	construct := time.Duration(len(recs))*(costs.Preprocess+2*costs.Record) +
		time.Duration(edges)*costs.Edge
	metrics.ChargeSerial(&rc.Breakdown.Construct, construct, rc.Workers)
	rc.Prof.SerialPhase("rebuild", construct)

	if len(nodes) == 0 {
		return committed, nil
	}

	// Replay on W virtual workers: a transaction becomes ready when all
	// its logged dependencies have replayed, so parallelism is bounded by
	// the rebuilt graph — the inherent-parallelism ceiling the paper
	// contrasts MorphStreamR against. Transactions execute for real in
	// the simulated order; the clocks are virtual.
	vg := &vtime.TxnGraph{
		Out:      make([][]int32, len(nodes)),
		Indegree: make([]int32, len(nodes)),
	}
	indegree := make([]int32, len(nodes))
	for i := range nodes {
		vg.Out[i] = nodes[i].out
		vg.Indegree[i] = nodes[i].indegree
		indegree[i] = nodes[i].indegree
	}
	rc.Prof.BeginPhase("replay")
	result := vtime.SimulateTxnGraphProf(vg, rc.Workers, func(i int32) (time.Duration, time.Duration, bool) {
		aborted := ftapi.ExecuteTxnOnStore(rc.Store, &nodes[i].txn)
		// Each incoming edge was resolved by a cross-thread
		// notification during the graph replay.
		explore := costs.Explore + time.Duration(indegree[i])*costs.Sync
		return costs.TxnCost(&nodes[i].txn), explore, aborted
	}, rc.Prof, func(i int32) string {
		return "t" + strconv.FormatUint(nodes[i].txn.ID, 10)
	})
	rc.Prof.EndPhase(result.Makespan)
	result.Charge(rc.Breakdown, false)
	return committed, nil
}
