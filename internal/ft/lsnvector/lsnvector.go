// Package lsnvector implements LV, lightweight parallel logging in the
// style of Taurus (Section III-B): each worker numbers the transactions it
// commits with a per-worker log sequence number (LSN), and every log
// record carries a dependency vector — one LSN per worker — encoding the
// partial order the transaction must respect during replay.
//
// Runtime cost: computing and materialising a worker-count-sized vector
// per transaction, the computation overhead the paper attributes to LV.
// Recovery: workers replay their own records in LSN order, each record
// waiting until the global recovered-LSN vector dominates its dependency
// vector; the waiting shows up as explore time (vector checking), which
// grows with the workload's dependency density — LV's weakness on SL.
package lsnvector

import (
	"fmt"
	"strconv"
	"time"

	"morphstreamr/internal/codec"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/metrics"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/vtime"
)

// Mech is the LV mechanism.
type Mech struct {
	ftapi.GroupCommitter
	bytes *metrics.Bytes

	deps    *ftapi.DepTracker
	nextLSN []uint64
}

// New creates the LV mechanism writing to dev, accounting into bytes.
func New(dev storage.Device, bytes *metrics.Bytes) *Mech {
	return &Mech{
		GroupCommitter: ftapi.NewGroupCommitter(dev, bytes, "lv-buffer", "lv-log"),
		bytes:          bytes,
		deps:           ftapi.NewDepTracker(),
	}
}

// Kind implements ftapi.Mechanism.
func (m *Mech) Kind() ftapi.Kind { return ftapi.LV }

// SealEpoch implements ftapi.Mechanism: assigns each committed transaction
// to the worker that owned its condition operation's chain, stamps it with
// that worker's next LSN, and computes its dependency vector from the
// cross-epoch dependency tracker.
func (m *Mech) SealEpoch(ep *ftapi.EpochResult) {
	if len(m.nextLSN) < ep.Workers {
		grown := make([]uint64, ep.Workers)
		copy(grown, m.nextLSN)
		for i := len(m.nextLSN); i < ep.Workers; i++ {
			grown[i] = 1
		}
		if len(m.nextLSN) == 0 {
			for i := range grown {
				grown[i] = 1
			}
		}
		m.nextLSN = grown
	}
	recs := make([]codec.LVRecord, 0, len(ep.Graph.Txns))
	for _, tn := range ep.Graph.Txns {
		if tn.Aborted() {
			continue
		}
		w := uint32(tn.Ops[0].Chain.Owner)
		lsn := m.nextLSN[w]
		m.nextLSN[w]++
		self := ftapi.WriterRef{TxnID: tn.Txn.ID, Worker: w, LSN: lsn}
		vector := make([]uint64, ep.Workers)
		m.deps.TxnDeps(tn.Txn, self, func(ref ftapi.WriterRef) {
			if int(ref.Worker) < len(vector) && ref.LSN > vector[ref.Worker] {
				vector[ref.Worker] = ref.LSN
			}
		})
		// A worker's own records are implicitly ordered by LSN; the self
		// entry is redundant but kept when a dependency demands it anyway.
		recs = append(recs, codec.LVRecord{Event: tn.Txn.Event, Worker: w, LSN: lsn, Vector: vector})
	}
	m.SealInto(ep.Epoch, func(w *codec.Buffer) { codec.EncodeLVInto(w, recs) })
	m.accountTracker()
}

func (m *Mech) accountTracker() {
	live := int64(m.deps.Size()) * 32 // entries carry worker+LSN besides the key
	m.bytes.Free("lv-tracker", 1<<62)
	m.bytes.Alloc("lv-tracker", live)
}

// GC implements ftapi.Mechanism: LSNs restart after a snapshot, since all
// earlier records are truncated and their order is pre-satisfied.
func (m *Mech) GC(uint64) {
	m.deps.Reset()
	for i := range m.nextLSN {
		m.nextLSN[i] = 1
	}
	m.accountTracker()
}

// replayRec pairs a log record with its pre-built transaction.
type replayRec struct {
	rec codec.LVRecord
	txn types.Txn
}

// Recover implements ftapi.Mechanism: bucket the records per logging
// worker in LSN order, then let one goroutine per worker replay its bucket,
// each record spinning until the recovered-LSN vector dominates its
// dependency vector.
func (m *Mech) Recover(rc *ftapi.RecoveryContext) (uint64, error) {
	costs := rc.Costs
	// A torn tail record — the group commit the device died inside — is
	// discarded; its epochs reprocess through the uncommitted-tail path.
	groups, committed, err := ftapi.ReadCommitted(rc, codec.DecodeLV)
	if err != nil {
		return 0, fmt.Errorf("lsnvector: recover: %w", err)
	}
	recs := ftapi.Flatten(groups)
	// Decoding a worker-count-sized vector per record is part of reload;
	// group segments decode independently.
	rc.Spread("decode", &rc.Breakdown.Reload, time.Duration(len(recs))*(costs.Record+time.Duration(rc.Workers)*costs.Compare))
	if len(recs) == 0 {
		return committed, nil
	}

	// Construct: bucket records per logging worker, re-seed the runtime
	// dependency tracker and LSN counters (records arrive in timestamp
	// order), and replay each record.
	buckets := 0
	for i := range recs {
		if int(recs[i].Worker)+1 > buckets {
			buckets = int(recs[i].Worker) + 1
		}
	}
	if buckets < rc.Workers {
		buckets = rc.Workers
	}
	m.deps.Reset()
	if len(m.nextLSN) < buckets {
		m.nextLSN = make([]uint64, buckets)
	}
	for i := range m.nextLSN {
		m.nextLSN[i] = 1
	}
	// Records execute for real in global timestamp order, which respects
	// every dependency. They were appended in commit order, so each bucket
	// is already in ascending LSN order; verify rather than trust the log.
	perWorker := make([][]replayRec, buckets)
	aborted := make([]bool, len(recs))
	for i, rec := range recs {
		txn := rc.App.Preprocess(rec.Event)
		m.deps.Register(&txn, ftapi.WriterRef{TxnID: rec.Event.Seq, Worker: rec.Worker, LSN: rec.LSN})
		if next := rec.LSN + 1; next > m.nextLSN[rec.Worker] {
			m.nextLSN[rec.Worker] = next
		}
		b := perWorker[rec.Worker]
		if len(b) > 0 && b[len(b)-1].rec.LSN >= rec.LSN {
			return 0, fmt.Errorf("lsnvector: worker %d log out of LSN order", rec.Worker)
		}
		perWorker[rec.Worker] = append(b, replayRec{rec: rec, txn: txn})
		aborted[i] = ftapi.ExecuteTxnOnStore(rc.Store, &perWorker[rec.Worker][len(b)].txn)
	}
	rc.Spread("bucket", &rc.Breakdown.Construct, time.Duration(len(recs))*(costs.Preprocess+costs.Record))
	if costs.IsZero() {
		return committed, nil
	}

	// Virtual replay: each logging worker drains its bucket in LSN order;
	// a record starts once the recovered-LSN vector dominates its
	// dependency vector, i.e. no earlier than every referenced record's
	// virtual finish time. The time a worker spends blocked is *explore*
	// time — Taurus workers actively poll the shared vector — and it grows
	// with the workload's dependency density, LV's weakness on SL.
	clocks := make([]vtime.Clock, buckets)
	// finishes[w][lsn-1] is the virtual finish time of (w, lsn); LSN
	// numbering restarts at 1 after every snapshot, so buckets index
	// contiguously.
	finishes := make([][]time.Duration, buckets)
	for w := range finishes {
		finishes[w] = make([]time.Duration, len(perWorker[w]))
	}
	pos := make([]int, buckets) // next record per bucket
	// Critical-path bookkeeping (profiler only): LV's replay schedule is
	// fully determined by its log — records are pinned to their logging
	// worker and ordered by LSN — so a record's earliest finish chains
	// through both its own lane's predecessor and its vector dependencies,
	// and the explore charge (a pure function of the record's vector) is
	// part of the path.
	var efFin [][]time.Duration
	if rc.Prof != nil {
		efFin = make([][]time.Duration, buckets)
		for w := range efFin {
			efFin[w] = make([]time.Duration, len(perWorker[w]))
		}
		rc.Prof.BeginPhase("replay")
	}
	for i, rec := range recs {
		w := int(rec.Worker)
		rr := &perWorker[w][pos[w]]
		pos[w]++
		start := clocks[w].Now
		// Scanning the shared recovered-LSN vector costs a probe per
		// worker slot plus a synchronisation round-trip per referenced
		// dependency — the vector-checking overhead the paper singles
		// out for LV.
		explore := costs.Explore + time.Duration(len(rr.rec.Vector))*costs.Lookup
		blockV, blockLSN := -1, uint64(0) // binding cross-worker dependency
		for v := 0; v < len(rr.rec.Vector) && v < buckets; v++ {
			lsn := rr.rec.Vector[v]
			if v == w || lsn == 0 {
				continue
			}
			explore += costs.Sync
			if fin := finishes[v][lsn-1]; fin > start {
				start = fin
				blockV, blockLSN = v, lsn
			}
		}
		cost := costs.TxnCost(&rr.txn)
		fin := clocks[w].Advance(start, explore, cost, aborted[i])
		finishes[w][rr.rec.LSN-1] = fin
		if rc.Prof != nil {
			var ef time.Duration
			if idx := int(rr.rec.LSN) - 2; idx >= 0 && idx < len(efFin[w]) {
				ef = efFin[w][idx] // own-lane LSN-order predecessor
			}
			edge, blocker := vtime.EdgeNone, ""
			if blockV >= 0 {
				edge = vtime.EdgeVec
				blocker = "t" + strconv.FormatUint(perWorker[blockV][blockLSN-1].rec.Event.Seq, 10)
			}
			for v := 0; v < len(rr.rec.Vector) && v < buckets; v++ {
				lsn := rr.rec.Vector[v]
				if v == w || lsn == 0 {
					continue
				}
				if e := efFin[v][lsn-1]; e > ef {
					ef = e
				}
			}
			ef += explore + cost
			efFin[w][rr.rec.LSN-1] = ef
			rc.Prof.Op(w, "t"+strconv.FormatUint(rr.rec.Event.Seq, 10),
				start, explore, cost, aborted[i], edge, blocker, ef)
		}
	}
	result := vtime.Finish(clocks)
	rc.Prof.EndPhase(result.Makespan)
	result.Charge(rc.Breakdown, true)
	return committed, nil
}
