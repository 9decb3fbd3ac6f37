package serve

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"morphstreamr/internal/engine"
	"morphstreamr/internal/journey"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
)

// pump is the single feeding goroutine: every tick it gathers admitted
// batches by tenant priority, assigns global event sequences, appends the
// epoch's ingest manifest record (write-ahead), feeds the backend, flushes
// acks for newly committed epochs, and garbage-collects the manifest.
// Backend failures are healed inline, with the degraded flag raised so
// admission sheds by priority until a heal succeeds — the accept loop and
// the session read loops never stall. A failed heal is retried on the next
// tick, before anything is fed, until the heal budget runs out.
func (s *Server) pump() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.EpochEvery)
	defer ticker.Stop()
	for {
		select {
		case <-s.closedCh:
			return
		case <-ticker.C:
			if err := s.tick(); err != nil {
				s.mu.Lock()
				s.termErr = err
				s.mu.Unlock()
				s.degraded.Store(true) // shed everything; the server is dead
				s.timeline().Add("serve", "terminal", err.Error(), nil)
				s.cfg.Journeys.ShedActive()
				return
			}
		}
	}
}

// errManifest marks a coordinator-device manifest append failure: the
// epoch was never fed, its batches are already requeued, and the backend
// is intact — retry next tick rather than heal a healthy group.
var errManifest = errors.New("serve: ingest manifest append failed")

func (s *Server) tick() error {
	if s.pending != nil {
		if err := s.heal(s.pending); err != nil || s.pending != nil {
			return err
		}
	}
	batches := s.gather()
	// Feed even with no new batches while epochs are in flight: commit
	// markers fire on epoch cadence, so pending acks need empty heartbeat
	// epochs to reach their durability gate during traffic lulls.
	if len(batches) == 0 && s.unacked() == 0 {
		s.flushAcks()
		return nil
	}
	if err := s.feed(batches); err != nil {
		if errors.Is(err, errManifest) {
			s.manifestFails++
			if s.manifestFails > 8 {
				return err
			}
			return nil
		}
		if err := s.heal(err); err != nil || s.pending != nil {
			return err
		}
	}
	s.manifestFails = 0
	s.flushAcks()
	s.maybeGC()
	return nil
}

// gather collects whole batches in feeding order — tenants by priority
// descending, each tenant's FIFO queue drained in turn — until the epoch
// event budget is reached. Shed-eligible tenants are skipped while
// degraded (their queues keep their backlog; only new Submits bounce).
func (s *Server) gather() []*batch {
	if s.unacked() >= uint64(s.cfg.MaxInflightEpochs) {
		return nil // ack debt bound: stop feeding until commits catch up
	}
	degraded := s.degraded.Load()
	room := s.cfg.MaxEpochEvents
	var out []*batch
	for _, t := range s.order {
		if room <= 0 {
			break
		}
		if degraded && t.cfg.Priority < s.cfg.ShedBelow {
			continue
		}
		var got []*batch
		got, room = t.takeFitting(room, len(out) == 0)
		for _, b := range got {
			b.j.Stamp(journey.StageQueue)
		}
		out = append(out, got...)
	}
	return out
}

// unacked is how many fed epochs await their ack: every epoch above acked
// that the backend holds was fed by this server.
func (s *Server) unacked() uint64 {
	if ep := s.be.Epoch(); ep > s.acked {
		return ep - s.acked
	}
	return 0
}

// feed assigns sequences, writes the manifest record, and feeds one epoch.
// The epoch's events are assembled in the pump's own buffer: the backend
// retains nothing of a batch once Feed returns, and the heal path rebuilds
// any fed epoch from its batches (healSource).
func (s *Server) feed(batches []*batch) error {
	ep := s.be.Epoch() + 1
	s.ingest.entries = s.ingest.entries[:0]
	for _, b := range batches {
		if !b.seqed {
			// Assign once; heal requeues keep the assignment so a re-fed
			// batch replays with identical sequences.
			b.firstSeq = s.nextSeq
			s.nextSeq += uint64(len(b.ev))
			for i := range b.ev {
				b.ev[i].Seq = b.firstSeq + uint64(i)
			}
			b.seqed = true
		}
		s.ingest.entries = append(s.ingest.entries, ManifestEntry{
			Tenant: b.tn.cfg.Name, BatchSeq: b.seq,
			FirstSeq: b.firstSeq, Events: uint64(len(b.ev)),
		})
	}
	s.epoch = appendEpoch(s.epoch[:0], batches)

	// Record the epoch before feeding it: the manifest is the write-ahead
	// truth recovery re-feeds from, so it must cover every epoch the
	// backend might have started.
	rec := storage.Record{Epoch: ep, Payload: s.ingest.encode(s.epoch)}
	if err := s.be.Coord().Append(LogIngest, rec); err != nil {
		s.requeueBatches(batches) // the epoch was never fed
		return fmt.Errorf("%w: epoch %d: %v", errManifest, ep, err)
	}
	s.fed[ep] = batches
	for _, b := range batches {
		if b.j != nil {
			b.j.Stamp(journey.StageRoute)
			b.j.SetRoute(ep, s.routeShards(b))
		}
	}
	if err := s.be.Feed(s.epoch); err != nil {
		return err
	}
	for _, b := range batches {
		b.j.Stamp(journey.StageExecute)
	}
	s.count("serve.epochs")
	return nil
}

// routeShards returns the distinct shards a sampled batch's events route
// to, when the backend exposes its router (nil otherwise).
func (s *Server) routeShards(b *batch) []int {
	sr, ok := s.be.(shardRouter)
	if !ok {
		return nil
	}
	seen := map[int]bool{}
	var out []int
	for _, ev := range b.ev {
		sh := sr.ShardOf(ev)
		if !seen[sh] {
			seen[sh] = true
			out = append(out, sh)
		}
	}
	sort.Ints(out)
	return out
}

// appendEpoch appends the events of one epoch's batches to dst, in global
// sequence order. Requeued batches carry older sequences than freshly
// gathered ones; unless a heal requeued, the batches were sequenced in
// gather order and are ascending already.
func appendEpoch(dst []types.Event, batches []*batch) []types.Event {
	for _, b := range batches {
		dst = append(dst, b.ev...)
	}
	bySeq := func(a, b types.Event) int { return cmp.Compare(a.Seq, b.Seq) }
	if !slices.IsSortedFunc(dst, bySeq) {
		slices.SortFunc(dst, bySeq)
	}
	return dst
}

// healSource is what a heal rebuilds the epochs it replays from: fed, which
// holds every epoch this incarnation fed down to the replay horizon, or the
// manifest for older ones (fed before a cold start), read once per heal.
// Each call assembles a fresh copy.
func (s *Server) healSource() types.Source {
	manifest := manifestSource(s.be.Coord())
	return func(ep uint64) ([]types.Event, bool) {
		if batches, ok := s.fed[ep]; ok {
			return appendEpoch(nil, batches), true
		}
		return manifest(ep)
	}
}

// heal recovers the backend after a failed Feed or a failed heal. Until a
// heal succeeds, admission sheds tenants below the priority threshold;
// admitted work is never dropped — batches from epochs the recovery could
// not preserve are requeued (with their assigned sequences) and re-fed
// after the heal. A heal that fails leaves its error pending for the next
// tick to retry; only an attempt past the heal budget is returned, and it
// is terminal. The backend records the incident; the server keeps the
// heal budget and the heal-begin/heal-end/heal-failed timeline.
func (s *Server) heal(procErr error) error {
	detected := time.Now()
	cause := engine.Classify(procErr)
	s.degraded.Store(true)
	// Bracket the outage for the journey tracer, from the first attempt to
	// the end of the last: time any sampled in-flight batch spends inside
	// this window is attributed to its RECOVERY stage, stitching the
	// journey across the backend incarnations.
	s.cfg.Journeys.RecoveryBegin()
	s.timeline().Add("serve", "heal-begin", cause, map[string]any{"err": procErr.Error()})
	s.heals.Add(1)
	s.count("serve.heals")
	if int(s.heals.Load()) > s.cfg.MaxHeals {
		s.cfg.Journeys.RecoveryEnd()
		s.timeline().Add("serve", "heal-failed", "heal budget exhausted", nil)
		return fmt.Errorf("serve: heal budget exhausted (%d): %w", s.cfg.MaxHeals, procErr)
	}

	recovered, err := s.be.Heal(procErr, s.healSource())
	if err != nil {
		s.pending = err
		s.timeline().Add("serve", "heal-failed", err.Error(), nil)
		return nil
	}
	s.pending = nil
	s.cfg.Journeys.RecoveryEnd()
	s.degraded.Store(false)

	// Epochs above the recovery point were lost with the crash: requeue
	// their batches, ascending, at the front of their tenants' queues so
	// re-feeding preserves per-tenant order and global sequence order.
	var lost []uint64
	for ep := range s.fed {
		if ep > recovered {
			lost = append(lost, ep)
		}
	}
	sort.Slice(lost, func(a, b int) bool { return lost[a] > lost[b] })
	for _, ep := range lost {
		s.requeueBatches(s.fed[ep])
		delete(s.fed, ep)
	}

	if reg := s.cfg.Obs.Registry(); reg != nil {
		reg.Histogram("serve.heal_seconds").ObserveSince(detected)
	}
	s.timeline().Add("serve", "heal-end", cause, map[string]any{
		"mttr_ms":         float64(time.Since(detected)) / float64(time.Millisecond),
		"recovered_epoch": recovered,
	})
	return nil
}

// requeueBatches returns batches to their tenants' queue fronts, grouped
// per tenant in original order.
func (s *Server) requeueBatches(batches []*batch) {
	perTenant := map[*tenant][]*batch{}
	var order []*tenant
	for _, b := range batches {
		if _, seen := perTenant[b.tn]; !seen {
			order = append(order, b.tn)
		}
		perTenant[b.tn] = append(perTenant[b.tn], b)
	}
	for _, t := range order {
		t.requeue(perTenant[t])
	}
}

// flushAcks acknowledges every in-flight epoch at or below the committed
// punctuation frontier: ascending epoch order, batches in fed order, so
// each tenant's watermark advances contiguously. This — and only this —
// is where an ack originates; by construction it cannot fire before the
// covering epoch is durable on every shard.
func (s *Server) flushAcks() {
	committed := s.be.Committed()
	s.committed.Store(committed)
	ct, hasCT := s.be.(commitTimer)
	for ; s.acked < committed; s.acked++ {
		ep := s.acked + 1
		batches, ok := s.fed[ep]
		if !ok {
			continue
		}
		// The commit stage boundary is when the frontier actually covered
		// the epoch (recorded by the shard group on its coordinator
		// goroutine — this one); epochs committed by a previous
		// incarnation have no stamp and fall back to now.
		commitAt := time.Now()
		if hasCT {
			if t, ok := ct.CommittedAt(ep); ok {
				commitAt = t
			}
		}
		for _, b := range batches {
			sess := b.tn.ack(b)
			if s.cfg.AckLog != nil {
				s.cfg.AckLog(b.tn.cfg.Name, b.seq, b.firstSeq, uint64(len(b.ev)), ep)
			}
			s.count("serve.acks")
			s.observeAckLag(b.submitted)
			s.cfg.SLO.Observe(time.Since(b.submitted))
			if sess != nil {
				sess.trySend(EncodeAck(b.seq, ep))
			}
			b.j.StampAt(journey.StageCommit, commitAt)
			b.j.Complete()
		}
	}
	// A heal reads only epochs from the replay horizon on, which never
	// passes the frontier: nothing reads an acked epoch below it again, and
	// its batches' memory goes back to the pool.
	horizon := min(s.be.Horizon(), committed)
	for ep, batches := range s.fed {
		if ep < horizon {
			for _, b := range batches {
				b.recycle()
			}
			delete(s.fed, ep)
		}
	}
}

// maybeGC checkpoints tenant watermarks and releases the ingest manifest's
// segments below both the committed frontier and the replay horizon, blob
// first: a crash between the two steps only leaves extra log records. Every
// epoch from the horizon on is retained — a recovery rebuilds what the
// shards replay from it — and storage.Release only ever under-reclaims.
func (s *Server) maybeGC() {
	committed := s.committed.Load()
	if committed < 1 || committed-s.lastGC < s.cfg.GCEvery {
		return
	}
	wm := make(map[string]uint64, len(s.order))
	for _, t := range s.order {
		wm[t.cfg.Name] = t.Watermark()
	}
	if err := s.be.Coord().WriteBlob(BlobIngest, encodeWatermarks(wm, s.nextSeq)); err != nil {
		return // skip this round; the log still has everything
	}
	if upTo := min(committed, s.be.Horizon()); upTo > 1 {
		if err := storage.Release(s.be.Coord(), LogIngest, upTo-1); err != nil {
			return
		}
	}
	s.lastGC = committed
	s.count("serve.gcs")
}
