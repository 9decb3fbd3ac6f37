package serve

import (
	"sync"
	"time"

	"morphstreamr/internal/journey"
	"morphstreamr/internal/types"
)

// TenantConfig declares one tenant's admission envelope.
type TenantConfig struct {
	// Name identifies the tenant; clients present it in Hello.
	Name string
	// Rate is the token-bucket refill in batches per second; 0 disables
	// rate limiting. Burst is the bucket depth (default max(1, Rate/10)).
	Rate  float64
	Burst int
	// QueueCap bounds the tenant's admitted-but-unfed queue (default 64).
	// A full queue answers Slowdown(queue), never a silent drop.
	QueueCap int
	// Priority orders tenants for feeding and degradation: higher feeds
	// first, and while the server is mid-heal tenants with Priority below
	// the server's ShedBelow threshold are shed with Slowdown(degraded).
	Priority int
}

func (c TenantConfig) withDefaults() TenantConfig {
	if c.Burst <= 0 {
		c.Burst = 1
		if b := int(c.Rate / 10); b > 1 {
			c.Burst = b
		}
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	return c
}

// batch is one admitted Submit moving through the pipeline: tenant queue →
// in-flight epoch → ack. A batch admitted once is never silently dropped —
// it either commits (and is acked) or survives a heal by being requeued.
type batch struct {
	tn  *tenant
	seq uint64 // client batch sequence, contiguous per tenant
	// ev is the decoded Submit; its events' Keys and Vals are carved from
	// the keys and vals slabs, which the batch keeps across recycling.
	ev   []types.Event
	keys []types.Key
	vals []types.Value

	// firstSeq is the assigned global event sequence; set once, kept
	// across heal requeues so re-fed batches replay identically.
	firstSeq uint64
	seqed    bool

	submitted time.Time // first admission, for client-observed ack lag

	// j is the batch's journey when sampled (nil otherwise; every stamp
	// on it is nil-safe).
	j *journey.J
}

// batchPool recycles batches with their decode memory. A batch goes back
// exactly when nothing can read it again: at once when admission refuses
// it, and otherwise once its epoch falls below the committed frontier (a
// heal re-feeds only epochs at or above it).
var batchPool = sync.Pool{New: func() any { return new(batch) }}

// recycle returns b to batchPool, keeping only its storage.
func (b *batch) recycle() {
	*b = batch{ev: b.ev[:0], keys: b.keys[:0], vals: b.vals[:0]}
	batchPool.Put(b)
}

// Admission verdicts.
type verdict int

const (
	vAccept verdict = iota
	// vDupAcked: at or below the acked watermark — answer with an
	// immediate duplicate Ack (the reconnect path).
	vDupAcked
	// vDupPending: already admitted, not yet committed — silent; the real
	// ack arrives when the covering epoch commits.
	vDupPending
	// vOutOfOrder: gap in the sequence — Slowdown(order) with resend-from.
	vOutOfOrder
	// vShed: server mid-heal and the tenant is below the shed threshold.
	vShed
	// vThrottle: token bucket empty.
	vThrottle
	// vQueueFull: ingest queue at capacity.
	vQueueFull
)

// tenantStats is a snapshot of one tenant's counters for the /tenants view.
type tenantStats struct {
	Name      string  `json:"name"`
	Priority  int     `json:"priority"`
	Watermark uint64  `json:"watermark"`
	MaxSeen   uint64  `json:"max_seen"`
	Queue     int     `json:"queue"`
	QueueCap  int     `json:"queue_cap"`
	MaxQueue  int     `json:"max_queue"`
	Pending   int     `json:"pending"`
	Accepted  int64   `json:"accepted"`
	Acked     int64   `json:"acked"`
	DupAcked  int64   `json:"dup_acked"`
	Throttled int64   `json:"throttled"`
	QueueFull int64   `json:"queue_full"`
	Shed      int64   `json:"shed"`
	OutOfOrd  int64   `json:"out_of_order"`
	Tokens    float64 `json:"tokens"`
}

// tenant is one tenant's runtime. Its mutex guards everything below it;
// sessions (admission), the pump (feeding, acking), and the /tenants view
// all take it briefly and never while holding another lock.
type tenant struct {
	cfg TenantConfig

	mu         sync.Mutex
	tokens     float64
	lastRefill time.Time
	queue      []*batch          // admitted, not yet fed (FIFO)
	pending    map[uint64]*batch // fed, awaiting commit (batch seq → batch)
	watermark  uint64            // highest acked batch sequence
	maxSeen    uint64            // highest admitted batch sequence
	sess       *session          // current session for acks (latest Hello wins)

	maxQueue  int
	accepted  int64
	acked     int64
	dupAcked  int64
	throttled int64
	queueFull int64
	shed      int64
	outOfOrd  int64
}

func newTenant(cfg TenantConfig, watermark uint64, now time.Time) *tenant {
	c := cfg.withDefaults()
	return &tenant{
		cfg:        c,
		tokens:     float64(c.Burst),
		lastRefill: now,
		pending:    map[uint64]*batch{},
		watermark:  watermark,
		maxSeen:    watermark,
	}
}

// refill tops up the token bucket; callers hold t.mu.
func (t *tenant) refill(now time.Time) {
	if t.cfg.Rate <= 0 {
		return
	}
	t.tokens += now.Sub(t.lastRefill).Seconds() * t.cfg.Rate
	if max := float64(t.cfg.Burst); t.tokens > max {
		t.tokens = max
	}
	t.lastRefill = now
}

// admit runs the admission state machine for one Submit. The order is
// load-bearing: dedupe checks come before contiguity (a replayed batch must
// be answered, not rejected as out of order), contiguity before any
// resource verdict (a gap batch must never consume tokens or queue space,
// or the high-watermark would stop meaning "contiguous acked prefix"), and
// shedding before rate/queue (a mid-heal rejection should say "degraded",
// the reason the client can act on, not a coincidental "rate").
// rec/sampled carry the journey tracer: a sampled batch's rejections note
// the first-attempt time (so the eventual journey's admission stage covers
// the token-bucket wait across retries) and its acceptance opens the
// journey. An accepted b joins the queue; the caller recycles a refused one.
func (t *tenant) admit(seq uint64, b *batch, degraded bool, shedBelow int, now time.Time, rec *journey.Recorder, sampled bool) verdict {
	t.mu.Lock()
	defer t.mu.Unlock()
	if seq <= t.watermark {
		t.dupAcked++
		return vDupAcked
	}
	if seq <= t.maxSeen {
		return vDupPending
	}
	if seq != t.maxSeen+1 {
		t.outOfOrd++
		if sampled {
			rec.NoteRejected(t.cfg.Name, seq)
		}
		return vOutOfOrder
	}
	if degraded && t.cfg.Priority < shedBelow {
		t.shed++
		if sampled {
			rec.NoteRejected(t.cfg.Name, seq)
		}
		return vShed
	}
	if t.cfg.Rate > 0 {
		t.refill(now)
		if t.tokens < 1 {
			t.throttled++
			if sampled {
				rec.NoteRejected(t.cfg.Name, seq)
			}
			return vThrottle
		}
	}
	if len(t.queue) >= t.cfg.QueueCap {
		t.queueFull++
		if sampled {
			rec.NoteRejected(t.cfg.Name, seq)
		}
		return vQueueFull
	}
	if t.cfg.Rate > 0 {
		t.tokens--
	}
	t.maxSeen = seq
	b.tn, b.seq, b.submitted = t, seq, now
	if sampled {
		b.j = rec.Start(t.cfg.Name, seq)
	}
	t.queue = append(t.queue, b)
	if len(t.queue) > t.maxQueue {
		t.maxQueue = len(t.queue)
	}
	t.accepted++
	return vAccept
}

// takeFitting pops, under one lock, as many whole batches off the queue
// front as fit into room events (the pump's gather step) and returns them
// with the room they leave. A batch larger than the room is taken only as
// the epoch's very first (first set and nothing taken yet), so an oversized
// batch cannot wedge its queue; otherwise it stays queued for the next
// epoch and the returned room is zero — nothing may be gathered past a
// batch that was put off, or feeding would reorder.
func (t *tenant) takeFitting(room int, first bool) ([]*batch, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for n < len(t.queue) && room > 0 {
		size := len(t.queue[n].ev)
		if size > room && !(first && n == 0) {
			room = 0
			break
		}
		room -= size
		n++
	}
	if n == 0 {
		return nil, room
	}
	out := make([]*batch, n)
	copy(out, t.queue)
	t.queue = append(t.queue[:0], t.queue[n:]...)
	for _, b := range out {
		t.pending[b.seq] = b
	}
	return out, room
}

// requeue pushes heal-surviving batches back onto the queue front in their
// original order, keeping their assigned sequences (ascending seqs must be
// re-fed before anything admitted later).
func (t *tenant) requeue(batches []*batch) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, b := range batches {
		delete(t.pending, b.seq)
	}
	t.queue = append(append(make([]*batch, 0, len(batches)+len(t.queue)), batches...), t.queue...)
	if len(t.queue) > t.maxQueue {
		t.maxQueue = len(t.queue)
	}
}

// ack marks one batch durably committed: drop it from pending, advance the
// watermark, and return the session to notify (nil when disconnected — the
// client learns from HelloAck's watermark on reconnect).
func (t *tenant) ack(b *batch) *session {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.pending, b.seq)
	if b.seq > t.watermark {
		t.watermark = b.seq
	}
	t.acked++
	return t.sess
}

// attach installs a session as the tenant's ack target (latest Hello wins)
// and returns the acked watermark for the HelloAck.
func (t *tenant) attach(s *session) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sess = s
	return t.watermark
}

// detach clears the session if it is still the current one.
func (t *tenant) detach(s *session) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sess == s {
		t.sess = nil
	}
}

// resendFrom is the next sequence admission will accept — what an
// out-of-order Slowdown tells the client to resend from.
func (t *tenant) resendFrom() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.maxSeen + 1
}

// retryAfterMs estimates when the token bucket next holds a whole token,
// clamped to [1ms, 1s].
func (t *tenant) retryAfterMs() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cfg.Rate <= 0 {
		return 1
	}
	deficit := 1 - t.tokens
	if deficit <= 0 {
		return 1
	}
	ms := uint64(deficit / t.cfg.Rate * 1000)
	if ms < 1 {
		ms = 1
	}
	if ms > 1000 {
		ms = 1000
	}
	return ms
}

// Watermark returns the tenant's acked high-watermark.
func (t *tenant) Watermark() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.watermark
}

func (t *tenant) stats() tenantStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return tenantStats{
		Name: t.cfg.Name, Priority: t.cfg.Priority,
		Watermark: t.watermark, MaxSeen: t.maxSeen,
		Queue: len(t.queue), QueueCap: t.cfg.QueueCap, MaxQueue: t.maxQueue,
		Pending: len(t.pending), Accepted: t.accepted, Acked: t.acked,
		DupAcked: t.dupAcked, Throttled: t.throttled, QueueFull: t.queueFull,
		Shed: t.shed, OutOfOrd: t.outOfOrd, Tokens: t.tokens,
	}
}
