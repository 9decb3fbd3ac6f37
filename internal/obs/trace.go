package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span categories. The engine emits CatEpoch spans for the five epoch
// phases (preprocess, construct, execute, commit, snapshot) and CatRecovery
// spans for the four recovery phases (log-read, rebuild, replay, reseat);
// harness binaries add their own categories (e.g. "bench").
const (
	CatEpoch    = "epoch"
	CatRecovery = "recovery"
)

// SpanEvent is one completed span as stored in a lane's ring.
type SpanEvent struct {
	// Name is the phase ("execute", "replay", ...).
	Name string
	// Cat groups spans for trace viewers (CatEpoch, CatRecovery, ...).
	Cat string
	// Lane is the emitting lane (worker / goroutine slot).
	Lane int
	// Epoch tags the span with the epoch it belongs to (0 when n/a).
	Epoch uint64
	// Start is the offset from the tracer's epoch; Dur the span length.
	Start time.Duration
	Dur   time.Duration
	// Args carries extra key/values into the Chrome trace's args pane
	// (stall attribution, critical-path marks). Usually nil.
	Args map[string]any
}

// laneRing is one lane's fixed-capacity span buffer. Each lane has a
// dedicated producer by convention (the engine driver, one scheduler
// worker), so the mutex is essentially uncontended except while /trace
// drains.
type laneRing struct {
	mu      sync.Mutex
	buf     []SpanEvent
	n       int    // valid entries, ≤ cap
	next    int    // write cursor
	dropped uint64 // spans overwritten before being drained
}

func (r *laneRing) add(ev SpanEvent) {
	r.mu.Lock()
	if r.n == len(r.buf) {
		r.dropped++ // overwriting the oldest undrained span
	} else {
		r.n++
	}
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	r.mu.Unlock()
}

// drain appends the ring's contents to out in emission order and resets it.
func (r *laneRing) drain(out []SpanEvent) ([]SpanEvent, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	dropped := r.dropped
	r.n, r.next, r.dropped = 0, 0, 0
	return out, dropped
}

// Tracer is the structured span tracer: per-lane ring buffers of completed
// spans, drained on demand and exportable as Chrome trace_event JSON.
//
// A nil *Tracer is the disabled tracer: Begin returns an inert Span and
// End is a no-op, so instrumented code calls the tracer unconditionally
// and pays only a nil check when tracing is off.
type Tracer struct {
	lanes []laneRing
	epoch time.Time
}

// NewTracer creates a tracer with the given number of lanes, each holding
// up to perLane spans (oldest overwritten first). Lanes beyond the count
// wrap around, so any small non-negative lane index is always valid.
func NewTracer(lanes, perLane int) *Tracer {
	if lanes < 1 {
		lanes = 1
	}
	if perLane < 1 {
		perLane = 4096
	}
	t := &Tracer{lanes: make([]laneRing, lanes), epoch: time.Now()}
	for i := range t.lanes {
		t.lanes[i].buf = make([]SpanEvent, perLane)
	}
	return t
}

// Span is an open span returned by Begin; End completes and records it.
// The zero Span (from a nil tracer) is inert.
type Span struct {
	t     *Tracer
	lane  int
	epoch uint64
	name  string
	cat   string
	start time.Duration
}

// Begin opens a span on the given lane. Safe on a nil tracer.
func (t *Tracer) Begin(lane int, cat, name string, epoch uint64) Span {
	if t == nil {
		return Span{}
	}
	if lane < 0 {
		lane = 0
	}
	return Span{
		t:     t,
		lane:  lane % len(t.lanes),
		epoch: epoch,
		name:  name,
		cat:   cat,
		start: time.Since(t.epoch),
	}
}

// End completes the span and records it in its lane's ring. Safe on the
// zero Span.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.lanes[s.lane].add(SpanEvent{
		Name:  s.name,
		Cat:   s.cat,
		Lane:  s.lane,
		Epoch: s.epoch,
		Start: s.start,
		Dur:   time.Since(s.t.epoch) - s.start,
	})
}

// Drain removes and returns every recorded span, ordered by start time,
// together with the number of spans lost to ring overwrites since the
// previous drain. Safe on a nil tracer (returns nothing).
func (t *Tracer) Drain() ([]SpanEvent, uint64) {
	if t == nil {
		return nil, 0
	}
	var out []SpanEvent
	var dropped uint64
	for i := range t.lanes {
		var d uint64
		out, d = t.lanes[i].drain(out)
		dropped += d
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out, dropped
}

// chromeEvent is one trace_event entry in Chrome's JSON trace format
// (ph "X" = complete event; ts/dur in microseconds).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level Chrome trace file layout.
type chromeTrace struct {
	TraceEvents []chromeEvent  `json:"traceEvents"`
	Metadata    map[string]any `json:"metadata,omitempty"`
}

// ExportChrome writes the spans as a Chrome trace_event JSON document
// loadable in chrome://tracing and Perfetto. Lane maps to tid; span start
// offsets map to ts.
func ExportChrome(w io.Writer, events []SpanEvent, dropped uint64) error {
	out := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(events))}
	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.Name,
			Cat:  ev.Cat,
			Ph:   "X",
			Ts:   float64(ev.Start.Nanoseconds()) / 1e3,
			Dur:  float64(ev.Dur.Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  ev.Lane,
		}
		if ev.Epoch != 0 || len(ev.Args) > 0 {
			ce.Args = make(map[string]any, len(ev.Args)+1)
			if ev.Epoch != 0 {
				ce.Args["epoch"] = ev.Epoch
			}
			for k, v := range ev.Args {
				ce.Args[k] = v
			}
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	if dropped > 0 {
		out.Metadata = map[string]any{"dropped_spans": dropped}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}
