package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// TimelineEvent is one entry in the process timeline: a serve-layer heal,
// an SLO breach edge, a Slowdown burst, a
// journey-derived stage-latency sample — anything a human reconstructing
// an incident wants on one ordered axis.
type TimelineEvent struct {
	// AtMs is the offset from the timeline epoch in milliseconds.
	AtMs float64 `json:"at_ms"`
	// Wall is the wall-clock time, RFC3339Nano (for cross-host merges).
	Wall string `json:"wall"`
	// Source names the emitting subsystem ("serve", "slo", "journey",
	// ...).
	Source string `json:"source"`
	// Kind is the event class ("heal-begin", "heal-end", "heal-failed",
	// "slowdown", "breach-begin", "breach-end", "stage-p99", ...).
	Kind string `json:"kind"`
	// Detail is the one-line human rendering.
	Detail string `json:"detail"`
	// Fields carries structured extras (MTTR, cause, per-stage p99s).
	Fields map[string]any `json:"fields,omitempty"`

	at time.Time
}

// anomalyKinds mark events that open (or extend) an incident; everything
// else is context that is merged into whichever incident covers it.
var anomalyKinds = map[string]bool{
	"heal-begin":   true,
	"heal-end":     true,
	"heal-failed":  true,
	"breach-begin": true,
	"breach-end":   true,
	"kill":         true,
	"shard-dead":   true,
}

// Timeline is a bounded, thread-safe, append-only event log with a fixed
// epoch, shared by every subsystem through the Observer. A nil *Timeline
// is the disabled timeline: Add is a no-op, Events returns nothing — the
// same nil-object contract as the rest of the package.
type Timeline struct {
	mu      sync.Mutex
	epoch   time.Time
	buf     []TimelineEvent
	n       int // valid entries, ≤ cap
	next    int // write cursor
	dropped uint64
	last    map[string]time.Time // AddLimited rate-limit state
}

// NewTimeline creates a timeline holding up to capacity events (oldest
// overwritten first; capacity < 1 defaults to 4096).
func NewTimeline(capacity int) *Timeline {
	if capacity < 1 {
		capacity = 4096
	}
	return &Timeline{
		epoch: time.Now(),
		buf:   make([]TimelineEvent, capacity),
		last:  make(map[string]time.Time),
	}
}

// Add appends one event. Nil-safe.
func (t *Timeline) Add(source, kind, detail string, fields map[string]any) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.add(now, source, kind, detail, fields)
	t.mu.Unlock()
}

// AddLimited appends one event unless another with the same source+kind
// landed within minGap (burst suppression for high-rate signals like
// Slowdown frames). It reports whether the event was recorded. Nil-safe.
func (t *Timeline) AddLimited(minGap time.Duration, source, kind, detail string, fields map[string]any) bool {
	if t == nil {
		return false
	}
	now := time.Now()
	key := source + "\x00" + kind
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev, ok := t.last[key]; ok && now.Sub(prev) < minGap {
		t.dropped++
		return false
	}
	t.last[key] = now
	t.add(now, source, kind, detail, fields)
	return true
}

// add appends under t.mu.
func (t *Timeline) add(now time.Time, source, kind, detail string, fields map[string]any) {
	ev := TimelineEvent{
		AtMs:   float64(now.Sub(t.epoch)) / float64(time.Millisecond),
		Wall:   now.Format(time.RFC3339Nano),
		Source: source,
		Kind:   kind,
		Detail: detail,
		Fields: fields,
		at:     now,
	}
	if t.n == len(t.buf) {
		t.dropped++
	} else {
		t.n++
	}
	t.buf[t.next] = ev
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
	}
}

// Events returns a time-ordered snapshot of the retained events (the log
// is not drained; /incidents is a view, not a sink). Nil-safe.
func (t *Timeline) Events() []TimelineEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]TimelineEvent, 0, t.n)
	start := t.next - t.n
	if start < 0 {
		start += len(t.buf)
	}
	for i := 0; i < t.n; i++ {
		out = append(out, t.buf[(start+i)%len(t.buf)])
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(a, b int) bool { return out[a].AtMs < out[b].AtMs })
	return out
}

// Dropped returns how many events were lost to ring overwrites or rate
// limiting. Nil-safe.
func (t *Timeline) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Epoch returns the timeline's zero offset (zero time when disabled).
func (t *Timeline) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// Incident is one reconstructed incident: a cluster of anomaly events
// (heals, state transitions, SLO breach edges) with every context event
// that falls inside its span merged in, ordered.
type Incident struct {
	Seq     int     `json:"seq"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
	// Open reports whether the incident's last anomaly is a begin-edge
	// with no matching end (still in progress at snapshot time).
	Open bool `json:"open"`
	// Trigger is the first anomaly event's source/kind/detail line.
	Trigger string `json:"trigger"`
	// Events is the merged, ordered event list (anomalies + context).
	Events []TimelineEvent `json:"events"`
}

// BuildIncidents reconstructs incidents from a time-ordered event list:
// anomaly events closer than quiet form one incident; context events
// (slowdown bursts, journey stage-p99 samples) within an incident's span
// are merged into it. Events outside every incident are dropped from the
// incident view (the flat event list remains available alongside).
func BuildIncidents(events []TimelineEvent, quiet time.Duration) []Incident {
	quietMs := float64(quiet) / float64(time.Millisecond)
	if quietMs <= 0 {
		quietMs = 1000
	}
	var incidents []Incident
	var cur *Incident
	for _, ev := range events {
		if !anomalyKinds[ev.Kind] {
			continue
		}
		if cur != nil && ev.AtMs-cur.EndMs <= quietMs {
			cur.EndMs = ev.AtMs
			continue
		}
		if cur != nil {
			incidents = append(incidents, *cur)
		}
		cur = &Incident{
			Seq:     len(incidents) + 1,
			StartMs: ev.AtMs,
			EndMs:   ev.AtMs,
			Trigger: ev.Source + "/" + ev.Kind + ": " + ev.Detail,
		}
	}
	if cur != nil {
		incidents = append(incidents, *cur)
	}
	// Merge every event inside each incident's span (with a small margin
	// so context immediately around the edges is kept), and decide open
	// incidents by unmatched begin-edges.
	const marginMs = 50
	for i := range incidents {
		inc := &incidents[i]
		depth := 0
		for _, ev := range events {
			if ev.AtMs < inc.StartMs-marginMs || ev.AtMs > inc.EndMs+marginMs {
				continue
			}
			inc.Events = append(inc.Events, ev)
			switch ev.Kind {
			case "heal-begin", "breach-begin":
				depth++
			case "heal-end", "heal-failed", "breach-end":
				depth--
			}
		}
		inc.Open = depth > 0
	}
	return incidents
}

// IncidentReport is the /incidents document: the reconstructed incidents,
// the flat ordered event list they were built from, and ring accounting.
type IncidentReport struct {
	Incidents []Incident      `json:"incidents"`
	Events    []TimelineEvent `json:"events"`
	Dropped   uint64          `json:"dropped_events"`
}

// Report builds the /incidents document with the given quiet gap.
func (t *Timeline) Report(quiet time.Duration) IncidentReport {
	events := t.Events()
	return IncidentReport{
		Incidents: BuildIncidents(events, quiet),
		Events:    events,
		Dropped:   t.Dropped(),
	}
}

// ExportTimelineChrome writes the timeline as a Chrome trace_event JSON
// document: every event an instant ("i") on the lane of its source, and
// every reconstructed incident a complete span ("X") on lane 0 — so a
// kill-and-heal renders as one bar with the state flips, heals, breach
// edges, and latency samples dotted inside it.
func ExportTimelineChrome(w io.Writer, rep IncidentReport) error {
	lanes := map[string]int{"incident": 0}
	laneOf := func(src string) int {
		if id, ok := lanes[src]; ok {
			return id
		}
		id := len(lanes)
		lanes[src] = id
		return id
	}
	out := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(rep.Events)+len(rep.Incidents))}
	for _, inc := range rep.Incidents {
		dur := (inc.EndMs - inc.StartMs) * 1e3
		if dur <= 0 {
			dur = 1
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: inc.Trigger,
			Cat:  "incident",
			Ph:   "X",
			Ts:   inc.StartMs * 1e3,
			Dur:  dur,
			Pid:  1,
			Tid:  0,
			Args: map[string]any{"seq": inc.Seq, "open": inc.Open, "events": len(inc.Events)},
		})
	}
	for _, ev := range rep.Events {
		ce := chromeEvent{
			Name: ev.Kind + ": " + ev.Detail,
			Cat:  ev.Source,
			Ph:   "i",
			Ts:   ev.AtMs * 1e3,
			Pid:  1,
			Tid:  laneOf(ev.Source),
		}
		if len(ev.Fields) > 0 {
			ce.Args = ev.Fields
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	if rep.Dropped > 0 {
		out.Metadata = map[string]any{"dropped_events": rep.Dropped}
	}
	return json.NewEncoder(w).Encode(&out)
}
