// Package layers is the traced half of the benchmark: timing decorators
// around the server's backend and devices, the journey recorder, probes
// that replay the run's own epochs through each inner layer, and the span
// store they all write to. It may import any package of the module; the
// runner may not, so that a refactor of an inner layer can break the traced
// run without breaking the gated one (build with -tags notrace).
package layers

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The layers a span can belong to, in path order.
const (
	Client    = "client"
	Serve     = "serve"
	Partition = "partition"
	Shard     = "shard"
	Engine    = "engine"
	TPG       = "tpg"
	Scheduler = "scheduler"
	FT        = "ft"
	Storage   = "storage"
	Store     = "store"
	Recovery  = "recovery"
	Runtime   = "runtime"
)

// Layers lists every layer; a complete trace has a span of each.
func Layers() []string {
	return []string{Client, Serve, Partition, Shard, Engine, TPG, Scheduler, FT, Storage, Store, Recovery, Runtime}
}

// Span is one timed call at a layer boundary.
type Span struct {
	Layer string
	Name  string
	Start time.Time
	Dur   time.Duration
	// Index is the span's place in the store; Parent is the index of the
	// span that caused this one, -1 for none.
	Index, Parent int
	// ID ties the spans of one request together: a batch sequence for
	// client and journey spans, an epoch for feeds and their appends.
	ID uint64
	// N is the span's work count: events of a feed, bytes of an append.
	N int
}

// End is when the span ended.
func (s Span) End() time.Time { return s.Start.Add(s.Dur) }

// maxSpans bounds the store; a 60 s saturate run records about 600k.
const maxSpans = 2 << 20

// Tracer keeps spans in memory until the run ends.
type Tracer struct {
	mu      sync.Mutex
	spans   []Span
	dropped int
}

// Add records a finished span and returns its index (-1 when the store is
// full).
func (t *Tracer) Add(s Span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	s.Index = len(t.spans)
	t.spans = append(t.spans, s)
	return s.Index
}

// Time runs fn as a span and returns how long it took.
func (t *Tracer) Time(layer, name string, parent int, id uint64, n int, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	t.Add(Span{Layer: layer, Name: name, Start: start, Dur: d, Parent: parent, ID: id, N: n})
	return d
}

// SetDur closes a span that was added open.
func (t *Tracer) SetDur(i int, d time.Duration, n int) {
	if i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].Dur, t.spans[i].N = d, n
	t.mu.Unlock()
}

// Spans returns a copy of the store.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Select returns the spans of one layer and name that start in [from, to);
// an empty name matches all, a zero to means no upper limit.
func Select(spans []Span, layer, name string, from, to time.Time) []Span {
	var out []Span
	for _, s := range spans {
		if s.Layer != layer || (name != "" && s.Name != name) {
			continue
		}
		if s.Start.Before(from) || (!to.IsZero() && !s.Start.Before(to)) {
			continue
		}
		out = append(out, s)
	}
	return out
}

// Covered is the length of the union of the spans' intervals: what a set of
// child spans, some of them concurrent, takes out of its parent's time.
func Covered(spans []Span) time.Duration {
	s := append([]Span(nil), spans...)
	sort.Slice(s, func(a, b int) bool { return s[a].Start.Before(s[b].Start) })
	var total time.Duration
	var end time.Time
	for _, sp := range s {
		if sp.Start.After(end) {
			total += sp.Dur
			end = sp.End()
		} else if sp.End().After(end) {
			total += sp.End().Sub(end)
			end = sp.End()
		}
	}
	return total
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs since the first span
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome writes the store as a Chrome trace (chrome://tracing,
// Perfetto): one thread row per layer.
func (t *Tracer) WriteChrome(path string) error {
	spans := t.Spans()
	tid := map[string]int{}
	for i, l := range Layers() {
		tid[l] = i + 1
	}
	var origin time.Time
	for _, s := range spans {
		if origin.IsZero() || s.Start.Before(origin) {
			origin = s.Start
		}
	}
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(s.Start.Sub(origin)) / 1e3,
			Dur: float64(s.Dur) / 1e3,
			Pid: 1, Tid: tid[s.Layer],
			Args: map[string]any{"span": s.Index, "parent": s.Parent, "id": s.ID, "n": s.N},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{
		"traceEvents": events, "displayTimeUnit": "ms", "droppedSpans": t.dropped,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
