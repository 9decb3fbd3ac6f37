// Package obs is the observability layer: a structured span tracer for
// epoch and recovery phases, a metrics registry (counters, gauges,
// sliding-window histograms, attached byte/health/scheduler providers),
// and a live telemetry HTTP endpoint exposing /metrics, /trace, and
// net/http/pprof.
//
// The package is built around the nil-object pattern: a nil *Observer,
// *Tracer, or *Registry is the disabled instrument, and every method is
// safe (and near-free) to call on it. Instrumented code therefore calls
// unconditionally — there is no "if enabled" branching in the engine,
// scheduler, or shard hot paths, and with observability off the cost
// is a nil check.
package obs

import "sync"

// Observer bundles the halves of the layer so components thread one
// pointer. A nil *Observer disables all of them.
type Observer struct {
	Reg    *Registry
	Tracer *Tracer
	TL     *Timeline

	viewMu sync.Mutex
	views  map[string]func() any
}

// NewObserver creates an observer with a fresh registry, a tracer of the
// given shape (see NewTracer), and an incident timeline.
func NewObserver(lanes, spansPerLane int) *Observer {
	return &Observer{
		Reg:    NewRegistry(),
		Tracer: NewTracer(lanes, spansPerLane),
		TL:     NewTimeline(0),
	}
}

// Registry returns the observer's registry, nil when disabled.
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Reg
}

// T returns the observer's tracer, nil when disabled.
func (o *Observer) T() *Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}

// Timeline returns the observer's incident timeline, nil when disabled.
func (o *Observer) Timeline() *Timeline {
	if o == nil {
		return nil
	}
	return o.TL
}

// Begin opens a span on the observer's tracer; inert when disabled.
func (o *Observer) Begin(lane int, cat, name string, epoch uint64) Span {
	return o.T().Begin(lane, cat, name, epoch)
}

// SetView registers (or replaces) a named pull-style view: fn is invoked
// at serve time and its result rendered as JSON. Views let subsystems
// publish structured reports (the recovery profile behind /recovery)
// without obs importing them — the dependency points the other way.
// Nil-safe; a nil fn removes the view.
func (o *Observer) SetView(name string, fn func() any) {
	if o == nil {
		return
	}
	o.viewMu.Lock()
	defer o.viewMu.Unlock()
	if fn == nil {
		delete(o.views, name)
		return
	}
	if o.views == nil {
		o.views = make(map[string]func() any)
	}
	o.views[name] = fn
}

// View returns the named view's current value. ok is false when the view
// is unset (or the observer disabled).
func (o *Observer) View(name string) (any, bool) {
	if o == nil {
		return nil, false
	}
	o.viewMu.Lock()
	fn := o.views[name]
	o.viewMu.Unlock()
	if fn == nil {
		return nil, false
	}
	return fn(), true
}
