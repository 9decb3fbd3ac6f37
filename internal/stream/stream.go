// Package stream is the integration surface for continuous operation: it
// connects an input Source and an output Sink to a core.System and drives
// processing epoch by epoch, forwarding exactly-once outputs downstream as
// their durability gates open.
//
// In the paper's deployment picture (Section II-C) the node is "connected
// to external sources/sinks through a reliable network"; Source and Sink
// are those endpoints. A deployment supplies its own implementations
// (message queue consumers, transactional sinks); the package ships
// adapters for the common cases — a workload generator source, a bounded
// source, function and memory sinks.
package stream

import (
	"fmt"
	"slices"

	"morphstreamr/internal/core"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// Source yields input events in timestamp order. Next returns ok=false
// when the stream is exhausted (a batch boundary is still honoured).
//
// After a crash the engine replays persisted inputs itself; the Source is
// only asked for events the engine has never seen, so implementations
// need no rewind support.
type Source interface {
	Next() (types.Event, bool)
}

// Sink receives released outputs, in release order, exactly once.
type Sink interface {
	Emit(outs []types.Output) error
}

// Pipeline drives a System from a Source to a Sink.
type Pipeline struct {
	Sys    *core.System
	Source Source
	Sink   Sink
	// BatchSize overrides the system's configured punctuation interval
	// when positive.
	BatchSize int

	emitted int // ledger chunks already forwarded to the sink
}

// NewPipeline assembles a pipeline. The sink starts at the system's
// current delivery ledger position, so re-attaching after recovery never
// re-emits outputs that reached a sink before the crash.
func NewPipeline(sys *core.System, src Source, sink Sink) *Pipeline {
	return &Pipeline{Sys: sys, Source: src, Sink: sink, emitted: len(sys.Engine.DeliveredChunks())}
}

// Step pulls one epoch's worth of events, processes it, and forwards any
// newly released outputs. It returns done=true when the source is
// exhausted (any final partial batch is still processed first).
func (p *Pipeline) Step() (done bool, err error) {
	n := p.BatchSize
	if n <= 0 {
		n = p.Sys.Cfg.BatchSize
	}
	batch := make([]types.Event, 0, n)
	for len(batch) < n {
		ev, ok := p.Source.Next()
		if !ok {
			done = true
			break
		}
		batch = append(batch, ev)
	}
	if len(batch) > 0 {
		if err := p.Sys.ProcessBatch(batch); err != nil {
			return done, fmt.Errorf("stream: %w", err)
		}
	}
	if err := p.flush(); err != nil {
		return done, err
	}
	return done, nil
}

// Run steps until the source is exhausted or maxEpochs have been
// processed (0 = unlimited).
func (p *Pipeline) Run(maxEpochs int) error {
	for i := 0; maxEpochs <= 0 || i < maxEpochs; i++ {
		done, err := p.Step()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
	return nil
}

// flush forwards outputs released since the last flush.
func (p *Pipeline) flush() error {
	chunks := p.Sys.Engine.DeliveredChunks()
	if p.emitted >= len(chunks) {
		return nil
	}
	if err := p.Sink.Emit(slices.Concat(chunks[p.emitted:]...)); err != nil {
		return fmt.Errorf("stream: sink: %w", err)
	}
	p.emitted = len(chunks)
	return nil
}

// GeneratorSource adapts a workload generator into a (bounded or
// unbounded) Source.
type GeneratorSource struct {
	Gen workload.Generator
	// Limit bounds the total events yielded; 0 means unbounded.
	Limit int

	yielded int
}

// Next implements Source.
func (g *GeneratorSource) Next() (types.Event, bool) {
	if g.Limit > 0 && g.yielded >= g.Limit {
		return types.Event{}, false
	}
	g.yielded++
	return g.Gen.Next(), true
}

// SliceSource yields a fixed set of events.
type SliceSource struct {
	Events []types.Event
	pos    int
}

// Next implements Source.
func (s *SliceSource) Next() (types.Event, bool) {
	if s.pos >= len(s.Events) {
		return types.Event{}, false
	}
	ev := s.Events[s.pos]
	s.pos++
	return ev, true
}

// Skip advances past events the engine already consumed (used when
// re-attaching a SliceSource after recovery).
func (s *SliceSource) Skip(n int) { s.pos += n }

// MemorySink accumulates outputs in memory.
type MemorySink struct {
	Outputs []types.Output
}

// Emit implements Sink.
func (m *MemorySink) Emit(outs []types.Output) error {
	m.Outputs = append(m.Outputs, outs...)
	return nil
}

// FuncSink adapts a function into a Sink.
type FuncSink func(outs []types.Output) error

// Emit implements Sink.
func (f FuncSink) Emit(outs []types.Output) error { return f(outs) }
