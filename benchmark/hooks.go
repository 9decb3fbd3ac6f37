package main

import (
	"time"

	"morphstreamr/internal/serve"
	"morphstreamr/internal/storage"
)

// tracer is what the traced run adds around the gated run: decorators on
// the way in, per-layer metrics and the span file on the way out. Its
// implementation is in trace_on.go and benchmark/layers, which may break
// with the inner layers; -tags notrace builds the runner without it.
type tracer interface {
	Device(role string, d storage.Device) storage.Device
	Server(cfg *serve.Config, be *serve.GroupBackend)
	// Recovery runs one fixture recovery as a span; ReadMsPerRecovery is
	// the device read time inside those spans.
	Recovery(fn func())
	ReadMsPerRecovery() float64
	ClientSpan(lane int, seq uint64, due, ack time.Time)
	RuntimeSpan(name string, start time.Time, d time.Duration, n int)
	// Report returns the metrics of the layers below the server and the
	// layer budget table.
	Report(sp *spec, seed int64, r *rig, w *window) (map[string]float64, string, error)
	WriteTrace(path string) error
}

var newTracer func() tracer
