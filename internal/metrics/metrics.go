// Package metrics defines the measurement vocabulary of the evaluation:
// the runtime overhead breakdown of Figure 12d (I/O, tracking, sync), the
// recovery-time breakdown of Figure 11 (reload, construct, abort, explore,
// execute, wait), throughput accounting, and byte/memory accounting for the
// storage-footprint study of Figure 12c.
//
// Duration counters are plain values accumulated by a single owner (the
// engine or a recovery driver); per-worker quantities are recorded in
// per-worker slots and merged at barriers. Byte accounting is mutex-backed
// because the telemetry endpoint reads it while the engine writes it.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// RuntimeBreakdown decomposes the fault-tolerance overhead paid during
// normal processing, relative to native execution (Figure 12d).
type RuntimeBreakdown struct {
	// IO is time spent serialising and persisting durable artifacts:
	// input events, log records, views, snapshots.
	IO time.Duration
	// Tracking is time spent observing execution to build log records:
	// dependency tracking, LSN vector computation, view collection, and
	// selective-logging partitioning.
	Tracking time.Duration
	// Sync is time spent synchronising at punctuation markers for
	// consistent snapshots and group commit.
	Sync time.Duration
}

// Total returns the sum of all components.
func (r RuntimeBreakdown) Total() time.Duration { return r.IO + r.Tracking + r.Sync }

// Add accumulates another breakdown into r.
func (r *RuntimeBreakdown) Add(o RuntimeBreakdown) {
	r.IO += o.IO
	r.Tracking += o.Tracking
	r.Sync += o.Sync
}

// String renders the breakdown as "io=... track=... sync=...".
func (r RuntimeBreakdown) String() string {
	return fmt.Sprintf("io=%v track=%v sync=%v", r.IO, r.Tracking, r.Sync)
}

// RecoveryBreakdown decomposes recovery time into the six operations of
// Figure 11's bar charts.
//
// Accounting convention: every component is aggregate thread-time across
// the configured W workers, the same convention the paper's stacked bars
// use. Parallel phases contribute the sum of their per-worker clocks
// (busy plus idle, so a fully utilised phase of wall length t contributes
// W*t). Single-threaded phases that occupy the whole machine — reloading
// logs, rebuilding dependency graphs — contribute W times their wall time
// to their own component (see ChargeSerial). Sequential redo under WAL is
// the one phase whose idle threads the paper attributes to wait time, and
// the WAL mechanism charges it that way explicitly. Dividing a total by W
// recovers wall-clock seconds; PerWorker does this for presentation.
type RecoveryBreakdown struct {
	// Reload is time reloading states, input events, and log records.
	Reload time.Duration
	// Construct is time identifying dependencies and building auxiliary
	// structures (TPGs, dependency graphs, LSN tables, view indexes).
	Construct time.Duration
	// Abort is time handling state transaction aborts.
	Abort time.Duration
	// Explore is time searching for ready operations to process.
	Explore time.Duration
	// Execute is time performing state accesses and user functions.
	Execute time.Duration
	// Wait is synchronisation/idle time, including load-imbalance stalls.
	Wait time.Duration
}

// Total returns the sum of all components.
func (r RecoveryBreakdown) Total() time.Duration {
	return r.Reload + r.Construct + r.Abort + r.Explore + r.Execute + r.Wait
}

// Add accumulates another breakdown into r.
func (r *RecoveryBreakdown) Add(o RecoveryBreakdown) {
	r.Reload += o.Reload
	r.Construct += o.Construct
	r.Abort += o.Abort
	r.Explore += o.Explore
	r.Execute += o.Execute
	r.Wait += o.Wait
}

// Components returns the breakdown as ordered (name, duration) pairs for
// table printing.
func (r RecoveryBreakdown) Components() []Component {
	return []Component{
		{"reload", r.Reload}, {"construct", r.Construct}, {"abort", r.Abort},
		{"explore", r.Explore}, {"execute", r.Execute}, {"wait", r.Wait},
	}
}

// String renders all six components.
func (r RecoveryBreakdown) String() string {
	parts := make([]string, 0, 6)
	for _, c := range r.Components() {
		parts = append(parts, fmt.Sprintf("%s=%v", c.Name, c.D))
	}
	return strings.Join(parts, " ")
}

// PerWorker scales the breakdown down to per-worker (≈ wall clock) time.
func (r RecoveryBreakdown) PerWorker(workers int) RecoveryBreakdown {
	if workers <= 1 {
		return r
	}
	w := time.Duration(workers)
	return RecoveryBreakdown{
		Reload: r.Reload / w, Construct: r.Construct / w, Abort: r.Abort / w,
		Explore: r.Explore / w, Execute: r.Execute / w, Wait: r.Wait / w,
	}
}

// Shares returns each component's fraction of the total as ordered
// (name, fraction) pairs — the normalised form of the paper's stacked
// bars, and the shape BENCH_recovery.json records per mechanism. A zero
// breakdown yields all-zero shares.
func (r RecoveryBreakdown) Shares() map[string]float64 {
	out := make(map[string]float64, 6)
	total := float64(r.Total())
	for _, c := range r.Components() {
		if total > 0 {
			out[c.Name] = float64(c.D) / total
		} else {
			out[c.Name] = 0
		}
	}
	return out
}

// Component is one named slice of a breakdown.
type Component struct {
	Name string
	D    time.Duration
}

// ChargeSerial adds a single-threaded phase of the given wall-clock length
// to *d under the aggregate-thread-time convention: the phase occupies the
// whole W-worker machine, so it contributes W times its wall time.
func ChargeSerial(d *time.Duration, wall time.Duration, workers int) {
	if workers < 1 {
		workers = 1
	}
	*d += wall * time.Duration(workers)
}

// SerialTimer starts a timer for a single-threaded phase and returns a stop
// function that charges it via ChargeSerial.
func SerialTimer(d *time.Duration, workers int) func() {
	start := time.Now()
	return func() { ChargeSerial(d, time.Since(start), workers) }
}

// WorkerClock accumulates the per-worker explore/execute/wait split of the
// parallel schedulers. Each worker owns one slot.
type WorkerClock struct {
	Explore time.Duration
	Execute time.Duration
	Wait    time.Duration
	Abort   time.Duration
}

// Bytes tracks durable and in-memory artifact sizes per category, feeding
// the memory-footprint study (Figure 12c). It is safe for concurrent use.
type Bytes struct {
	mu     sync.Mutex
	counts map[string]int64
	peak   map[string]int64
	live   map[string]int64
}

// NewBytes creates an empty byte tracker.
func NewBytes() *Bytes {
	return &Bytes{
		counts: make(map[string]int64),
		peak:   make(map[string]int64),
		live:   make(map[string]int64),
	}
}

// Written records n bytes written under a category ("input", "wal",
// "views", "snapshot", ...). Cumulative, never decremented.
func (b *Bytes) Written(category string, n int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.counts[category] += n
}

// Alloc records n live in-memory bytes added under a category and updates
// the category's peak. Free releases them.
func (b *Bytes) Alloc(category string, n int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.live[category] += n
	if b.live[category] > b.peak[category] {
		b.peak[category] = b.live[category]
	}
}

// Free releases n live bytes from a category.
func (b *Bytes) Free(category string, n int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.live[category] -= n
	if b.live[category] < 0 {
		b.live[category] = 0
	}
}

// TotalWritten returns cumulative bytes written across all categories.
func (b *Bytes) TotalWritten() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var t int64
	for _, n := range b.counts {
		t += n
	}
	return t
}

// WrittenBy returns cumulative bytes written for one category.
func (b *Bytes) WrittenBy(category string) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.counts[category]
}

// Live returns the current live bytes summed across categories.
func (b *Bytes) Live() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var t int64
	for _, n := range b.live {
		t += n
	}
	return t
}

// PeakLive returns the peak live bytes summed across categories: the
// maximum per-category peaks, a close upper bound on true peak usage given
// the engine's epoch-synchronised lifecycle.
func (b *Bytes) PeakLive() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var t int64
	for _, n := range b.peak {
		t += n
	}
	return t
}

// Categories returns the category names seen so far, sorted.
func (b *Bytes) Categories() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	set := make(map[string]struct{})
	for c := range b.counts {
		set[c] = struct{}{}
	}
	for c := range b.peak {
		set[c] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Throughput converts an event count and a duration into events/second.
func Throughput(events int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(events) / d.Seconds()
}

// Timer is a tiny helper for charging wall time to breakdown fields:
//
//	defer metrics.Since(&bd.Construct)()
type stopFunc = func()

// Since starts a timer and returns a function that adds the elapsed time to
// *d when called.
func Since(d *time.Duration) stopFunc {
	start := time.Now()
	return func() { *d += time.Since(start) }
}
