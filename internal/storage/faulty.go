package storage

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// ErrInjected is returned by a Faulty device once its budget is exhausted.
var ErrInjected = errors.New("storage: injected fault")

// FaultMode selects what happens to the first write past a Faulty device's
// budget. All modes return ErrInjected to the caller — the write never
// acknowledges — but they differ in what the medium retains, which is what
// recovery has to cope with.
type FaultMode uint8

const (
	// FailStop persists nothing: the write vanishes entirely, like a
	// controller that died before touching the medium.
	FailStop FaultMode = iota
	// TornWrite persists a strict prefix of an appended record's payload
	// before dying, leaving a torn tail record for recovery to detect and
	// discard. Blob writes and truncations stay atomic (the write-to-temp-
	// then-rename idiom of the File device cannot tear), so they fail-stop.
	TornWrite
	// DroppedTail persists an appended record's frame with its payload
	// lost (a zero-byte tail record) — the volatile-cache-drop flavour of
	// a torn write. Blob writes and truncations fail-stop as in TornWrite.
	DroppedTail
)

// String returns the mode name used in harness reports.
func (m FaultMode) String() string {
	switch m {
	case FailStop:
		return "fail-stop"
	case TornWrite:
		return "torn-write"
	case DroppedTail:
		return "dropped-tail"
	default:
		return fmt.Sprintf("FaultMode(%d)", uint8(m))
	}
}

// WriteSite identifies one durable write the engine issued: its position in
// the device's write sequence and what it was writing. The crash-point
// sweep enumerates sites with a Trace device, then replays the workload
// once per site with a Faulty device dying there.
type WriteSite struct {
	// Seq is the 0-based index of the write in the device's write order
	// (counting only writes the wrapper observed).
	Seq int
	// Op is the write kind: "append", "blob", "truncate", or "release"
	// (segment-granular GC through the Releaser path).
	Op string
	// Name is the log or blob written.
	Name string
	// Epoch is the record epoch for appends, or the truncation watermark.
	// Zero for blobs.
	Epoch uint64
	// Bytes is the payload size for appends and blob writes.
	Bytes int
}

// String renders the site the way sweep failure reports print it.
func (s WriteSite) String() string {
	switch s.Op {
	case "truncate":
		return fmt.Sprintf("write %d: truncate[%s] upTo=%d", s.Seq, s.Name, s.Epoch)
	case "release":
		return fmt.Sprintf("write %d: release[%s] upTo=%d", s.Seq, s.Name, s.Epoch)
	case "blob":
		return fmt.Sprintf("write %d: blob[%s] (%dB)", s.Seq, s.Name, s.Bytes)
	default:
		return fmt.Sprintf("write %d: append[%s] epoch=%d (%dB)", s.Seq, s.Name, s.Epoch, s.Bytes)
	}
}

// Faulty wraps a Device and starts failing write operations after a
// configured number of successful ones — a deterministic stand-in for a
// dying disk. Reads keep working (the medium's existing content remains
// legible), which matches the failure mode recovery cares about: writes
// that stop landing.
//
// The fault mode decides what the first failing write leaves behind
// (nothing, a torn prefix, or an empty record frame); every later matching
// write fails with ErrInjected and persists nothing, until the device has
// failed as many writes as it was told to (forever, unless built by
// NewOutage) and the medium comes back. A non-empty target restricts both
// budget counting and injection to writes touching that log or blob name;
// writes elsewhere always succeed, which lets tests aim a fault at one log
// (say, the FT log's third group commit) while the rest of the engine's
// write traffic proceeds.
//
// It exists for tests: every engine and mechanism write path must surface
// the error instead of silently diverging state from the log.
type Faulty struct {
	Inner Device

	mu         sync.Mutex
	budget     int
	fails      int // failures left to inject
	mode       FaultMode
	target     string
	seen       int
	injected   *WriteSite
	injectedAt time.Time
}

// NewFaulty allows budget successful writes before injecting fail-stop
// failures on every write.
func NewFaulty(inner Device, budget int) *Faulty {
	return NewFaultyMode(inner, budget, FailStop, "")
}

// NewFaultyMode allows budget successful writes to target (every write when
// target is empty), then injects one failure of the given mode; subsequent
// matching writes fail-stop.
func NewFaultyMode(inner Device, budget int, mode FaultMode, target string) *Faulty {
	return &Faulty{Inner: inner, budget: budget, fails: math.MaxInt, mode: mode, target: target}
}

// NewOutage fails writes at through at+n-1 (0-based, every write counted)
// fail-stop, then passes writes again: a write storm the medium survives.
func NewOutage(inner Device, at, n int) *Faulty {
	return &Faulty{Inner: inner, budget: at, fails: n, mode: FailStop}
}

// spend consumes budget for one write to name. It returns inject=false
// while the write should pass through; past the budget it returns
// inject=true for as many writes as the device fails, recording the first
// one's site and returning first=true exactly once (the write that gets
// the mode-specific treatment).
func (f *Faulty) spend(site WriteSite) (inject, first bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.target != "" && site.Name != f.target {
		return false, false
	}
	site.Seq = f.seen
	f.seen++
	if f.budget > 0 {
		f.budget--
		return false, false
	}
	if f.fails == 0 {
		return false, false
	}
	f.fails--
	if f.injected == nil {
		f.injected, f.injectedAt = &site, time.Now()
		return true, true
	}
	return true, false
}

// Remaining returns the writes left before failure.
func (f *Faulty) Remaining() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.budget
}

// Injected reports the site at which the device died, if it has.
func (f *Faulty) Injected() (WriteSite, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.injected == nil {
		return WriteSite{}, false
	}
	return *f.injected, true
}

// InjectedAt returns the wall-clock instant of the first injected failure
// (zero if none yet): the fault occurrence a detection time is measured
// from.
func (f *Faulty) InjectedAt() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injectedAt
}

// Append implements Device.
func (f *Faulty) Append(log string, rec Record) error {
	inject, first := f.spend(WriteSite{Op: "append", Name: log, Epoch: rec.Epoch, Bytes: len(rec.Payload)})
	if !inject {
		return f.Inner.Append(log, rec)
	}
	if first {
		switch f.mode {
		case TornWrite:
			// A strict prefix of the payload reaches the medium before
			// the device dies. The record frame (epoch) survives — it is
			// written first — but the payload is cut mid-way, so decoders
			// must reject it rather than misparse.
			torn := Record{Epoch: rec.Epoch, Payload: rec.Payload[:len(rec.Payload)/2]}
			if err := f.Inner.Append(log, torn); err != nil {
				return err
			}
		case DroppedTail:
			// The frame lands, the payload is lost in the device cache.
			if err := f.Inner.Append(log, Record{Epoch: rec.Epoch}); err != nil {
				return err
			}
		}
	}
	return ErrInjected
}

// WriteBlob implements Device. Blob replacement is atomic
// (write-temp-then-rename), so every fault mode degenerates to fail-stop:
// the old blob survives intact.
func (f *Faulty) WriteBlob(name string, payload []byte) error {
	if inject, _ := f.spend(WriteSite{Op: "blob", Name: name, Bytes: len(payload)}); inject {
		return ErrInjected
	}
	return f.Inner.WriteBlob(name, payload)
}

// Truncate implements Device; garbage collection is a write too. Log
// truncation rewrites into a temp file and renames, so it too fail-stops
// under every mode: either the whole prefix is dropped or none of it.
func (f *Faulty) Truncate(log string, upTo uint64) error {
	if inject, _ := f.spend(WriteSite{Op: "truncate", Name: log, Epoch: upTo}); inject {
		return ErrInjected
	}
	return f.Inner.Truncate(log, upTo)
}

// ReleaseThrough implements Releaser. Segment release updates the index
// before touching any slab (the SegStore contract), so like truncation it
// is atomic under every fault mode: it fail-stops.
func (f *Faulty) ReleaseThrough(log string, epoch uint64) error {
	if inject, _ := f.spend(WriteSite{Op: "release", Name: log, Epoch: epoch}); inject {
		return ErrInjected
	}
	return Release(f.Inner, log, epoch)
}

// ReadFrom implements LogReader; reads keep working on a dead device.
func (f *Faulty) ReadFrom(log string, fromEpoch uint64) (Cursor, error) {
	return ReadFrom(f.Inner, log, fromEpoch)
}

// ReadLog implements Device.
func (f *Faulty) ReadLog(log string) ([]Record, error) { return f.Inner.ReadLog(log) }

// ReadBlob implements Device.
func (f *Faulty) ReadBlob(name string) ([]byte, bool, error) { return f.Inner.ReadBlob(name) }

// BytesWritten implements Device.
func (f *Faulty) BytesWritten() map[string]int64 { return f.Inner.BytesWritten() }
