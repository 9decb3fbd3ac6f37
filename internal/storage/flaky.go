package storage

import (
	"fmt"
	"sync"
	"time"
)

// Flaky wraps a Device and injects scripted fault windows into its write
// traffic: transient error storms (the retry layer should absorb them),
// fatal outages (the shard group's heal should recover them), and latency
// spikes. It complements Faulty, which models a device that dies once and
// stays dead; Flaky models a device that misbehaves and comes back — the
// failure mode end-to-end MTTR studies care about.
//
// Writes are counted in arrival order across Append, WriteBlob, and
// Truncate — the same op set Faulty counts — and each scripted window
// [from, from+n) matches against that counter. Retried attempts count as
// new arrivals, so a storm of length n is absorbed by a retry budget of
// n+1 attempts. Reads always succeed: the medium's existing content stays
// legible throughout, which is what lets in-process recovery run against
// the same device that just misbehaved.
type Flaky struct {
	Inner Device

	mu       sync.Mutex
	seen     int
	windows  []faultWindow
	injected int
	firstAt  time.Time
	sleep    func(time.Duration)
}

type faultKind uint8

const (
	faultTransient faultKind = iota
	faultFatal
	faultLatency
)

type faultWindow struct {
	from, n int
	kind    faultKind
	delay   time.Duration
}

// NewFlaky wraps inner with an empty fault script.
func NewFlaky(inner Device) *Flaky {
	return &Flaky{Inner: inner, sleep: time.Sleep}
}

// AddStorm scripts a transient error storm: writes [from, from+n) fail
// with a Transient-classified error.
func (f *Flaky) AddStorm(from, n int) {
	f.add(faultWindow{from: from, n: n, kind: faultTransient})
}

// AddOutage scripts a fatal window: writes [from, from+n) fail with
// ErrInjected, not classified transient — the retry layer surfaces them
// immediately and the shard group must heal.
func (f *Flaky) AddOutage(from, n int) {
	f.add(faultWindow{from: from, n: n, kind: faultFatal})
}

// AddLatency scripts a latency spike: writes [from, from+n) succeed after
// an extra delay d.
func (f *Flaky) AddLatency(from, n int, d time.Duration) {
	f.add(faultWindow{from: from, n: n, kind: faultLatency, delay: d})
}

func (f *Flaky) add(w faultWindow) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.windows = append(f.windows, w)
}

// SetSleep overrides the latency-spike sleeper (test seam).
func (f *Flaky) SetSleep(sleep func(time.Duration)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sleep = sleep
}

// Writes reports how many write operations arrived so far.
func (f *Flaky) Writes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seen
}

// Injected reports how many write operations were failed by the script.
func (f *Flaky) Injected() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// FirstInjectionAt returns the wall-clock instant of the first injected
// failure — the fault-occurrence baseline MTTR measurements subtract
// detection time from.
func (f *Flaky) FirstInjectionAt() (time.Time, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.firstAt, !f.firstAt.IsZero()
}

// decide consumes one write arrival and returns the injected error (nil to
// pass through) plus any scripted extra latency.
func (f *Flaky) decide() (error, time.Duration) {
	f.mu.Lock()
	seq := f.seen
	f.seen++
	var err error
	var delay time.Duration
	for _, w := range f.windows {
		if seq < w.from || seq >= w.from+w.n {
			continue
		}
		switch w.kind {
		case faultLatency:
			delay += w.delay
		case faultTransient:
			if err == nil {
				err = Transient(fmt.Errorf("flaky: scripted storm at write %d: %w", seq, ErrInjected))
			}
		case faultFatal:
			err = fmt.Errorf("flaky: scripted outage at write %d: %w", seq, ErrInjected)
		}
	}
	if err != nil {
		f.injected++
		if f.firstAt.IsZero() {
			f.firstAt = time.Now()
		}
	}
	sleep := f.sleep
	f.mu.Unlock()
	if delay > 0 {
		sleep(delay)
	}
	return err, delay
}

// Append implements Device.
func (f *Flaky) Append(log string, rec Record) error {
	if err, _ := f.decide(); err != nil {
		return err
	}
	return f.Inner.Append(log, rec)
}

// WriteBlob implements Device.
func (f *Flaky) WriteBlob(name string, payload []byte) error {
	if err, _ := f.decide(); err != nil {
		return err
	}
	return f.Inner.WriteBlob(name, payload)
}

// Truncate implements Device.
func (f *Flaky) Truncate(log string, upTo uint64) error {
	if err, _ := f.decide(); err != nil {
		return err
	}
	return f.Inner.Truncate(log, upTo)
}

// ReleaseThrough implements Releaser; segment release is a write arrival
// like truncation, counted against the same script windows.
func (f *Flaky) ReleaseThrough(log string, epoch uint64) error {
	if err, _ := f.decide(); err != nil {
		return err
	}
	return Release(f.Inner, log, epoch)
}

// ReadFrom implements LogReader; reads always succeed (see type comment).
func (f *Flaky) ReadFrom(log string, fromEpoch uint64) (Cursor, error) {
	return ReadFrom(f.Inner, log, fromEpoch)
}

// ReadLog implements Device.
func (f *Flaky) ReadLog(log string) ([]Record, error) { return f.Inner.ReadLog(log) }

// ReadBlob implements Device.
func (f *Flaky) ReadBlob(name string) ([]byte, bool, error) { return f.Inner.ReadBlob(name) }

// BytesWritten implements Device.
func (f *Flaky) BytesWritten() map[string]int64 { return f.Inner.BytesWritten() }
