package storage

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Transient-fault classification. A device (or an injector such as Flaky)
// marks an error transient by wrapping it with Transient; the Retrying
// wrapper retries exactly those errors and surfaces everything else
// immediately. Fatal errors — ErrInjected fail-stops, real medium
// corruption — must not be retried: retrying a write the
// medium half-applied is how logs grow silent gaps.
var ErrTransient = errors.New("storage: transient fault")

// Transient wraps err so that errors.Is(_, ErrTransient) reports true while
// the original error remains matchable through the chain.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrTransient, err)
}

// ErrRetryExhausted wraps errors surfaced by Retrying when a transient
// fault outlasted the per-operation retry budget (attempts or deadline).
// The error chain still matches ErrTransient — the last underlying fault —
// but callers must treat the surfaced error as fatal: the retry layer has
// already spent the transient budget.
var ErrRetryExhausted = errors.New("storage: retry budget exhausted")

// ErrCircuitOpen is returned without touching the device while the circuit
// breaker is cooling down after repeated exhausted operations: when the
// device has been failing for several consecutive operations, hammering it
// with more retries only delays the heal that has to follow.
var ErrCircuitOpen = errors.New("storage: circuit breaker open")

// ErrRetryCanceled is surfaced by a Retrying wrapper that was Closed: an
// in-flight backoff sleep is interrupted immediately and subsequent
// operations fail fast without touching the device. It is deliberately not
// ErrTransient-classified — a canceled wrapper belongs to a shutdown or an
// abandoned incarnation, and nothing above it should retry.
var ErrRetryCanceled = errors.New("storage: retry canceled")

// RetryPolicy tunes a Retrying wrapper. The zero value selects defaults
// suitable for the in-memory and throttled devices used in tests and
// benchmarks; production File devices want larger deadlines.
type RetryPolicy struct {
	// MaxAttempts is the total tries per operation, first included
	// (default 6).
	MaxAttempts int
	// BaseBackoff is the delay after the first failed attempt; it doubles
	// per attempt up to MaxBackoff (defaults 500µs and 50ms).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// OpDeadline caps one operation's wall time including backoff sleeps
	// (default 2s). Crossing it surfaces ErrRetryExhausted even with
	// attempts left.
	OpDeadline time.Duration
	// BreakerThreshold is how many consecutive exhausted operations open
	// the circuit (default 3); BreakerCooldown is how long it stays open
	// before a half-open probe is allowed (default 250ms).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// JitterSeed seeds the deterministic backoff jitter (default 1).
	JitterSeed uint64
	// Sleep and Now are test seams (defaults time.Sleep and time.Now).
	Sleep func(time.Duration)
	Now   func() time.Time
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 6
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 500 * time.Microsecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 50 * time.Millisecond
	}
	if p.OpDeadline <= 0 {
		p.OpDeadline = 2 * time.Second
	}
	if p.BreakerThreshold <= 0 {
		p.BreakerThreshold = 3
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = 250 * time.Millisecond
	}
	if p.JitterSeed == 0 {
		p.JitterSeed = 1
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	if p.Now == nil {
		p.Now = time.Now
	}
	return p
}

// RetryStats summarises a Retrying wrapper's activity.
type RetryStats struct {
	// Retries counts retried attempts (attempt ≥ 2).
	Retries int64
	// Absorbed counts operations that succeeded after at least one retry —
	// transient storms the engine never saw.
	Absorbed int64
	// Exhausted counts operations surfaced with ErrRetryExhausted.
	Exhausted int64
	// Fatal counts operations surfaced immediately on a non-transient error.
	Fatal int64
	// BreakerOpens counts circuit-breaker openings; FastFails counts
	// operations rejected with ErrCircuitOpen while open.
	BreakerOpens int64
	FastFails    int64
}

// Retrying wraps a Device with transient-fault absorption: operations
// failing with an ErrTransient-classified error are retried under
// exponential backoff with deterministic jitter, bounded by attempts and a
// per-operation deadline, behind a circuit breaker that fails fast once
// the device has been refusing several consecutive operations.
//
// It is the first layer of the self-healing runtime: storms short enough
// for the budget are invisible above it (no engine crash, no recovery);
// anything longer surfaces exactly once as a fatal error for the shard
// group to heal. All methods are safe for concurrent use.
type Retrying struct {
	Inner Device
	pol   RetryPolicy

	// done is closed by Close; customSleep holds a caller-supplied Sleep
	// seam (nil when the interruptible default timer is in use).
	done        chan struct{}
	closeOnce   sync.Once
	customSleep func(time.Duration)

	mu        sync.Mutex
	rng       uint64
	consec    int
	open      bool
	openUntil time.Time
	lastErr   error
	stats     RetryStats
}

// NewRetrying wraps inner under the given policy (zero fields default).
func NewRetrying(inner Device, pol RetryPolicy) *Retrying {
	custom := pol.Sleep
	p := pol.withDefaults()
	return &Retrying{Inner: inner, pol: p, rng: p.JitterSeed,
		done: make(chan struct{}), customSleep: custom}
}

// Close cancels the wrapper: an in-flight backoff sleep is interrupted and
// the operation surfaces ErrRetryCanceled promptly; later operations fail
// fast the same way. Close is idempotent and safe to race with operations.
// A shutdown never has to wait out a full backoff window.
func (r *Retrying) Close() {
	r.closeOnce.Do(func() { close(r.done) })
}

// canceled reports whether Close has been called.
func (r *Retrying) canceled() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// sleep blocks for d or until Close, whichever is first; it returns false
// when the wrapper was canceled. A caller-supplied Sleep seam runs to
// completion (tests depend on its exact call count) and the cancellation
// check happens after it returns.
func (r *Retrying) sleep(d time.Duration) bool {
	if r.customSleep != nil {
		r.customSleep(d)
		return !r.canceled()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-r.done:
		return false
	}
}

// Stats returns a snapshot of the wrapper's counters.
func (r *Retrying) Stats() RetryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// do runs one operation under the retry loop.
func (r *Retrying) do(op string, fn func() error) error {
	if r.canceled() {
		return fmt.Errorf("storage: %s: %w", op, ErrRetryCanceled)
	}
	if err := r.preflight(); err != nil {
		return err
	}
	start := r.pol.Now()
	backoff := r.pol.BaseBackoff
	for attempt := 1; ; attempt++ {
		err := fn()
		if err == nil {
			r.succeed(attempt)
			return nil
		}
		if !errors.Is(err, ErrTransient) {
			r.mu.Lock()
			r.stats.Fatal++
			r.mu.Unlock()
			return err
		}
		if attempt >= r.pol.MaxAttempts || r.pol.Now().Sub(start) >= r.pol.OpDeadline {
			r.exhaust(err)
			return fmt.Errorf("storage: %s: %w after %d attempts: %w",
				op, ErrRetryExhausted, attempt, err)
		}
		r.mu.Lock()
		r.stats.Retries++
		r.mu.Unlock()
		if !r.sleep(r.jitter(backoff)) {
			r.mu.Lock()
			r.stats.Fatal++
			r.mu.Unlock()
			return fmt.Errorf("storage: %s: %w during backoff after %d attempts: %v",
				op, ErrRetryCanceled, attempt, err)
		}
		backoff *= 2
		if backoff > r.pol.MaxBackoff {
			backoff = r.pol.MaxBackoff
		}
	}
}

// preflight enforces the circuit breaker: open rejects immediately; once
// the cooldown has passed the breaker goes half-open and lets operations
// probe the device (a success closes it, an exhausted probe re-opens it).
func (r *Retrying) preflight() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.open {
		return nil
	}
	if r.pol.Now().Before(r.openUntil) {
		r.stats.FastFails++
		return fmt.Errorf("%w (cooling down): %w", ErrCircuitOpen, r.lastErr)
	}
	return nil // half-open probe
}

func (r *Retrying) succeed(attempt int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if attempt > 1 {
		r.stats.Absorbed++
	}
	r.consec = 0
	r.open = false
}

func (r *Retrying) exhaust(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Exhausted++
	r.lastErr = err
	r.consec++
	if r.consec >= r.pol.BreakerThreshold {
		r.open = true
		r.openUntil = r.pol.Now().Add(r.pol.BreakerCooldown)
		r.stats.BreakerOpens++
	}
}

// jitter spreads a backoff uniformly over [0.5, 1.5)·d with a splitmix64
// stream, so retry storms from concurrent operations decorrelate while
// tests stay reproducible under a fixed seed.
func (r *Retrying) jitter(d time.Duration) time.Duration {
	r.mu.Lock()
	r.rng += 0x9e3779b97f4a7c15
	z := r.rng
	r.mu.Unlock()
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	frac := float64(z>>11) / float64(uint64(1)<<53)
	return time.Duration((0.5 + frac) * float64(d))
}

// Append implements Device.
func (r *Retrying) Append(log string, rec Record) error {
	return r.do("append["+log+"]", func() error { return r.Inner.Append(log, rec) })
}

// WriteBlob implements Device.
func (r *Retrying) WriteBlob(name string, payload []byte) error {
	return r.do("blob["+name+"]", func() error { return r.Inner.WriteBlob(name, payload) })
}

// Truncate implements Device.
func (r *Retrying) Truncate(log string, upTo uint64) error {
	return r.do("truncate["+log+"]", func() error { return r.Inner.Truncate(log, upTo) })
}

// ReleaseThrough implements Releaser; GC retries like truncation does.
func (r *Retrying) ReleaseThrough(log string, epoch uint64) error {
	return r.do("release["+log+"]", func() error { return Release(r.Inner, log, epoch) })
}

// ReadFrom implements LogReader. Cursor acquisition retries like any read;
// Next() itself is not retried — segment cursors read immutable snapshots,
// so a mid-stream error is corruption, not a transient fault.
func (r *Retrying) ReadFrom(log string, fromEpoch uint64) (Cursor, error) {
	var out Cursor
	err := r.do("readfrom["+log+"]", func() error {
		var e error
		out, e = ReadFrom(r.Inner, log, fromEpoch)
		return e
	})
	return out, err
}

// ReadLog implements Device; recovery reads retry like writes do.
func (r *Retrying) ReadLog(log string) ([]Record, error) {
	var out []Record
	err := r.do("readlog["+log+"]", func() error {
		var e error
		out, e = r.Inner.ReadLog(log)
		return e
	})
	return out, err
}

// ReadBlob implements Device.
func (r *Retrying) ReadBlob(name string) ([]byte, bool, error) {
	var (
		out []byte
		ok  bool
	)
	err := r.do("readblob["+name+"]", func() error {
		var e error
		out, ok, e = r.Inner.ReadBlob(name)
		return e
	})
	return out, ok, err
}

// BytesWritten implements Device.
func (r *Retrying) BytesWritten() map[string]int64 { return r.Inner.BytesWritten() }
