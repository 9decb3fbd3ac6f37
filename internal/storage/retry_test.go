package storage

import (
	"errors"
	"testing"
	"time"
)

// fakeClock drives RetryPolicy.Now/Sleep without real waiting.
type fakeClock struct {
	now    time.Time
	sleeps []time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) Sleep(d time.Duration) {
	c.sleeps = append(c.sleeps, d)
	c.now = c.now.Add(d)
}

func newTestRetrying(inner Device, pol RetryPolicy) (*Retrying, *fakeClock) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	pol.Sleep = clk.Sleep
	pol.Now = clk.Now
	return NewRetrying(inner, pol), clk
}

func TestRetryingAbsorbsStorm(t *testing.T) {
	mem := NewMem()
	flaky := NewFlaky(mem)
	flaky.AddStorm(1, 3) // writes 1..3 fail transiently
	r, clk := newTestRetrying(flaky, RetryPolicy{MaxAttempts: 6})

	if err := r.Append("log", Record{Epoch: 1, Payload: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	// Write 1 is the first attempt of the second op; retries 2..4 consume
	// the storm window and attempt 4 (arrival 4) succeeds.
	if err := r.Append("log", Record{Epoch: 2, Payload: []byte("b")}); err != nil {
		t.Fatalf("storm not absorbed: %v", err)
	}
	st := r.Stats()
	if st.Absorbed != 1 || st.Retries != 3 || st.Exhausted != 0 || st.Fatal != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if len(clk.sleeps) != 3 {
		t.Fatalf("sleeps = %d, want 3", len(clk.sleeps))
	}
	recs, _ := mem.ReadLog("log")
	if len(recs) != 2 {
		t.Fatalf("medium has %d records, want 2", len(recs))
	}
}

func TestRetryingBackoffDoublesWithJitter(t *testing.T) {
	mem := NewMem()
	flaky := NewFlaky(mem)
	flaky.AddStorm(0, 4)
	base := 1 * time.Millisecond
	r, clk := newTestRetrying(flaky, RetryPolicy{MaxAttempts: 6, BaseBackoff: base, MaxBackoff: 100 * time.Millisecond})
	if err := r.Append("log", Record{Epoch: 1, Payload: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	want := base
	for i, d := range clk.sleeps {
		lo, hi := want/2, want+want/2
		if d < lo || d >= hi {
			t.Fatalf("sleep %d = %v outside jitter band [%v, %v)", i, d, lo, hi)
		}
		want *= 2
	}
}

func TestRetryingFatalPassesThrough(t *testing.T) {
	mem := NewMem()
	faulty := NewFaulty(mem, 0) // first write fails fatally
	r, clk := newTestRetrying(faulty, RetryPolicy{})
	err := r.Append("log", Record{Epoch: 1, Payload: []byte("a")})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if errors.Is(err, ErrRetryExhausted) || errors.Is(err, ErrTransient) {
		t.Fatalf("fatal error misclassified: %v", err)
	}
	if len(clk.sleeps) != 0 {
		t.Fatalf("fatal error slept %d times", len(clk.sleeps))
	}
	if st := r.Stats(); st.Fatal != 1 || st.Retries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetryingExhaustsAttempts(t *testing.T) {
	mem := NewMem()
	flaky := NewFlaky(mem)
	flaky.AddStorm(0, 100)
	r, clk := newTestRetrying(flaky, RetryPolicy{MaxAttempts: 4})
	err := r.Append("log", Record{Epoch: 1, Payload: []byte("a")})
	if !errors.Is(err, ErrRetryExhausted) {
		t.Fatalf("want ErrRetryExhausted, got %v", err)
	}
	if !errors.Is(err, ErrTransient) || !errors.Is(err, ErrInjected) {
		t.Fatalf("exhausted error lost its cause chain: %v", err)
	}
	if len(clk.sleeps) != 3 { // no sleep after the final attempt
		t.Fatalf("sleeps = %d, want 3", len(clk.sleeps))
	}
	if st := r.Stats(); st.Exhausted != 1 || st.Retries != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetryingDeadlineCutsAttemptsShort(t *testing.T) {
	mem := NewMem()
	flaky := NewFlaky(mem)
	flaky.AddStorm(0, 100)
	r, _ := newTestRetrying(flaky, RetryPolicy{
		MaxAttempts: 100,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
		OpDeadline:  25 * time.Millisecond,
	})
	err := r.Append("log", Record{Epoch: 1, Payload: []byte("a")})
	if !errors.Is(err, ErrRetryExhausted) {
		t.Fatalf("want ErrRetryExhausted, got %v", err)
	}
	if st := r.Stats(); st.Retries >= 10 {
		t.Fatalf("deadline did not bound retries: %+v", st)
	}
}

func TestRetryingCircuitBreaker(t *testing.T) {
	mem := NewMem()
	flaky := NewFlaky(mem)
	flaky.AddStorm(0, 1000)
	cooldown := 1 * time.Second
	r, clk := newTestRetrying(flaky, RetryPolicy{
		MaxAttempts:      2,
		BreakerThreshold: 3,
		BreakerCooldown:  cooldown,
	})

	// Three consecutive exhausted ops open the breaker.
	for i := 0; i < 3; i++ {
		if err := r.Append("log", Record{Epoch: 1, Payload: []byte("x")}); !errors.Is(err, ErrRetryExhausted) {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if st := r.Stats(); st.BreakerOpens != 1 {
		t.Fatalf("breaker opens = %d, want 1", st.BreakerOpens)
	}

	// While cooling down, ops fail fast without touching the device.
	before := flaky.Writes()
	err := r.Append("log", Record{Epoch: 1, Payload: []byte("x")})
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("want ErrCircuitOpen, got %v", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("fast-fail lost the last device error: %v", err)
	}
	if flaky.Writes() != before {
		t.Fatal("fast-fail touched the device")
	}

	// Past cooldown: half-open probe. Still failing → exhausted again, and
	// the breaker re-opens immediately (consec already past threshold).
	clk.now = clk.now.Add(cooldown)
	if err := r.Append("log", Record{Epoch: 1, Payload: []byte("x")}); !errors.Is(err, ErrRetryExhausted) {
		t.Fatalf("half-open probe: %v", err)
	}
	if err := r.Append("log", Record{Epoch: 1, Payload: []byte("x")}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("breaker did not re-open after failed probe: %v", err)
	}

	// Past cooldown with a healed device: probe succeeds and closes the
	// breaker; subsequent ops run normally.
	clk.now = clk.now.Add(cooldown)
	flaky2 := NewFlaky(mem)
	r.Inner = flaky2
	if err := r.Append("log", Record{Epoch: 2, Payload: []byte("y")}); err != nil {
		t.Fatalf("probe after heal: %v", err)
	}
	if err := r.Append("log", Record{Epoch: 3, Payload: []byte("z")}); err != nil {
		t.Fatalf("post-close op: %v", err)
	}
	st := r.Stats()
	if st.FastFails != 2 {
		t.Fatalf("fast fails = %d, want 2", st.FastFails)
	}
}

func TestRetryingReadsRetryToo(t *testing.T) {
	mem := NewMem()
	if err := mem.Append("log", Record{Epoch: 1, Payload: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	r, _ := newTestRetrying(&transientReadDevice{Device: mem, failures: 2}, RetryPolicy{})
	recs, err := r.ReadLog("log")
	if err != nil || len(recs) != 1 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
	if st := r.Stats(); st.Absorbed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// transientReadDevice fails the first N reads transiently.
type transientReadDevice struct {
	Device
	failures int
}

func (d *transientReadDevice) ReadLog(log string) ([]Record, error) {
	if d.failures > 0 {
		d.failures--
		return nil, Transient(errors.New("read glitch"))
	}
	return d.Device.ReadLog(log)
}

func TestTransientNilAndChain(t *testing.T) {
	if Transient(nil) != nil {
		t.Fatal("Transient(nil) != nil")
	}
	err := Transient(ErrInjected)
	if !errors.Is(err, ErrTransient) || !errors.Is(err, ErrInjected) {
		t.Fatalf("chain broken: %v", err)
	}
}
