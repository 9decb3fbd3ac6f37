package storage

import "fmt"

// Stack assembles a device wrapper stack in the one legal order, replacing
// the ad-hoc wrapping that used to be decided inline at every call site
// (core.New, the crash-point sweep, chaos runs). From the medium outward
// the canonical order is:
//
//	base → Trace → Faulty/Flaky → Compressed → Throttled(SSD) → Retrying
//
// The order is load-bearing, not stylistic:
//
//   - Trace and the fault injectors sit directly on the medium, so a write
//     site enumerated by Trace is the same write a Faulty budget or a
//     Flaky storm targets, and fault injection models the medium failing
//     (below compression and throttling, which are engine-side concerns).
//   - Compressed sits below Throttled so the SSD model charges the bytes
//     that actually reach the device, not the uncompressed payload.
//   - Retrying is outermost, so every retry attempt is one full pass through
//     the stack: each attempt is charged by the SSD model and counted by
//     the injectors as the write it is.
//
// Wrapper methods record an error on out-of-order or duplicate use;
// Build surfaces it. Handles to the wrappers that expose behaviour beyond
// the Device interface (Trace sites, Flaky scripting, Faulty budgets,
// Retrying stats) are published as fields once the wrapper is applied.
type Stack struct {
	dev  Device
	rank int
	err  error

	// Trace, Flaky, Faulty, and Retrying expose the corresponding wrapper
	// when it was applied (nil otherwise).
	Trace    *Trace
	Flaky    *Flaky
	Faulty   *Faulty
	Retrying *Retrying
}

// Wrapper ranks, innermost to outermost.
const (
	rankBase = iota
	rankTrace
	rankInject
	rankCompress
	rankThrottle
	rankRetry
)

func rankName(r int) string {
	switch r {
	case rankTrace:
		return "Trace"
	case rankInject:
		return "Faulty/Flaky"
	case rankCompress:
		return "Compressed"
	case rankThrottle:
		return "Throttled"
	case rankRetry:
		return "Retrying"
	default:
		return fmt.Sprintf("rank(%d)", r)
	}
}

// NewStack starts a stack on the given base device.
func NewStack(base Device) *Stack {
	return &Stack{dev: base, rank: rankBase}
}

// layer checks the ordering invariant and advances the rank. Equal ranks
// are rejected too: no layer may appear twice (double compression would
// corrupt payloads, double retry would square the backoff budget).
func (s *Stack) layer(r int) bool {
	if s.err != nil {
		return false
	}
	if r <= s.rank {
		s.err = fmt.Errorf("storage: illegal wrapper order: %s must wrap %s, not the other way around",
			rankName(r), rankName(s.rank))
		return false
	}
	s.rank = r
	return true
}

// WithTrace adds write-site enumeration directly on the medium.
func (s *Stack) WithTrace() *Stack {
	if s.layer(rankTrace) {
		s.Trace = NewTrace(s.dev)
		s.dev = s.Trace
	}
	return s
}

// WithFlaky adds the scripted fault injector (storms, outages, latency
// windows). Script it through the Flaky handle.
func (s *Stack) WithFlaky() *Stack {
	if s.layer(rankInject) {
		s.Flaky = NewFlaky(s.dev)
		s.dev = s.Flaky
	}
	return s
}

// WithFaulty adds the budgeted crash-point injector: the device dies at
// the budget-th write matching target (empty target matches every write).
func (s *Stack) WithFaulty(budget int, mode FaultMode, target string) *Stack {
	if s.layer(rankInject) {
		s.Faulty = NewFaultyMode(s.dev, budget, mode, target)
		s.dev = s.Faulty
	}
	return s
}

// WithCompression DEFLATE-compresses every durable payload. A base device
// that is already a *Compressed is left alone (re-wrapping would double-
// compress), matching the guard core.New used to apply inline.
func (s *Stack) WithCompression() *Stack {
	if _, already := s.dev.(*Compressed); already {
		s.layer(rankCompress) // consume the rank; duplicates above still fail
		return s
	}
	if s.layer(rankCompress) {
		s.dev = NewCompressed(s.dev)
	}
	return s
}

// WithSSD applies the paper's Optane SSD performance envelope. An already
// throttled base device is left alone, matching core.New's former guard.
func (s *Stack) WithSSD() *Stack {
	if _, already := s.dev.(*Throttled); already {
		s.layer(rankThrottle)
		return s
	}
	if s.layer(rankThrottle) {
		s.dev = DefaultSSD(s.dev)
	}
	return s
}

// WithRetry adds transient-fault absorption (backoff, deadline, circuit
// breaker) as the outermost layer. Stats are read through the Retrying
// handle.
func (s *Stack) WithRetry(pol RetryPolicy) *Stack {
	if s.layer(rankRetry) {
		s.Retrying = NewRetrying(s.dev, pol)
		s.dev = s.Retrying
	}
	return s
}

// Build returns the assembled device, or the first ordering error.
func (s *Stack) Build() (Device, error) {
	if s.err != nil {
		return nil, s.err
	}
	return s.dev, nil
}

// Close cancels the stack's Retrying layer, if one was applied: an
// in-flight backoff sleep is interrupted and the operation surfaces
// ErrRetryCanceled promptly. Other layers hold no background resources.
// Idempotent; a no-op on retry-less stacks.
func (s *Stack) Close() {
	if s.Retrying != nil {
		s.Retrying.Close()
	}
}

// MustBuild is Build for call sites whose layer sequence is statically
// correct (no conditional wrapping); an ordering error there is a
// programming bug, not a runtime condition.
func (s *Stack) MustBuild() Device {
	dev, err := s.Build()
	if err != nil {
		panic(err)
	}
	return dev
}
