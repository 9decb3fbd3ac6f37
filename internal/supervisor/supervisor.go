// Package supervisor makes the engine self-healing: it watches a live
// engine for failures — surfaced I/O errors, poisoned committers, worker
// panics, and silent stalls — and on failure runs the configured
// mechanism's recovery *in-process*, re-seats the stream at the last
// committed punctuation, and resumes processing, recording detection
// latency and MTTR for every incident.
//
// The paper measures replay speed; fault-recovery benchmarking (Vogel et
// al.) measures what operators actually wait for: end-to-end healing time
// while the stream is live. The supervisor is the machinery that turns the
// repo's offline recovery path into that online story.
//
// # Failure handling layers
//
// Transient device faults never reach the supervisor: each engine
// incarnation writes through its own storage.Retrying wrapper, which
// absorbs error storms under backoff (state dips to Degraded while a storm
// is being absorbed, back to Running on the next completed epoch). Only
// retry exhaustion, fatal errors, panics, and stalls escalate to healing.
//
// # Incarnations and fencing
//
// Each live engine is one incarnation, bound to a write-fence generation.
// Healing advances the fence first — after that, every durable write from
// the abandoned incarnation fails with storage.ErrFenced, so a zombie
// goroutine that wakes up later (a stall that un-wedges mid-recovery)
// cannot interleave its log records with the new incarnation's. Because
// every output-release gate requires a durable write, a fenced zombie can
// also never release outputs: exactly-once delivery holds across
// incarnations, which is what lets the supervisor accumulate the output
// stream through the engine Sink callback.
package supervisor

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"morphstreamr/internal/engine"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/metrics"
	"morphstreamr/internal/obs"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/tpg"
	"morphstreamr/internal/types"
)

// State is the supervisor's coarse health gauge:
// Running → Degraded (absorbing a transient storm) → Running, or
// Running → Recovering (in-process heal) → Running, terminating in
// Stopped (source exhausted) or Failed (heal impossible or budget spent).
type State int32

// Supervisor states.
const (
	Running State = iota
	Degraded
	Recovering
	Stopped
	Failed
)

func (s State) String() string {
	switch s {
	case Running:
		return "running"
	case Degraded:
		return "degraded"
	case Recovering:
		return "recovering"
	case Stopped:
		return "stopped"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// ErrStalled marks a watchdog-detected stall: no epoch completed within
// the stall timeout while the source still had input.
var ErrStalled = errors.New("supervisor: epoch progress stalled")

// ErrRecoveryBudget is returned when failures keep recurring past
// MaxRecoveries: the fault is evidently not one healing can fix.
var ErrRecoveryBudget = errors.New("supervisor: recovery budget exhausted")

// Config assembles a supervised engine.
type Config struct {
	// App is the transactional stream application.
	App types.App
	// Device is the durable device (possibly a chaos injector stack). The
	// supervisor owns the resilience wrappers: each incarnation writes
	// through a fresh Retrying wrapper and a fence-generation view, so
	// Device itself should NOT already be wrapped in either.
	Device storage.Device
	// Mechanism creates a fresh fault-tolerance mechanism against the
	// given device and byte accounting. Called once per incarnation:
	// mechanisms hold volatile replay state that dies with the incarnation
	// it belonged to. Must not return a NAT mechanism (nothing to recover
	// from).
	Mechanism func(dev storage.Device, bytes *metrics.Bytes) ftapi.Mechanism
	// Source feeds input batches; required. After a recovery the
	// supervisor re-reads it from the last committed punctuation onward
	// (epochs the crashed incarnation persisted are replayed from the
	// device, so the source re-supplies only what never became durable).
	Source types.Source

	// RunShape carries the engine knobs (Workers, CommitEvery,
	// SnapshotEvery, AutoCommit, Pipeline), passed through to every
	// incarnation; see types.RunShape for the zero-value rule.
	types.RunShape
	// AsyncCommit passes through to every incarnation (see engine.Config).
	AsyncCommit bool

	// Retry tunes each incarnation's transient-fault absorption.
	Retry storage.RetryPolicy
	// StallTimeout is how long the watchdog waits without a completed
	// epoch before declaring a stall (default 2s). It must comfortably
	// exceed the slowest healthy epoch.
	StallTimeout time.Duration
	// MaxRecoveries bounds in-process heals before giving up (default 4).
	MaxRecoveries int
	// OnStall, when non-nil, runs after the fence advances during a stall
	// heal. It is the cancellation hook that un-wedges the stuck operation
	// (chaos tests park an op on a channel; production hooks would cancel
	// a context), letting the abandoned incarnation's goroutines drain —
	// into the fence, harmlessly — instead of leaking.
	OnStall func()
	// FireHook passes through to each incarnation's scheduler (chaos
	// injection point).
	FireHook func(*tpg.OpNode)
	// Health receives incident records; nil allocates a fresh log.
	Health *metrics.Health
	// Obs, when non-nil, observes the supervised run: the incident log and
	// state transitions (supervisor.to_* counters, supervisor/state
	// timeline events) are published to it, a "reseat" recovery
	// span brackets every heal, and each incarnation's engine emits its
	// epoch/recovery telemetry through it.
	Obs *obs.Observer
}

func (c *Config) normalize() error {
	if c.App == nil || c.Device == nil || c.Mechanism == nil || c.Source == nil {
		return errors.New("supervisor: App, Device, Mechanism, and Source are required")
	}
	if err := c.RunShape.Normalize(); err != nil {
		return fmt.Errorf("supervisor: %w", err)
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = 2 * time.Second
	}
	if c.MaxRecoveries <= 0 {
		c.MaxRecoveries = 4
	}
	if c.Health == nil {
		c.Health = metrics.NewHealth()
	}
	return nil
}

// progressCell is one incarnation's liveness signal. Each incarnation
// stamps only its own cell, so a zombie waking up after its fence cannot
// suppress the watchdog of the incarnation that replaced it.
type progressCell struct {
	epochs atomic.Uint64 // last completed epoch
	touch  atomic.Int64  // UnixNano of the last completed epoch (or start)
}

// Supervisor runs and heals one engine. Create with New, drive with Run.
type Supervisor struct {
	cfg   Config
	fence *storage.Fence
	state atomic.Int32

	mu         sync.Mutex
	liveGen    uint64
	cells      map[uint64]*progressCell
	outputs    []types.Output
	reports    []*engine.RecoveryReport
	savedStats storage.RetryStats
	retry      *storage.Retrying
	eng        *engine.Engine
	recoveries int
}

// New validates the configuration and prepares a supervisor. Processing
// starts when Run is called.
func New(cfg Config) (*Supervisor, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if k := cfg.Mechanism(storage.NewMem(), metrics.NewBytes()).Kind(); k == ftapi.NAT {
		return nil, errors.New("supervisor: native execution persists nothing; self-healing requires a recoverable mechanism")
	}
	if reg := cfg.Obs.Registry(); reg != nil {
		reg.AttachHealth("health", cfg.Health)
	}
	return &Supervisor{cfg: cfg, fence: storage.NewFence(cfg.Device)}, nil
}

// State returns the current health gauge.
func (s *Supervisor) State() State { return State(s.state.Load()) }

func (s *Supervisor) setState(st State) {
	if prev := State(s.state.Swap(int32(st))); prev != st {
		s.observeTransition(st)
	}
}

// Outputs returns a snapshot of every output released downstream so far,
// across all incarnations, in release order.
func (s *Supervisor) Outputs() []types.Output {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]types.Output, len(s.outputs))
	copy(out, s.outputs)
	return out
}

// Reports returns the recovery reports of the heals performed so far.
func (s *Supervisor) Reports() []*engine.RecoveryReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*engine.RecoveryReport, len(s.reports))
	copy(out, s.reports)
	return out
}

// Health returns the incident log.
func (s *Supervisor) Health() *metrics.Health { return s.cfg.Health }

// Recoveries returns how many in-process heals have completed.
func (s *Supervisor) Recoveries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recoveries
}

// RetryStats aggregates transient-fault absorption across incarnations.
func (s *Supervisor) RetryStats() storage.RetryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := s.savedStats
	if s.retry != nil {
		cur := s.retry.Stats()
		total.Retries += cur.Retries
		total.Absorbed += cur.Absorbed
		total.Exhausted += cur.Exhausted
		total.Fatal += cur.Fatal
		total.BreakerOpens += cur.BreakerOpens
		total.FastFails += cur.FastFails
	}
	return total
}

// Engine exposes the live incarnation (nil before Run). Test inspection
// only; the supervisor owns its lifecycle.
func (s *Supervisor) Engine() *engine.Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng
}

// failure describes one detected incident before healing.
type failure struct {
	cause      string // "panic" | "poisoned" | "io-transient-exhausted" | "io-fatal" | "stall"
	err        error  // nil for stalls
	detectedAt time.Time
	detection  time.Duration
}

// Run processes the stream to exhaustion, healing failures along the way.
// It returns nil once the source is drained and everything committed, or
// the terminal error when healing is impossible or the recovery budget is
// spent. Run must be called at most once.
func (s *Supervisor) Run() error {
	s.setState(Running)
	eng, retry, err := s.newIncarnation()
	if err != nil {
		s.setState(Failed)
		return err
	}
	s.install(eng, retry)
	next := uint64(1)
	for {
		fail, done := s.supervise(eng, next)
		if done {
			// The drive goroutine has returned, so Close cannot block. A
			// failed incarnation needs no such call: an engine that returned
			// an error has closed itself, and a stalled one must not be
			// closed synchronously (Close waits for the wedged epoch) — it
			// closes itself once OnStall un-wedges it into the fence.
			eng.Close()
			s.setState(Stopped)
			return nil
		}
		s.mu.Lock()
		over := s.recoveries >= s.cfg.MaxRecoveries
		s.mu.Unlock()
		if over {
			s.recordIncident(fail, 0, false)
			s.setState(Failed)
			// %w on the last failure keeps the underlying identity
			// (ErrPoisoned, ErrRetryExhausted, ...) matchable through the
			// budget error, so callers can still classify what kept killing
			// the engine.
			return fmt.Errorf("%w (%d heals): last failure %s: %w",
				ErrRecoveryBudget, s.cfg.MaxRecoveries, fail.cause, fail.err)
		}
		healed, report, err := s.heal(fail)
		if err != nil {
			s.setState(Failed)
			return fmt.Errorf("supervisor: heal after %s failed: %w", fail.cause, err)
		}
		eng = healed
		next = report.LastEpoch + 1
		s.setState(Running)
	}
}

// newIncarnation builds the storage stack and a fresh engine for the
// current fence generation: engine → Retrying → fence view → Device.
func (s *Supervisor) newIncarnation() (*engine.Engine, *storage.Retrying, error) {
	dev, retry := s.stack()
	bytes := metrics.NewBytes()
	eng, err := engine.New(s.engineConfig(dev, bytes))
	if err != nil {
		return nil, nil, err
	}
	return eng, retry, nil
}

// stack builds one incarnation's device stack bound to the current fence
// generation. The Retrying wrapper sits OUTSIDE the fence view so each
// retry attempt takes the fence check individually: advancing the fence
// never waits out a backoff sleep, and a fenced retry loop dies on its
// next attempt (ErrFenced is fatal, not transient).
func (s *Supervisor) stack() (storage.Device, *storage.Retrying) {
	pol := s.cfg.Retry
	userRetry := pol.OnRetry
	pol.OnRetry = func(op string, attempt int, err error) {
		// A storm is being absorbed: dip to Degraded until an epoch lands.
		if s.state.CompareAndSwap(int32(Running), int32(Degraded)) {
			s.observeTransition(Degraded)
		}
		if userRetry != nil {
			userRetry(op, attempt, err)
		}
	}
	st := storage.NewStack(s.cfg.Device).WithFence(s.fence).WithRetry(pol)
	return st.MustBuild(), st.Retrying
}

// observeTransition publishes a state change — including those that
// bypassed setState (the lock-free Degraded dips on the retry and epoch
// paths) — to the observer's registry and timeline.
func (s *Supervisor) observeTransition(st State) {
	if reg := s.cfg.Obs.Registry(); reg != nil {
		reg.Gauge("supervisor.state").Set(int64(st))
		reg.Counter("supervisor.transitions").Inc()
		reg.Counter("supervisor.to_" + st.String()).Inc()
	}
	s.cfg.Obs.Timeline().Add("supervisor", "state", st.String(), nil)
}

// engineConfig assembles one incarnation's engine configuration. The
// OnEpoch and Sink closures are bound to the current fence generation:
// only the live incarnation's callbacks mutate supervisor state.
func (s *Supervisor) engineConfig(dev storage.Device, bytes *metrics.Bytes) engine.Config {
	gen := s.fence.Generation()
	cell := s.cellFor(gen)
	return engine.Config{
		RunShape:    s.cfg.RunShape,
		App:         s.cfg.App,
		Device:      dev,
		Mechanism:   s.cfg.Mechanism(dev, bytes),
		AsyncCommit: s.cfg.AsyncCommit,
		Bytes:       bytes,
		Obs:         s.cfg.Obs,
		OnEpoch: func(epoch uint64) {
			cell.epochs.Store(epoch)
			cell.touch.Store(time.Now().UnixNano())
			// Storm absorbed (if any): a completed epoch means the device
			// is accepting writes again.
			if s.state.CompareAndSwap(int32(Degraded), int32(Running)) {
				s.observeTransition(Running)
			}
		},
		Sink: func(outs []types.Output) {
			s.mu.Lock()
			if s.liveGen == gen {
				s.outputs = append(s.outputs, outs...)
			}
			s.mu.Unlock()
		},
		FireHook: s.cfg.FireHook,
	}
}

// cells maps fence generation → progress cell, created lazily so the
// engineConfig and supervise of one incarnation share a cell.
func (s *Supervisor) cellFor(gen uint64) *progressCell {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cells == nil {
		s.cells = make(map[uint64]*progressCell)
	}
	c, ok := s.cells[gen]
	if !ok {
		c = &progressCell{}
		s.cells[gen] = c
	}
	return c
}

// install publishes an incarnation as live.
func (s *Supervisor) install(eng *engine.Engine, retry *storage.Retrying) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.retry != nil {
		// Bank the dead incarnation's counters before replacing it.
		cur := s.retry.Stats()
		s.savedStats.Retries += cur.Retries
		s.savedStats.Absorbed += cur.Absorbed
		s.savedStats.Exhausted += cur.Exhausted
		s.savedStats.Fatal += cur.Fatal
		s.savedStats.BreakerOpens += cur.BreakerOpens
		s.savedStats.FastFails += cur.FastFails
	}
	s.eng = eng
	s.retry = retry
	s.liveGen = s.fence.Generation()
}

// supervise drives one incarnation from epoch `next` and watches it. It
// returns done=true when the source drained cleanly, or the detected
// failure otherwise. The drive goroutine is never joined on failure — it
// may be wedged; the fence plus the OnStall hook make abandoning it safe.
func (s *Supervisor) supervise(eng *engine.Engine, next uint64) (failure, bool) {
	cell := s.cellFor(s.fence.Generation())
	cell.touch.Store(time.Now().UnixNano())

	done := make(chan error, 1)
	go func() { done <- s.drive(eng, next) }()

	// The watchdog checks eight times per stall timeout, at most every 5ms.
	ticker := time.NewTicker(max(s.cfg.StallTimeout/8, 5*time.Millisecond))
	defer ticker.Stop()
	for {
		select {
		case err := <-done:
			if err == nil {
				return failure{}, true
			}
			return failure{
				cause:      engine.Classify(err),
				err:        err,
				detectedAt: time.Now(),
			}, false
		case <-ticker.C:
			last := time.Unix(0, cell.touch.Load())
			if idle := time.Since(last); idle >= s.cfg.StallTimeout {
				return failure{
					cause:      "stall",
					err:        fmt.Errorf("%w: no epoch completed in %v", ErrStalled, idle.Round(time.Millisecond)),
					detectedAt: time.Now(),
					detection:  idle,
				}, false
			}
		}
	}
}

// drive feeds the source into the engine from epoch `next` until the
// source drains or the engine fails.
func (s *Supervisor) drive(eng *engine.Engine, next uint64) error {
	if s.cfg.Pipeline {
		var batches [][]types.Event
		for ep := next; ; ep++ {
			events, ok := s.cfg.Source(ep)
			if !ok {
				break
			}
			batches = append(batches, events)
		}
		if len(batches) == 0 {
			return nil
		}
		return eng.ProcessEpochs(batches)
	}
	for ep := next; ; ep++ {
		events, ok := s.cfg.Source(ep)
		if !ok {
			return nil
		}
		if err := eng.ProcessEpoch(events); err != nil {
			return err
		}
	}
}

// heal performs one in-process recovery: fence off the failed incarnation,
// un-wedge it if stalled, rebuild an engine from the durable device, and
// account the incident. The returned report locates where processing
// resumes (LastEpoch + 1).
func (s *Supervisor) heal(fail failure) (*engine.Engine, *engine.RecoveryReport, error) {
	s.setState(Recovering)
	// The reseat span brackets the whole heal — fence, recovery (whose
	// log-read/rebuild/replay spans nest inside on the same lane), and
	// re-seating the stream at the recovered punctuation.
	sp := s.cfg.Obs.Begin(0, obs.CatRecovery, "reseat", 0)
	defer sp.End()

	// Fence first: after Advance returns, no in-flight zombie write
	// remains and none can land later, so the device content is stable
	// for recovery to read.
	s.fence.Advance()
	// The fence already rejects the zombie's next attempt; cancelling its
	// retry wrapper additionally interrupts an in-flight backoff sleep, so
	// an abandoned goroutine parked mid-backoff drains promptly instead of
	// waiting out the window.
	s.mu.Lock()
	zombie := s.retry
	s.mu.Unlock()
	if zombie != nil {
		zombie.Close()
	}
	if fail.cause == "stall" && s.cfg.OnStall != nil {
		// Un-wedge the stuck operation now that its writes are fenced: the
		// zombie incarnation drains into ErrFenced instead of leaking.
		s.cfg.OnStall()
	}

	dev, retry := s.stack()
	bytes := metrics.NewBytes()
	cfg := s.engineConfig(dev, bytes)
	// Publish the new generation before recovery runs: the recovered
	// tail's outputs release through the Sink during engine.Recover and
	// must be accepted as live.
	s.mu.Lock()
	s.liveGen = s.fence.Generation()
	s.mu.Unlock()

	eng, report, err := engine.Recover(cfg)
	if err != nil {
		s.recordIncident(fail, 0, false)
		return nil, nil, err
	}
	// Belt and braces: a mechanism that carries a group committer across
	// recovery re-arms it — the durable log is the source of truth again.
	if r, ok := cfg.Mechanism.(interface{ Rearm() }); ok {
		r.Rearm()
	}

	s.install(eng, retry)
	s.mu.Lock()
	s.recoveries++
	s.reports = append(s.reports, report)
	s.mu.Unlock()
	s.recordIncident(fail, report.LastEpoch+1, true)
	return eng, report, nil
}

// recordIncident appends one incident to the health log, stamping MTTR as
// detection → now (recovery complete and the stream ready to resume).
func (s *Supervisor) recordIncident(fail failure, resumeEpoch uint64, healed bool) {
	errText := ""
	if fail.err != nil {
		errText = fail.err.Error()
	}
	s.cfg.Health.Record(metrics.Incident{
		Cause:          fail.cause,
		Err:            errText,
		DetectedAt:     fail.detectedAt,
		Detection:      fail.detection,
		MTTR:           time.Since(fail.detectedAt),
		RecoveredEpoch: resumeEpoch,
		Healed:         healed,
	})
}
