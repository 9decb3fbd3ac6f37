package crashtest

import (
	"fmt"
	"sync/atomic"
	"time"

	"morphstreamr/internal/core"
	"morphstreamr/internal/engine"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/msr"
	"morphstreamr/internal/metrics"
	"morphstreamr/internal/obs"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/supervisor"
	"morphstreamr/internal/tpg"
	"morphstreamr/internal/types"
)

// Scenario names one chaos pattern driven through the supervisor. Where
// the crash-point sweep proves offline recovery correct, a chaos run
// proves the *online* story: the supervised engine keeps the exactly-once
// ledger through live fault storms, heals in-process, and resumes.
type Scenario int

// Chaos scenarios.
const (
	// TransientStorm scripts a short error storm the retry layer must
	// absorb: the run completes with ZERO recoveries.
	TransientStorm Scenario = iota
	// FatalHeal scripts one fatal device fault: the supervisor must heal
	// with EXACTLY ONE in-process recovery, and the recovery report must
	// match the offline crashtest path for the same crash site.
	FatalHeal
	// MidEpochPanic injects a worker panic mid-epoch: panic isolation
	// converts it to a failed epoch and the supervisor heals once.
	MidEpochPanic
)

func (s Scenario) String() string {
	switch s {
	case TransientStorm:
		return "transient-storm"
	case FatalHeal:
		return "fatal-heal"
	case MidEpochPanic:
		return "mid-epoch-panic"
	default:
		return fmt.Sprintf("scenario(%d)", int(s))
	}
}

// ChaosConfig shapes one supervised chaos run: the sweep Config describes
// the workload (so chaos runs and crash-point sweeps share one reference
// execution), the scenario describes the fault.
type ChaosConfig struct {
	// Config is the workload shape; its Mode and Target fields are unused
	// here (chaos injects through Flaky, not Faulty).
	Config
	Scenario Scenario
	// FaultAt is the 0-based durable-write index the device fault lands on
	// (default 5 — mid-run for every mechanism at the default shape).
	// Ignored for MidEpochPanic, whose site is an op-count threshold.
	FaultAt int
	// StormLen is the transient storm length (default 3).
	StormLen int
	// StallTimeout passes through to the supervisor (default 2s; chaos
	// scenarios never stall, so this only bounds harness hangs).
	StallTimeout time.Duration
	// Obs, when non-nil, passes through to the supervisor: the chaos run's
	// epochs, heals, and state transitions land in its registry and tracer,
	// so a live /trace capture shows the incident end to end.
	Obs *obs.Observer
}

func (c *ChaosConfig) normalizeChaos() error {
	if err := c.Config.normalize(); err != nil {
		return err
	}
	if c.FaultAt <= 0 {
		c.FaultAt = 5
	}
	if c.StormLen <= 0 {
		c.StormLen = 3
	}
	return nil
}

// ChaosOutcome reports what one chaos run observed. Chaos verifies the
// run against the oracle before returning it, so a non-error outcome
// means state equality and exactly-once delivery already held.
type ChaosOutcome struct {
	Scenario   Scenario
	Kind       ftapi.Kind
	Pipeline   bool
	Recoveries int
	// Detection is fault occurrence (first injection, or the panic) to
	// supervisor detection; zero when nothing escalated.
	Detection time.Duration
	// MTTR is detection to recovery complete and the stream resumed; zero
	// when the scenario healed below the supervisor (TransientStorm).
	MTTR time.Duration
	// RetryStats aggregates transient absorption across incarnations.
	RetryStats storage.RetryStats
	// Incidents is the supervisor's incident log.
	Incidents []metrics.Incident
	// Reports holds the recovery reports of any heals.
	Reports []*engine.RecoveryReport
	// OfflineMatch reports whether the supervised recovery report agreed
	// with the offline crashtest recovery of the same crash site
	// (FatalHeal only; vacuously true otherwise).
	OfflineMatch bool
	// Wall is the whole supervised run's wall-clock time.
	Wall time.Duration
}

// Chaos executes one supervised chaos run and verifies it: scenario-exact
// recovery count, final state equal to the oracle, and exactly-once
// outputs across every incarnation. Any divergence is the returned error.
func Chaos(cc ChaosConfig) (*ChaosOutcome, error) {
	if err := cc.normalizeChaos(); err != nil {
		return nil, err
	}
	cfg := &cc.Config
	ref := buildOracle(cfg)

	st := storage.NewStack(storage.NewMem()).WithFlaky()
	flaky := st.Flaky
	var fireHook func(*tpg.OpNode)
	var panicAt atomic.Int64 // wall-clock ns of the injected panic
	retry := storage.RetryPolicy{
		BaseBackoff: 200 * time.Microsecond,
		MaxBackoff:  2 * time.Millisecond,
	}
	switch cc.Scenario {
	case TransientStorm:
		flaky.AddStorm(cc.FaultAt, cc.StormLen)
		// Each retried attempt consumes one storm arrival, so a storm of
		// length n needs n+1 attempts; leave margin.
		retry.MaxAttempts = cc.StormLen + 3
	case FatalHeal:
		flaky.AddOutage(cc.FaultAt, 1)
	case MidEpochPanic:
		// Panic once, mid-stream: ops fired ≥ events, so half the event
		// count is always reached and always before the run ends.
		threshold := int64(cfg.Epochs*cfg.EpochSize) / 2
		var fired atomic.Int64
		var armed atomic.Bool
		armed.Store(true)
		fireHook = func(*tpg.OpNode) {
			if fired.Add(1) == threshold && armed.CompareAndSwap(true, false) {
				panicAt.Store(time.Now().UnixNano())
				panic("chaos: injected mid-epoch op panic")
			}
		}
	default:
		return nil, fmt.Errorf("chaos: unknown scenario %v", cc.Scenario)
	}

	gen := cfg.NewGen()
	sup, err := supervisor.New(supervisor.Config{
		RunShape: cfg.RunShape,
		App:      gen.App(),
		Device:   st.MustBuild(),
		Mechanism: func(dev storage.Device, bytes *metrics.Bytes) ftapi.Mechanism {
			return core.NewMechanism(cfg.Kind, dev, bytes, msr.Default())
		},
		Source:       types.BatchSource(ref.batches),
		Retry:        retry,
		StallTimeout: cc.StallTimeout,
		FireHook:     fireHook,
		Obs:          cc.Obs,
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := sup.Run(); err != nil {
		return nil, fmt.Errorf("chaos %v/%v: supervised run: %w", cfg.Kind, cc.Scenario, err)
	}
	out := &ChaosOutcome{
		Scenario:     cc.Scenario,
		Kind:         cfg.Kind,
		Pipeline:     cfg.Pipeline,
		Recoveries:   sup.Recoveries(),
		RetryStats:   sup.RetryStats(),
		Incidents:    sup.Health().Incidents(),
		Reports:      sup.Reports(),
		OfflineMatch: true,
		Wall:         time.Since(start),
	}

	// Scenario-exact healing behaviour.
	wantRecoveries := 1
	if cc.Scenario == TransientStorm {
		wantRecoveries = 0
	}
	if out.Recoveries != wantRecoveries {
		return nil, fmt.Errorf("chaos %v/%v: %d recoveries, want %d",
			cfg.Kind, cc.Scenario, out.Recoveries, wantRecoveries)
	}
	if cc.Scenario == TransientStorm && out.RetryStats.Absorbed == 0 {
		return nil, fmt.Errorf("chaos %v/%v: storm never exercised the retry layer", cfg.Kind, cc.Scenario)
	}

	// Detection latency and MTTR from the incident log.
	if len(out.Incidents) > 0 {
		inc := out.Incidents[0]
		out.MTTR = inc.MTTR
		if at, ok := flaky.FirstInjectionAt(); ok {
			out.Detection = inc.DetectedAt.Sub(at)
		} else if ns := panicAt.Load(); ns != 0 {
			out.Detection = inc.DetectedAt.Sub(time.Unix(0, ns))
		} else {
			out.Detection = inc.Detection
		}
	}

	// Oracle verification: final state and exactly-once outputs across all
	// incarnations.
	last := uint64(cfg.Epochs)
	if err := ref.checkState(last, sup.Engine().Store()); err != nil {
		return nil, fmt.Errorf("chaos %v/%v: %w", cfg.Kind, cc.Scenario, err)
	}
	if err := ref.checkOutputs(last, sup.Outputs(), sup.Engine().PendingOutputs()); err != nil {
		return nil, fmt.Errorf("chaos %v/%v: %w", cfg.Kind, cc.Scenario, err)
	}

	// FatalHeal: the supervised recovery must tell the same story as the
	// offline crashtest path for the same crash site. Flaky's outage at
	// write k and Faulty's budget k leave identical device content at
	// recovery time, so the deterministic report fields must agree.
	if cc.Scenario == FatalHeal {
		offline, err := offlineReport(cfg, ref, cc.FaultAt)
		if err != nil {
			return nil, fmt.Errorf("chaos %v/%v: offline twin: %w", cfg.Kind, cc.Scenario, err)
		}
		if len(out.Reports) != 1 {
			return nil, fmt.Errorf("chaos %v/%v: %d recovery reports, want 1", cfg.Kind, cc.Scenario, len(out.Reports))
		}
		sr := out.Reports[0]
		if sr.SnapshotEpoch != offline.SnapshotEpoch ||
			sr.CommittedEpoch != offline.CommittedEpoch ||
			sr.LastEpoch != offline.LastEpoch ||
			sr.EventsReplayed != offline.EventsReplayed {
			out.OfflineMatch = false
			return nil, fmt.Errorf(
				"chaos %v/%v: supervised recovery (snap=%d committed=%d last=%d replayed=%d) "+
					"!= offline crashtest recovery (snap=%d committed=%d last=%d replayed=%d)",
				cfg.Kind, cc.Scenario,
				sr.SnapshotEpoch, sr.CommittedEpoch, sr.LastEpoch, sr.EventsReplayed,
				offline.SnapshotEpoch, offline.CommittedEpoch, offline.LastEpoch, offline.EventsReplayed)
		}
	}
	return out, nil
}

// offlineReport replays the workload against a Faulty device dying
// fail-stop at 0-based write k — exactly the device content a Flaky
// outage at write k leaves behind — and returns the offline recovery
// report for comparison against the supervised one.
func offlineReport(cfg *Config, ref *oracleRef, k int) (*engine.RecoveryReport, error) {
	inner := storage.NewMem()
	dev := storage.NewStack(inner).WithFaulty(k, storage.FailStop, "").MustBuild()
	gen := cfg.NewGen()
	e, err := newEngine(cfg, dev, gen)
	if err != nil {
		return nil, err
	}
	if procErr := processAll(e, ref.batches); procErr == nil {
		return nil, fmt.Errorf("budget %d never hit the injected fault", k)
	}
	e.Crash()
	bytes := metrics.NewBytes()
	_, report, err := engine.Recover(engine.Config{
		RunShape:  recoverShape(cfg),
		App:       gen.App(),
		Device:    inner,
		Mechanism: core.NewMechanism(cfg.Kind, inner, bytes, msr.Default()),
		Bytes:     bytes,
	})
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	return report, nil
}
