package crashtest

import (
	"fmt"
	"sync/atomic"
	"time"

	"morphstreamr/internal/engine"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/obs"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
)

// Scenario names one chaos pattern driven through a live shard group.
// Where the crash-point sweep proves offline recovery correct, a chaos run
// proves the online story: the group keeps its outputs exactly-once through
// live faults, heals in place through shard.Group.Heal, and resumes.
type Scenario int

// Chaos scenarios.
const (
	// TransientStorm scripts a short error storm on the victim's device,
	// under a retry layer that must absorb it: the run completes with ZERO
	// heals.
	TransientStorm Scenario = iota
	// FatalHeal scripts one fatal write on the victim's device: the group
	// heals EXACTLY ONCE, and the victim's recovery report must match an
	// offline crash of the same group at the same write.
	FatalHeal
	// MidEpochPanic makes one transaction carry an operation on a row
	// outside its table, so the store panics mid-epoch: panic isolation
	// fails the epoch and the group heals once.
	MidEpochPanic
	// ShardKill is FatalHeal on a group of several shards: the survivors
	// keep committing while the dead shard heals in place and the
	// interrupted barrier completes.
	ShardKill
)

func (s Scenario) String() string {
	switch s {
	case TransientStorm:
		return "transient-storm"
	case FatalHeal:
		return "fatal-heal"
	case MidEpochPanic:
		return "mid-epoch-panic"
	case ShardKill:
		return "shard-kill"
	default:
		return fmt.Sprintf("scenario(%d)", int(s))
	}
}

// ChaosConfig shapes one chaos run: the sweep Config describes the workload
// (so chaos runs and crash-point sweeps share one reference execution),
// Shards the group, the scenario the fault.
type ChaosConfig struct {
	// Config is the workload shape; its Mode and Target fields are unused
	// (chaos injects through Flaky, not Faulty).
	Config
	// Shards is the group fan-out. Zero means 1.
	Shards   int
	Scenario Scenario
	// KillShard is the shard whose device the storm or outage hits.
	KillShard int
	// FaultAt is the 0-based write index on that device where the storm or
	// outage begins. Zero means the midpoint of the device's own write
	// sequence, enumerated from a fault-free run of the same config —
	// mid-run at every run length. Ignored for MidEpochPanic, whose bad
	// operation rides the middle event of the run.
	FaultAt int
	// StormLen is the transient storm length (default 3).
	StormLen int
	// Obs, when non-nil, observes the group: the run's epochs, the heal's
	// recovery spans and the incident log land in its registry and tracer.
	Obs *obs.Observer
}

func (c *ChaosConfig) normalizeChaos() (*ShardConfig, error) {
	cfg := &ShardConfig{Config: c.Config, Shards: max(c.Shards, 1)}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if c.KillShard < 0 || c.KillShard >= cfg.Shards {
		return nil, fmt.Errorf("crashtest: KillShard %d out of range for %d shards", c.KillShard, cfg.Shards)
	}
	if c.StormLen <= 0 {
		c.StormLen = 3
	}
	return cfg, nil
}

// ChaosOutcome reports what one chaos run observed. Chaos verifies the run
// against the sharded oracle before returning it, so a non-error outcome
// means state equality and exactly-once delivery already held.
type ChaosOutcome struct {
	Scenario Scenario
	Kind     ftapi.Kind
	// FailedEpoch is the epoch whose ProcessEpoch failed (zero when the
	// fault never escalated).
	FailedEpoch uint64
	// Heals counts Group.Heal calls: 0 for a storm, 1 for every other
	// scenario.
	Heals int
	// Cause is the heal incident's classification (engine.Classify).
	Cause string
	// Detection is fault occurrence (first injection, or the bad operation
	// being built) to the heal starting; zero when nothing escalated.
	Detection time.Duration
	// MTTR is the heal's duration: failure detected to the group live
	// again; zero when the storm was absorbed below the group.
	MTTR time.Duration
	// RetryStats is the victim's retry layer (TransientStorm only).
	RetryStats storage.RetryStats
	// SurvivorCommits is the committed-epoch vector at detection: the
	// survivors' punctuation frontiers, proving they kept committing while
	// one shard was dead.
	SurvivorCommits []uint64
	// Report is the victim shard's recovery report (nil when nothing
	// healed).
	Report *engine.RecoveryReport
	// OfflineMatch reports whether Report agreed with the offline crash of
	// the same group at the same write (FatalHeal and ShardKill; vacuously
	// true otherwise).
	OfflineMatch bool
	// Wall is the whole run's wall-clock time.
	Wall time.Duration
}

// Chaos executes one chaos run over a shard group and verifies it: the
// scenario-exact heal count and classification, every shard's final state
// equal to the oracle, exactly-once application outputs across every
// incarnation of every shard, and every event surfacing on exactly one
// shard. Any divergence is the returned error.
func Chaos(cc ChaosConfig) (*ChaosOutcome, error) {
	cfg, err := cc.normalizeChaos()
	if err != nil {
		return nil, err
	}
	ref, err := buildRef(&cfg.Config, cfg.Shards, cfg.Epochs+1)
	if err != nil {
		return nil, err
	}
	if cc.FaultAt <= 0 && cc.Scenario != MidEpochPanic {
		sites, err := shardEnumerate(cfg, ref)
		if err != nil {
			return nil, err
		}
		cc.FaultAt = len(sites[deviceName(cfg.Shards, cc.KillShard)]) / 2
	}

	devs := make([]storage.Device, cfg.Shards)
	for i := range devs {
		devs[i] = storage.NewMem()
	}
	st := storage.NewStack(storage.NewMem()).WithFlaky()
	app, pa := ref.app, (*panicApp)(nil)
	switch cc.Scenario {
	case TransientStorm:
		st.Flaky.AddStorm(cc.FaultAt, cc.StormLen)
		// Each retried attempt consumes one storm arrival, so a storm of
		// length n needs n+1 attempts; leave margin.
		st.WithRetry(storage.RetryPolicy{
			BaseBackoff: 200 * time.Microsecond,
			MaxBackoff:  2 * time.Millisecond,
			MaxAttempts: cc.StormLen + 3,
		})
	case FatalHeal, ShardKill:
		st.Flaky.AddOutage(cc.FaultAt, 1)
	case MidEpochPanic:
		pa = &panicApp{App: ref.app, at: int64(cfg.Epochs * cfg.EpochSize / 2)}
		app = pa
	default:
		return nil, fmt.Errorf("chaos: unknown scenario %v", cc.Scenario)
	}
	devs[cc.KillShard] = st.MustBuild()
	ledgers := make(shard.Ledgers, cfg.Shards)
	g, err := newShardGroup(cfg, app, devs, storage.NewMem(), cc.Obs, ledgers)
	if err != nil {
		return nil, err
	}
	defer func() {
		for i := 0; i < g.Shards(); i++ {
			g.Engine(i).Close()
		}
	}()

	label := fmt.Sprintf("chaos %v/%v", cfg.Kind, cc.Scenario)
	out := &ChaosOutcome{Scenario: cc.Scenario, Kind: cfg.Kind, OfflineMatch: true}
	src := types.BatchSource(ref.batches)
	start := time.Now()
	for g.Epoch() < uint64(cfg.Epochs) {
		procErr := g.ProcessEpoch(ref.batches[g.Epoch()])
		if procErr == nil {
			continue
		}
		if out.Heals > 0 {
			return nil, fmt.Errorf("%s: second failure at epoch %d: %w", label, g.Epoch()+1, procErr)
		}
		out.FailedEpoch = g.Epoch() + 1
		out.SurvivorCommits = g.CommittedVector()
		rep, err := g.Heal(procErr, src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		out.Heals++
		out.Report = rep.Reports[cc.KillShard]
	}
	out.Wall = time.Since(start)
	if st.Retrying != nil {
		out.RetryStats = st.Retrying.Stats()
	}

	// Scenario-exact healing behaviour, from the group's incident log.
	want, wantCause := 1, "io-fatal"
	switch cc.Scenario {
	case TransientStorm:
		want = 0
		if out.RetryStats.Absorbed == 0 {
			return nil, fmt.Errorf("%s: storm never exercised the retry layer", label)
		}
	case MidEpochPanic:
		wantCause = "panic"
	}
	incs := g.Health().Incidents()
	if out.Heals != want || len(incs) != want {
		return nil, fmt.Errorf("%s: %d heals and incidents %+v, want %d", label, out.Heals, incs, want)
	}
	if want == 1 {
		inc := incs[0]
		if !inc.Healed || inc.Cause != wantCause {
			return nil, fmt.Errorf("%s: incident %+v, want a healed %q", label, inc, wantCause)
		}
		out.Cause, out.MTTR = inc.Cause, inc.MTTR
		if at, ok := st.Flaky.FirstInjectionAt(); ok {
			out.Detection = inc.DetectedAt.Sub(at)
		} else if pa != nil {
			out.Detection = inc.DetectedAt.Sub(time.Unix(0, pa.firedAt.Load()))
		}
	}

	// Oracle verification at the end of the run: every shard's state, its
	// exactly-once application outputs, and routing as a partition.
	last := uint64(cfg.Epochs)
	for s := 0; s < cfg.Shards; s++ {
		if err := ref.orc.CheckState(s, last, g.Engine(s).Store()); err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
	}
	if err := checkShardOutputs(ref, g, ledgers, last); err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}

	// A fatal heal must tell the same story as the offline crash of the
	// same group at the same write: Flaky's outage at write k and Faulty's
	// budget k leave identical device content at recovery time, so the
	// deterministic report fields must agree.
	if cc.Scenario == FatalHeal || cc.Scenario == ShardKill {
		offline, err := offlineReport(cfg, ref, cc.KillShard, cc.FaultAt)
		if err != nil {
			return nil, fmt.Errorf("%s: offline twin: %w", label, err)
		}
		sr := out.Report
		if sr == nil || sr.SnapshotEpoch != offline.SnapshotEpoch || sr.CommittedEpoch != offline.CommittedEpoch ||
			sr.LastEpoch != offline.LastEpoch || sr.EventsReplayed != offline.EventsReplayed {
			out.OfflineMatch = false
			return nil, fmt.Errorf("%s: healed recovery %+v != offline crash-point recovery (snap=%d committed=%d last=%d replayed=%d)",
				label, sr, offline.SnapshotEpoch, offline.CommittedEpoch, offline.LastEpoch, offline.EventsReplayed)
		}
	}
	return out, nil
}

// offlineReport runs the workload over a group whose shard kill dies
// fail-stop at its 0-based write k — exactly the device content a Flaky
// outage at write k leaves behind — crashes the group, recovers it from the
// surviving media with GroupRecover, and returns shard kill's report.
func offlineReport(cfg *ShardConfig, ref *shardRef, kill, k int) (*engine.RecoveryReport, error) {
	fc := *cfg
	fc.Mode, fc.Target = storage.FailStop, ""
	g, rep, _, err := shardCrash(&fc, ref, kill, k)
	if err != nil {
		return nil, err
	}
	for i := 0; i < g.Shards(); i++ {
		g.Engine(i).Close()
	}
	return rep.Reports[kill], nil
}

// panicApp makes the at-th event it turns into operations carry one extra
// operation on the row just past its first table's end, so the store panics
// when that operation fires, mid-epoch. It fires once: the heal's recovery
// turns the same event into its real operations.
type panicApp struct {
	types.App
	at      int64
	seen    atomic.Int64
	firedAt atomic.Int64 // UnixNano when the bad operation was built
}

// Preprocess implements types.App over the wrapper's AppendOps.
func (a *panicApp) Preprocess(ev types.Event) types.Txn {
	return types.NewTxn(ev, a.AppendOps(nil, ev))
}

// AppendOps implements types.App.
func (a *panicApp) AppendOps(ops []types.Operation, ev types.Event) []types.Operation {
	n := len(ops)
	ops = a.App.AppendOps(ops, ev)
	if a.seen.Add(1) == a.at && a.firedAt.CompareAndSwap(0, time.Now().UnixNano()) {
		sp := a.Tables()[0]
		ops = append(ops, ev.Op(len(ops)-n, types.Key{Table: sp.ID, Row: sp.Rows}, types.FnPut, 0))
	}
	return ops
}
