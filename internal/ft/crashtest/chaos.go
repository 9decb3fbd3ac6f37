package crashtest

import (
	"fmt"
	"sync/atomic"
	"time"

	"morphstreamr/internal/engine"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/metrics"
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
	// TransientStorm fails StormLen consecutive writes on the victim's
	// device, after which the medium comes back: the group heals in place,
	// retrying every heal the storm fails, and every incident is io-fatal.
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
// and the group (so chaos runs and crash-point sweeps share one reference
// execution), the scenario the fault.
type ChaosConfig struct {
	// Config is the workload and group shape; its Mode, Target and
	// SampleEvery fields are unused (chaos injects a fail-stop outage,
	// storage.NewOutage, on every write of the victim's device).
	Config
	Scenario Scenario
	// KillShard is the shard whose device the storm or outage hits; a
	// TransientStorm may name Shards, the coordinator's device.
	KillShard int
	// FaultAt is the 0-based write index on that device where the storm or
	// outage begins. Zero means the midpoint of the device's own write
	// sequence, enumerated from a fault-free run of the same config —
	// mid-run at every run length. Ignored for MidEpochPanic, whose bad
	// operation rides the middle event of the run.
	FaultAt int
	// StormLen is the transient storm length (default 3). A run calls
	// Heal at most StormLen+2 times.
	StormLen int
	// Obs, when non-nil, observes the group: the run's epochs, the heal's
	// recovery spans and the incident log land in its registry and tracer.
	Obs *obs.Observer
}

func (c *ChaosConfig) normalize() error {
	if err := c.Config.normalize(); err != nil {
		return err
	}
	if c.KillShard < 0 || c.KillShard > c.Shards || c.KillShard == c.Shards && c.Scenario != TransientStorm {
		return fmt.Errorf("crashtest: KillShard %d out of range for %d shards and %v", c.KillShard, c.Shards, c.Scenario)
	}
	if c.StormLen <= 0 {
		c.StormLen = 3
	}
	return nil
}

// ChaosOutcome reports what one chaos run observed. Chaos verifies the run
// against the sharded oracle before returning it, so a non-error outcome
// means state equality and exactly-once delivery already held.
type ChaosOutcome struct {
	Scenario Scenario
	Kind     ftapi.Kind
	// FailedEpoch is the epoch whose ProcessEpoch failed.
	FailedEpoch uint64
	// Heals counts Group.Heal calls: 1 for every scenario but a storm,
	// which takes one more for each heal it fails.
	Heals int
	// Cause is the first heal incident's classification (engine.Classify).
	Cause string
	// Detection is fault occurrence (first injection, or the bad operation
	// being built) to the first heal starting.
	Detection time.Duration
	// MTTR is failure first detected to the end of the last heal, across
	// every heal a storm takes.
	MTTR time.Duration
	// SurvivorCommits is the committed-epoch vector at detection: the
	// survivors' punctuation frontiers, proving they kept committing while
	// one shard was dead.
	SurvivorCommits []uint64
	// Report is the victim shard's recovery report from the last heal;
	// Healed is that heal's whole report.
	Report *engine.RecoveryReport
	Healed *shard.GroupReport
	// Incidents is the group's incident log, one per heal.
	Incidents []metrics.Incident
	// OfflineMatch reports whether Report agreed with the offline crash of
	// the same group at the same write (FatalHeal and ShardKill; vacuously
	// true otherwise).
	OfflineMatch bool
	// Wall is the whole run's wall-clock time.
	Wall time.Duration
}

// Chaos executes one chaos run over a shard group and verifies it: the
// scenario-exact heal count and classification (heals are retried the way a
// host retries them: after every failed ProcessEpoch or Heal, Heal again
// with the error it returned), every shard's final state
// equal to the oracle, exactly-once application outputs across every
// incarnation of every shard, and every event surfacing on exactly one
// shard. Any divergence is the returned error.
func Chaos(cc ChaosConfig) (*ChaosOutcome, error) {
	if err := cc.normalize(); err != nil {
		return nil, err
	}
	cfg := &cc.Config
	ref, err := buildRef(cfg)
	if err != nil {
		return nil, err
	}
	if cc.FaultAt <= 0 && cc.Scenario != MidEpochPanic {
		sites, err := enumerate(cfg, ref)
		if err != nil {
			return nil, err
		}
		cc.FaultAt = len(sites[deviceName(cfg.Shards, cc.KillShard)]) / 2
	}

	devs := newBases(cfg)
	app, pa, dev := ref.app, (*panicApp)(nil), (*storage.Faulty)(nil)
	switch cc.Scenario {
	case TransientStorm:
		dev = storage.NewOutage(devs[cc.KillShard], cc.FaultAt, cc.StormLen)
	case FatalHeal, ShardKill:
		dev = storage.NewOutage(devs[cc.KillShard], cc.FaultAt, 1)
	case MidEpochPanic:
		pa = &panicApp{App: ref.app, at: int64(cfg.Epochs * cfg.EpochSize / 2)}
		app = pa
	default:
		return nil, fmt.Errorf("chaos: unknown scenario %v", cc.Scenario)
	}
	if dev != nil {
		devs[cc.KillShard] = dev
	}
	ledgers := make(shard.Ledgers, cfg.Shards)
	gc := groupConfig(cfg, app, devs, ledgers.Sink)
	gc.Obs = cc.Obs
	g, err := shard.NewGroup(gc)
	if err != nil {
		return nil, err
	}
	defer closeGroup(g)

	label := fmt.Sprintf("chaos %v/%v", cfg.Kind, cc.Scenario)
	out := &ChaosOutcome{Scenario: cc.Scenario, Kind: cfg.Kind, OfflineMatch: true}
	src := types.BatchSource(ref.batches)
	start := time.Now()
	for g.Epoch() < uint64(cfg.Epochs) {
		err := g.ProcessEpoch(ref.batches[g.Epoch()])
		if err != nil && out.Heals == 0 {
			out.FailedEpoch = g.Epoch() + 1
			out.SurvivorCommits = g.CommittedVector()
		}
		for ; err != nil; out.Heals++ {
			if out.Heals == cc.StormLen+2 {
				return nil, fmt.Errorf("%s: still failing after %d heals: %w", label, out.Heals, err)
			}
			out.Healed, err = g.Heal(err, src)
		}
	}
	out.Wall = time.Since(start)

	// Scenario-exact healing behaviour, from the group's incident log: one
	// healed incident, or for a storm as many as it takes, the last healed.
	wantCause := "io-fatal"
	if cc.Scenario == MidEpochPanic {
		wantCause = "panic"
	}
	incs := g.Health().Incidents()
	out.Incidents = incs
	if out.Heals == 0 || len(incs) != out.Heals || (out.Heals > 1 && cc.Scenario != TransientStorm) {
		return nil, fmt.Errorf("%s: %d heals and incidents %+v, want one heal", label, out.Heals, incs)
	}
	for i, inc := range incs {
		if inc.Cause != wantCause || i == len(incs)-1 && !inc.Healed {
			return nil, fmt.Errorf("%s: incident %d of %d is %+v, want %q, the last healed", label, i+1, len(incs), inc, wantCause)
		}
	}
	first, last := incs[0], incs[len(incs)-1]
	if cc.KillShard < cfg.Shards {
		out.Report = out.Healed.Reports[cc.KillShard]
	}
	out.Cause, out.MTTR = first.Cause, last.DetectedAt.Add(last.MTTR).Sub(first.DetectedAt)
	if dev != nil {
		out.Detection = first.DetectedAt.Sub(dev.InjectedAt())
	} else {
		out.Detection = first.DetectedAt.Sub(time.Unix(0, pa.firedAt.Load()))
	}

	// Oracle verification at the end of the run: every shard's state, its
	// exactly-once application outputs, and routing as a partition.
	if err := ref.check(cfg, g, ledgers, uint64(cfg.Epochs)); err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}

	// A fatal heal must tell the same story as the offline crash of the
	// same group at the same write: a one-write outage at write k and a
	// Faulty that dies for good at write k leave identical device content
	// at recovery time, so the deterministic report fields must agree.
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
// fail-stop at its 0-based write k — exactly the device content a one-write
// outage at write k leaves behind — crashes the group, recovers it from the
// surviving media with GroupRecover, and returns shard kill's report.
func offlineReport(cfg *Config, ref *shardRef, kill, k int) (*engine.RecoveryReport, error) {
	fc := *cfg
	fc.Mode, fc.Target = storage.FailStop, ""
	g, rep, _, err := shardCrash(&fc, ref, kill, k)
	if err != nil {
		return nil, err
	}
	closeGroup(g)
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
