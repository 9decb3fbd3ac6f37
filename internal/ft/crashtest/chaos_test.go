package crashtest

import (
	"errors"
	"fmt"
	"testing"

	"morphstreamr/internal/adaptive"
	"morphstreamr/internal/engine"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/fttest"
	"morphstreamr/internal/scheduler"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/workload"
)

var chaosKinds = []ftapi.Kind{ftapi.CKPT, ftapi.WAL, ftapi.DL, ftapi.LV, ftapi.MSR}

// TestChaosMatrix drives every one-shard fault scenario for every
// recoverable mechanism through the group's heal: transient storms heal
// with zero heals, fatal faults and mid-epoch panics with exactly one, and
// every run's final state and output ledger match the oracle. Chaos()
// itself performs the verification; a non-nil error is a failure.
func TestChaosMatrix(t *testing.T) {
	for _, kind := range chaosKinds {
		for _, sc := range []Scenario{TransientStorm, FatalHeal, MidEpochPanic} {
			kind, sc := kind, sc
			t.Run(fmt.Sprintf("%v/%v", kind, sc), func(t *testing.T) {
				t.Parallel()
				out, err := Chaos(ChaosConfig{
					Config: Config{
						Kind:   kind,
						NewGen: func() workload.Generator { return fttest.SLGen(61) },
					},
					Scenario: sc,
				})
				if err != nil {
					t.Fatal(err)
				}
				if sc != TransientStorm && out.MTTR <= 0 {
					t.Fatalf("MTTR not measured: %+v", out)
				}
			})
		}
	}
}

// TestChaosFaultSitePlacement moves the fatal fault across the write
// sequence — early (before the first commit), middle, and late — to cover
// heals that resume from different punctuations.
func TestChaosFaultSitePlacement(t *testing.T) {
	for _, at := range []int{1, 4, 9} {
		at := at
		t.Run(fmt.Sprintf("write=%d", at), func(t *testing.T) {
			t.Parallel()
			_, err := Chaos(ChaosConfig{
				Config: Config{
					Kind:   ftapi.WAL,
					NewGen: func() workload.Generator { return fttest.SLGen(67) },
				},
				Scenario: FatalHeal,
				FaultAt:  at,
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestChaosLongStorm stretches the storm to many consecutive writes and
// the retry budget with it: still zero heals, still oracle-equal.
func TestChaosLongStorm(t *testing.T) {
	out, err := Chaos(ChaosConfig{
		Config: Config{
			Kind:   ftapi.MSR,
			NewGen: func() workload.Generator { return fttest.SLGen(71) },
		},
		Scenario: TransientStorm,
		StormLen: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.RetryStats.Retries < 8 {
		t.Fatalf("storm of 8 produced only %d retries", out.RetryStats.Retries)
	}
}

// TestShardChaosSingleKill kills one shard's device under sustained
// ingestion for each recoverable mechanism: the survivors must keep
// committing, the group must heal the dead shard in place, and the whole
// run must stay oracle-equivalent with gap-free exactly-once outputs on
// every shard.
func TestShardChaosSingleKill(t *testing.T) {
	for _, kind := range chaosKinds {
		for _, kill := range []int{0, 2} {
			out, err := Chaos(ChaosConfig{
				Config: Config{
					Kind:   kind,
					NewGen: func() workload.Generator { return fttest.GSGen(43) },
				},
				Shards:    4,
				Scenario:  ShardKill,
				KillShard: kill,
				FaultAt:   8,
			})
			if err != nil {
				t.Fatalf("%v kill=%d: %v", kind, kill, err)
			}
			if len(out.SurvivorCommits) != 4 {
				t.Fatalf("%v kill=%d: committed vector %v", kind, kill, out.SurvivorCommits)
			}
			// Survivors completed the interrupted epoch's processing; their
			// committed frontier is at most one commit interval behind it
			// and never behind the previous commit point.
			for s, committed := range out.SurvivorCommits {
				if s != kill && committed+2 < out.FailedEpoch {
					t.Errorf("%v kill=%d: survivor %d committed only through %d at a death in epoch %d",
						kind, kill, s, committed, out.FailedEpoch)
				}
			}
			t.Logf("%v kill=%d: died epoch %d, cause %s, MTTR %v, survivors %v",
				kind, kill, out.FailedEpoch, out.Cause, out.MTTR, out.SurvivorCommits)
		}
	}
}

// TestShardChaosDefaultFaultSiteFollowsRunLength pins the derived fault
// site: with FaultAt unset the shard must die strictly mid-run at every run
// length, including runs too short for any fixed write index to land in.
func TestShardChaosDefaultFaultSiteFollowsRunLength(t *testing.T) {
	for _, epochs := range []int{3, 6, 10} {
		out, err := Chaos(ChaosConfig{
			Config: Config{
				Kind:   ftapi.WAL,
				NewGen: func() workload.Generator { return fttest.GSGen(43) },
				Epochs: epochs,
			},
			Shards:    4,
			Scenario:  ShardKill,
			KillShard: 2,
		})
		if err != nil {
			t.Fatalf("epochs=%d: %v", epochs, err)
		}
		if out.FailedEpoch < 2 || out.FailedEpoch > uint64(epochs-1) {
			t.Errorf("epochs=%d: died in epoch %d, want strictly mid-run", epochs, out.FailedEpoch)
		}
	}
}

// TestShardChaosTransientIsInvisible pins the boundary between the retry
// layer and the heal ladder at group scale: a transient storm on one
// shard's device of a two-shard group is absorbed with no heal at all.
func TestShardChaosTransientIsInvisible(t *testing.T) {
	out, err := Chaos(ChaosConfig{
		Config: Config{
			Kind:   ftapi.WAL,
			NewGen: func() workload.Generator { return fttest.GSGen(43) },
		},
		Shards:   2,
		Scenario: TransientStorm,
		StormLen: 2,
	})
	if err != nil {
		t.Fatalf("transient storm leaked through the retry layer: %v", err)
	}
	if out.FailedEpoch != 0 || out.RetryStats.Absorbed == 0 {
		t.Fatalf("storm escalated or was never absorbed: %+v", out)
	}
}

// TestPanicIsolatedOnEveryExecutor pins panic isolation on both executors:
// an engine held on the sequential path (AdaptiveForce{seq}) or on the pool
// fails the epoch whose operation panics with ErrOpPanic — classified
// "panic" — instead of the process, and after recovery from its device it
// finishes the run equal to the oracle.
func TestPanicIsolatedOnEveryExecutor(t *testing.T) {
	for _, force := range []adaptive.Strategy{{Impl: adaptive.ImplSeq, Workers: 1}, {Impl: adaptive.ImplSteal, Workers: 2}} {
		for _, kind := range chaosKinds {
			t.Run(fmt.Sprintf("%s/%v", force.Impl, kind), func(t *testing.T) {
				cfg := Config{Kind: kind, NewGen: func() workload.Generator { return fttest.SLGen(73) }, Force: &force}
				if err := cfg.normalize(); err != nil {
					t.Fatal(err)
				}
				ref, err := buildRef(&cfg, 1, cfg.Epochs)
				if err != nil {
					t.Fatal(err)
				}
				app := &panicApp{App: cfg.NewGen().App(), at: int64(cfg.Epochs * cfg.EpochSize / 2)}
				dev := storage.NewMem()
				e, err := engine.New(engineConfig(&cfg, dev, app, nil))
				if err != nil {
					t.Fatal(err)
				}
				err = runEpochs(e, ref.batches)
				if !errors.Is(err, scheduler.ErrOpPanic) || engine.Classify(err) != "panic" {
					t.Fatalf("want an ErrOpPanic epoch classified panic, got %q: %v", engine.Classify(err), err)
				}
				e.Crash()
				e2, rep, err := engine.Recover(engineConfig(&cfg, dev, app, nil))
				if err != nil {
					t.Fatal(err)
				}
				defer e2.Close()
				if err := runEpochs(e2, ref.batches[rep.LastEpoch:]); err != nil {
					t.Fatal(err)
				}
				if err := ref.orc.CheckState(0, uint64(cfg.Epochs), e2.Store()); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
