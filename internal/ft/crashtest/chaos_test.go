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
	"morphstreamr/internal/shard"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

var chaosKinds = []ftapi.Kind{ftapi.CKPT, ftapi.WAL, ftapi.DL, ftapi.LV, ftapi.MSR}

// TestChaosMatrix drives every one-shard fault scenario for every
// recoverable mechanism through the group's heal: transient storms heal in
// place after as many io-fatal heals as the storm fails, fatal faults and
// mid-epoch panics with exactly one, and every run's final state and output
// ledger match the oracle. Chaos() itself performs the verification; a
// non-nil error is a failure.
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
				if out.MTTR <= 0 {
					t.Fatalf("MTTR not measured: %+v", out)
				}
			})
		}
	}
}

// TestChaosFaultSitePlacement moves the fatal fault across the shard's
// write sequence of a 12-epoch run — early (the second commit), middle (the
// first snapshot's GC), and late (the second snapshot's GC) — to cover heals
// that resume from different punctuations.
func TestChaosFaultSitePlacement(t *testing.T) {
	for _, at := range []int{1, 4, 9} {
		at := at
		t.Run(fmt.Sprintf("write=%d", at), func(t *testing.T) {
			t.Parallel()
			_, err := Chaos(ChaosConfig{
				Config: Config{
					Kind:   ftapi.WAL,
					NewGen: func() workload.Generator { return fttest.SLGen(67) },
					Epochs: 12,
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
					Shards: 4,
				},
				Scenario:  ShardKill,
				KillShard: kill,
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
				Shards: 4,
			},
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

// shardStorm storms n writes of a two-shard group's device — shard 0's, or
// for a long CKPT storm the coordinator's — for every mechanism. Chaos()
// checks each run against the oracle; want judges it and its failed heals.
func shardStorm(t *testing.T, n int, want func(out *ChaosOutcome, unhealed int) bool) {
	for _, kind := range chaosKinds {
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			out, err := Chaos(ChaosConfig{
				Config:   Config{Kind: kind, NewGen: func() workload.Generator { return fttest.GSGen(43) }, Shards: 2},
				Scenario: TransientStorm, StormLen: n, KillShard: map[bool]int{true: 2}[kind == ftapi.CKPT && n > 2],
			})
			if err != nil {
				t.Fatal(err)
			}
			unhealed := 0
			for _, inc := range out.Incidents {
				if !inc.Healed {
					unhealed++
				}
			}
			if !want(out, unhealed) {
				t.Fatalf("storm of %d: %d heals (%d failed), group reports %v", n, out.Heals, unhealed, out.Healed.Reports)
			}
		})
	}
}

// TestShardChaosTransientIsInvisible: a short storm (2 writes) on one of
// two shards is invisible to the survivor. It fails only live epochs, each
// healed in place by the shard rung alone: no heal fails and the survivor
// is never recovered.
func TestShardChaosTransientIsInvisible(t *testing.T) {
	shardStorm(t, 2, func(out *ChaosOutcome, unhealed int) bool {
		return unhealed == 0 && out.Healed.Reports[1] == nil
	})
}

// TestChaosLongStorm stretches the storm to 8 writes: it also fails heals,
// and the host's retried heal goes on until the medium is back. A CKPT heal
// writes nothing to a shard's device (it keeps no log), so its storm hits
// the coordinator's, where the heal completes the barrier the storm broke.
func TestChaosLongStorm(t *testing.T) {
	shardStorm(t, 8, func(_ *ChaosOutcome, unhealed int) bool { return unhealed > 0 })
}

// panicGroup runs cfg's workload on a fresh group over fresh devices with
// the application app(ref) and requires the run to fail with an operation
// panic. It returns the reference run, the application, the devices and the
// failed group (closed when the test ends) with its error.
func panicGroup(t *testing.T, cfg *Config, app func(*shardRef) types.App) (*shardRef, types.App, []storage.Device, *shard.Group, error) {
	t.Helper()
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	ref, err := buildRef(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, devs := app(ref), newBases(cfg)
	g, err := shard.NewGroup(groupConfig(cfg, a, devs, nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeGroup(g) })
	err = g.Run(ref.batches[:cfg.Epochs])
	wantPanic(t, "live epoch", err)
	return ref, a, devs, g, err
}

// wantPanic requires err to wrap ErrOpPanic and classify as "panic".
func wantPanic(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, scheduler.ErrOpPanic) || engine.Classify(err) != "panic" {
		t.Fatalf("%s: want an ErrOpPanic error classified panic, got %q: %v", what, engine.Classify(err), err)
	}
}

// TestPanicIsolatedOnEveryExecutor pins panic isolation on both executors:
// a one-shard group whose engine is held on the sequential path
// (AdaptiveForce{seq}) or on the pool fails the epoch whose operation
// panics with ErrOpPanic — classified "panic" — instead of the process, and
// after recovery from its devices it finishes the run equal to the oracle.
func TestPanicIsolatedOnEveryExecutor(t *testing.T) {
	for _, force := range []adaptive.Strategy{{Impl: adaptive.ImplSeq, Workers: 1}, {Impl: adaptive.ImplSteal, Workers: 2}} {
		for _, kind := range chaosKinds {
			t.Run(fmt.Sprintf("%s/%v", force.Impl, kind), func(t *testing.T) {
				cfg := Config{Kind: kind, NewGen: func() workload.Generator { return fttest.SLGen(73) }, force: &force}
				ref, app, devs, g, _ := panicGroup(t, &cfg, func(ref *shardRef) types.App {
					return &panicApp{App: ref.app, at: int64(cfg.Epochs * cfg.EpochSize / 2)}
				})
				g.Crash()
				g2, _, err := recoverGroup(&cfg, ref, app, devs, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer closeGroup(g2)
				if err := g2.Run(ref.batches[g2.Epoch():cfg.Epochs]); err != nil {
					t.Fatal(err)
				}
				if err := ref.check(&cfg, g2, nil, uint64(cfg.Epochs)); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// poisonApp makes the event numbered seq carry one extra operation on the
// row just past its first table's end every time it is turned into
// operations (panicApp's trick, applied on every execution), so no
// recovery that reprocesses the event can succeed.
type poisonApp struct {
	types.App
	seq uint64
}

// Preprocess implements types.App over the wrapper's AppendOps.
func (a poisonApp) Preprocess(ev types.Event) types.Txn {
	return types.NewTxn(ev, a.AppendOps(nil, ev))
}

// AppendOps implements types.App.
func (a poisonApp) AppendOps(ops []types.Operation, ev types.Event) []types.Operation {
	n := len(ops)
	if ops = a.App.AppendOps(ops, ev); ev.Seq == a.seq {
		sp := a.Tables()[0]
		ops = append(ops, ev.Op(len(ops)-n, types.Key{Table: sp.ID, Row: sp.Rows}, types.FnPut, 0))
	}
	return ops
}

// TestPoisonEventFailsHealNotProcess: an event whose operation panics on
// every execution fails its live epoch with ErrOpPanic, and so does every
// recovery that feeds it again — the live group's Heal and a cold
// GroupRecover from the same devices alike — with an error classified
// "panic", instead of killing the process. On two shards (GS) the survivor
// committed the epoch, so recovery must re-feed it to the poisoned shard
// and fails. On one (SL) no durable record holds the epoch: recovery
// resumes before it, and the host's re-feed of it fails.
func TestPoisonEventFailsHealNotProcess(t *testing.T) {
	for _, sh := range []struct {
		name   string
		shards int
		gen    func(int64) workload.Generator
	}{{"SL/1", 1, fttest.SLGen}, {"GS/2", 2, fttest.GSGen}} {
		for _, kind := range chaosKinds {
			t.Run(fmt.Sprintf("%s/%v", sh.name, kind), func(t *testing.T) {
				cfg := Config{Kind: kind, Shards: sh.shards, NewGen: func() workload.Generator { return sh.gen(29) }}
				ref, app, devs, g, procErr := panicGroup(t, &cfg, func(ref *shardRef) types.App {
					return poisonApp{App: ref.app, seq: ref.batches[cfg.Epochs/2][cfg.EpochSize/2].Seq}
				})
				refeed := func(g *shard.Group, err error) error {
					if err == nil && sh.shards == 1 && g.Epoch() == uint64(cfg.Epochs/2) {
						err = g.ProcessEpoch(ref.batches[g.Epoch()])
					}
					return err
				}
				_, err := g.Heal(procErr, types.BatchSource(ref.batches))
				wantPanic(t, "heal", refeed(g, err))
				if incs := g.Health().Incidents(); len(incs) != 1 || incs[0].Healed != (err == nil) || incs[0].Cause != "panic" {
					t.Fatalf("incidents %+v, want one panic", incs)
				}
				g2, _, err := recoverGroup(&cfg, ref, app, devs, nil)
				if err == nil {
					t.Cleanup(func() { closeGroup(g2) })
					err = refeed(g2, err)
				}
				wantPanic(t, "cold recovery", err)
			})
		}
	}
}
