package shard

import (
	"fmt"
	"reflect"
	"testing"

	"morphstreamr/internal/engine"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/fttest"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/vtime"
	"morphstreamr/internal/workload"
)

// TestPricingChangesNothingRecoveryDoes recovers the same crashed devices
// priced (vtime.FixedCosts, as GroupRecover does) and unpriced (as Heal
// does), for 5 mechanisms × SL/GS/TP × 1/2 shards. Each run crashes after 11
// epochs (epoch 11 is an uncommitted tail that reprocesses) and is fed a 12th
// after recovery, whose commit seals that tail. Both give the same epochs,
// replayed volume, sequence floor, stores, device writes and bytes, and
// outputs; only the priced reports carry model terms and simulated walls.
func TestPricingChangesNothingRecoveryDoes(t *testing.T) {
	recoverCrashed := func(kind ftapi.Kind, gen workload.Generator, shards int, costs vtime.Costs) ([]any, *GroupReport) {
		out := make(Ledgers, shards)
		cfg := Config{GroupShape: types.GroupShape{RunShape: types.RunShape{Workers: 2, CommitEvery: 2, SnapshotEvery: 4}, Shards: shards},
			App: gen.App(), Kind: kind, Sink: out.Sink}
		var devs []*storage.Trace // every write, and the bytes left
		for i := 0; i <= shards; i++ {
			devs = append(devs, storage.NewTrace(storage.NewMem()))
			cfg.Devices = append(cfg.Devices, devs[i])
		}
		cfg.Devices, cfg.CoordDev = cfg.Devices[:shards], devs[shards]
		batches := make([][]types.Event, 12)
		for i := range batches {
			batches[i] = workload.Batch(gen, 24)
		}
		g, err := NewGroup(cfg)
		if err == nil {
			err = g.Run(batches[:11])
		}
		if err != nil {
			t.Fatal(err)
		}
		g.Crash()
		g, _ = newGroupShell(cfg) // cannot fail: NewGroup accepted cfg
		rep, err := g.recoverShards(types.BatchSource(batches), nil, costs, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		state := []any{rep.Target, rep.AlignedShards, g.seqFloor}
		for i, s := range g.shards {
			e := rep.Reports[i]
			state = append(state, e.SnapshotEpoch, e.CommittedEpoch, e.LastEpoch, e.EventsReplayed, s.eng.Store().Snapshot())
		}
		if err := g.ProcessEpoch(batches[11]); err != nil {
			t.Fatal(err)
		}
		for _, s := range g.shards {
			s.eng.Close()
		}
		return append(state, devs, out), rep
	}
	gens := map[string]func() workload.Generator{
		"SL": func() workload.Generator { // every transfer inside one partition: write-local at 2 shards
			p := workload.DefaultSLParams()
			p.Seed, p.Rows, p.Partitions, p.MultiPartitionRatio, p.AbortRatio = 53, 512, 2, 0, 0.2
			return workload.NewSL(p)
		},
		"GS": func() workload.Generator { return fttest.GSGen(53) },
		"TP": func() workload.Generator { return fttest.TPGen(53) },
	}
	model := func(r *engine.RecoveryReport) bool {
		return r.Breakdown.Total() != r.Breakdown.Reload || r.Profile != nil
	}
	for _, kind := range []ftapi.Kind{ftapi.CKPT, ftapi.WAL, ftapi.DL, ftapi.LV, ftapi.MSR} {
		for app, gen := range gens {
			for _, shards := range []int{1, 2} {
				name := fmt.Sprintf("%v/%s/shards=%d", kind, app, shards)
				p, prep := recoverCrashed(kind, gen(), shards, vtime.FixedCosts())
				u, urep := recoverCrashed(kind, gen(), shards, vtime.Costs{})
				if !reflect.DeepEqual(p, u) {
					t.Errorf("%s: priced and unpriced recoveries differ", name)
				}
				tail := false
				for s := range shards {
					tail = tail || prep.Reports[s].CommittedEpoch < prep.Reports[s].LastEpoch
					if !model(prep.Reports[s]) || model(urep.Reports[s]) {
						t.Errorf("%s shard %d: priced %+v, unpriced %+v", name, s, prep.Reports[s], urep.Reports[s])
					}
				}
				if !tail || prep.ParallelSim <= 0 || urep.SerialSim != 0 || urep.ParallelSim != 0 {
					t.Errorf("%s: tail reprocessed %v, simulated walls priced %v, unpriced %v/%v",
						name, tail, prep.ParallelSim, urep.SerialSim, urep.ParallelSim)
				}
			}
		}
	}
}
