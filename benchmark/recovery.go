package main

import (
	"fmt"
	"runtime"
	"time"

	"morphstreamr/internal/shard"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// The recovery fixture is a fixed amount of lost work: 23 epochs of 4096
// events fed straight to the shard group, then a crash. Snapshots land at
// epochs 8 and 16, so every recovery replays exactly epochs 17 to 23.
// Recovery after the traffic window would replay however much the window
// happened to leave uncommitted, which is a lottery.
const (
	fixtureEpochs      = 23
	fixtureEpochEvents = 4096
	fixtureLane        = 1000 // generator stream apart from every connection
)

type fixture struct {
	sp      *spec
	tr      tracer // nil outside the traced run
	app     types.App
	batches [][]types.Event
	oracle  *shard.GroupOracle
}

func newFixture(sp *spec, seed int64, tr tracer) (*fixture, error) {
	g := sp.generator(seed, fixtureLane)
	f := &fixture{sp: sp, tr: tr, app: g.App()}
	seq := uint64(1)
	for e := 0; e < fixtureEpochs; e++ {
		b := workload.Batch(g, fixtureEpochEvents)
		for i := range b {
			b[i].Seq = seq
			seq++
		}
		f.batches = append(f.batches, b)
	}
	var err error
	f.oracle, err = shard.NewGroupOracle(f.app, sp.shards, f.batches)
	if err != nil {
		return nil, fmt.Errorf("fixture oracle: %w", err)
	}
	return f, nil
}

// recovery is one crash and recovery of the fixture.
type recovery struct {
	rep      *shard.GroupReport
	replayed int
	cfg      shard.Config
}

// recoverOnce ingests the fixture into fresh devices, crashes the group,
// recovers it and checks the recovered state against the oracle.
func (f *fixture) recoverOnce(serial bool) (*recovery, error) {
	var wrap deviceWrap
	if f.tr != nil {
		wrap = f.tr.Device
	}
	cfg := f.sp.groupConfig(f.app, wrap)
	g, err := shard.NewGroup(cfg)
	if err != nil {
		return nil, err
	}
	for _, b := range f.batches {
		if err := g.ProcessEpoch(b); err != nil {
			return nil, fmt.Errorf("fixture ingest: %w", err)
		}
	}
	g.Crash()
	runtime.GC()
	var rg *shard.Group
	var rep *shard.GroupReport
	doRecover := func() {
		rg, rep, err = shard.GroupRecover(shard.RecoverConfig{
			Config: cfg, Source: shard.BatchSource(f.batches), Serial: serial,
		})
	}
	if f.tr != nil {
		f.tr.Recovery(doRecover)
	} else {
		doRecover()
	}
	if err != nil {
		return nil, fmt.Errorf("fixture recovery: %w", err)
	}
	defer func() {
		for s := 0; s < rg.Shards(); s++ {
			rg.Engine(s).Close()
		}
	}()
	if rep.Target != fixtureEpochs {
		return nil, fmt.Errorf("audit: fixture recovered to epoch %d, want %d", rep.Target, fixtureEpochs)
	}
	r := &recovery{rep: rep, cfg: cfg}
	for s := 0; s < rg.Shards(); s++ {
		if err := f.oracle.CheckState(s, rep.Target, rg.Engine(s).Store()); err != nil {
			return nil, fmt.Errorf("audit: %w", err)
		}
		r.replayed += rep.Reports[s].EventsReplayed
	}
	return r, nil
}

// recoveryStats is the fixture recovered repeats times.
type recoveryStats struct {
	wallMs, simMs float64 // medians
	replayed      int
	last          *recovery
}

func (f *fixture) repeat(repeats int) (*recoveryStats, error) {
	var walls, sims []float64
	st := &recoveryStats{}
	for i := 0; i < repeats; i++ {
		r, err := f.recoverOnce(false)
		if err != nil {
			return nil, err
		}
		if i > 0 && r.replayed != st.replayed {
			return nil, fmt.Errorf("audit: fixture recovery %d replayed %d events, the first replayed %d", i, r.replayed, st.replayed)
		}
		st.replayed, st.last = r.replayed, r
		walls = append(walls, ms(r.rep.Wall))
		sims = append(sims, float64(r.rep.ParallelSim)/float64(time.Millisecond))
	}
	st.wallMs, st.simMs = median(walls), median(sims)
	return st, nil
}
