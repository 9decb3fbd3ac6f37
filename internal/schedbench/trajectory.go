package schedbench

import (
	"time"

	"morphstreamr/internal/adaptive"
	"morphstreamr/internal/scheduler"
	"morphstreamr/internal/store"
	"morphstreamr/internal/tpg"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// A Trajectory is the adaptive benchmark's unit of measurement: a fresh
// multi-epoch run whose graphs evolve with the stream, unlike the static
// grid's single ResetExec'd epoch. The controller's value shows up only
// across epochs — it needs history to morph — so the controller and the
// pinned strategies are compared on whole trajectories.
type Trajectory struct {
	Name   string
	NewGen func() workload.Generator
	Epochs int
}

// Trajectories returns the adaptive benchmark's workload axis: two steady
// streams (one parallel-friendly, one hot-keyed and serial) that bound the
// controller against the best static choice, and the phase-shifting stream
// where no static choice is right.
func Trajectories() []Trajectory {
	return []Trajectory{
		{Name: "GS-steady-uniform", Epochs: 12, NewGen: func() workload.Generator {
			p := workload.DefaultGSParams()
			p.Theta, p.WriteOnly = 0, true
			return workload.NewGS(p)
		}},
		{Name: "GS-steady-hot", Epochs: 12, NewGen: func() workload.Generator {
			// Two rows: every epoch is a pair of ~1024-op serial chains, the
			// steady workload where fewer workers (or none) win.
			p := workload.DefaultGSParams()
			p.WriteOnly, p.Rows, p.Theta = true, 2, 0
			return workload.NewGS(p)
		}},
		{Name: "GS-phased", Epochs: 32, NewGen: func() workload.Generator {
			return workload.NewPhased(workload.DefaultPhasedParams())
		}},
	}
}

// TrajectoryResult is one measured trajectory run.
type TrajectoryResult struct {
	// Wall is the summed execution wall time (graph construction and event
	// generation excluded — identical work on every side).
	Wall time.Duration
	// Ops is the total operation count across epochs.
	Ops int
	// Morphs counts controller decisions (zero on a pinned run).
	Morphs int
}

// runTrajectory drives the epochs of one fresh trajectory through exec,
// timing only execution.
func runTrajectory(tr Trajectory, exec func(g *tpg.Graph, st *store.Store) error) (TrajectoryResult, error) {
	gen := tr.NewGen()
	app := gen.App()
	st := store.New(app.Tables())
	b := tpg.NewBuilder()
	var res TrajectoryResult
	for e := 0; e < tr.Epochs; e++ {
		events := workload.Batch(gen, EpochEvents)
		txns := make([]*types.Txn, len(events))
		for i := range events {
			txn := app.Preprocess(events[i])
			txns[i] = &txn
		}
		g := b.Build(txns)
		g.CaptureBases(st.Get)
		t0 := time.Now()
		err := exec(g, st)
		res.Wall += time.Since(t0)
		res.Ops += g.NumOps
		if err != nil {
			return res, err
		}
		b.Release(g)
	}
	return res, nil
}

// RunTrajectory executes a trajectory the way an engine does: through a
// scheduler.Executor whose controller sees each epoch's structure and the
// previous epoch's wall time. A nil force lets the controller decide; a
// non-nil one pins every epoch to that strategy — steal/wN is the static
// side of the comparison, the pool at one fixed worker count.
func RunTrajectory(tr Trajectory, maxWorkers int, force *adaptive.Strategy) (TrajectoryResult, error) {
	x := &scheduler.Executor{Ctrl: adaptive.New(adaptive.Config{MaxWorkers: maxWorkers, Force: force})}
	defer x.Close()
	epoch := uint64(0)
	res, err := runTrajectory(tr, func(g *tpg.Graph, st *store.Store) error {
		epoch++
		return x.Execute(epoch, g, st)
	})
	if force == nil {
		res.Morphs = x.Ctrl.Morphs()
	}
	return res, err
}
