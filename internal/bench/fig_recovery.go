package bench

import (
	"fmt"
	"time"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/msr"
	"morphstreamr/internal/workload"
)

// recoveryKinds is the comparison set for recovery figures (NAT cannot
// recover).
func recoveryKinds() []ftapi.Kind {
	return []ftapi.Kind{ftapi.CKPT, ftapi.WAL, ftapi.DL, ftapi.LV, ftapi.MSR}
}

// Fig2 reproduces the motivating comparison (Figure 2): runtime throughput
// and recovery time of every applicable fault-tolerance approach on
// Streaming Ledger.
type Fig2Result struct {
	Runs map[ftapi.Kind]Run
}

// kindRuns runs each kind on one application, the median of repeat runs.
func kindRuns(fig string, scale Scale, app AppFactory, kinds []ftapi.Kind, repeat int) (map[ftapi.Kind]Run, error) {
	runs := make(map[ftapi.Kind]Run)
	for _, kind := range kinds {
		run, err := Execute(Scenario{Gen: func() workload.Generator { return app.Make(scale, 1) }, Kind: kind, Scale: scale, Repeat: repeat})
		if err != nil {
			return nil, fmt.Errorf("%s %s/%v: %w", fig, app.Name, kind, err)
		}
		runs[kind] = run
	}
	return runs, nil
}

// appRuns is kindRuns on every application, by name.
func appRuns(fig string, scale Scale, kinds []ftapi.Kind, repeat int) (map[string]map[ftapi.Kind]Run, error) {
	runs := make(map[string]map[ftapi.Kind]Run)
	for _, app := range Apps() {
		r, err := kindRuns(fig, scale, app, kinds, repeat)
		if err != nil {
			return nil, err
		}
		runs[app.Name] = r
	}
	return runs, nil
}

// Fig2 runs the experiment.
func Fig2(scale Scale) (*Fig2Result, error) {
	runs, err := kindRuns("fig2", scale, slApp, ftapi.Kinds(), 3)
	if err != nil {
		return nil, err
	}
	return &Fig2Result{Runs: runs}, nil
}

// Tables renders the figure.
func (r *Fig2Result) Tables() []Table {
	nat := r.Runs[ftapi.NAT].RuntimeThroughput
	t := Table{
		Title:  "Figure 2: fault tolerance approaches on Streaming Ledger",
		Note:   "runtime throughput (events/s, % of native) and recovery time",
		Header: []string{"scheme", "runtime(ev/s)", "%NAT", "recovery(ms)", "rec-tput(ev/s)"},
	}
	for _, kind := range ftapi.Kinds() {
		run := r.Runs[kind]
		rec, recT := "-", "-"
		if run.Recovery != nil {
			rec = ms(run.Recovery.SimWall())
			recT = fnum(run.Recovery.Throughput())
		}
		t.Rows = append(t.Rows, []string{
			kind.String(),
			fnum(run.RuntimeThroughput),
			fmt.Sprintf("%.0f%%", 100*run.RuntimeThroughput/nat),
			rec, recT,
		})
	}
	return []Table{t}
}

// Fig11 reproduces the recovery-time breakdown (Figure 11a-c): per
// application and scheme, the six-way decomposition of recovery time.
type Fig11Result struct {
	// Runs[app][kind]; Tables divides each breakdown by Scale's workers.
	Runs  map[string]map[ftapi.Kind]Run
	Scale Scale
}

// Fig11 runs the experiment.
func Fig11(scale Scale) (*Fig11Result, error) {
	runs, err := appRuns("fig11", scale, recoveryKinds(), 0)
	if err != nil {
		return nil, err
	}
	return &Fig11Result{Runs: runs, Scale: scale}, nil
}

// Tables renders one table per application.
func (r *Fig11Result) Tables() []Table {
	var out []Table
	for _, app := range Apps() {
		t := Table{
			Title:  fmt.Sprintf("Figure 11: recovery time breakdown — %s", app.Name),
			Note:   "per-worker milliseconds (aggregate thread-time / workers); total = wall recovery",
			Header: []string{"scheme", "reload", "construct", "abort", "explore", "execute", "wait", "total(ms)"},
		}
		for _, kind := range recoveryKinds() {
			run := r.Runs[app.Name][kind]
			bd := run.Recovery.Breakdown.PerWorker(r.Scale.Workers)
			row := []string{kind.String()}
			for _, c := range bd.Components() {
				row = append(row, ms(c.D))
			}
			row = append(row, ms(bd.Total()))
			t.Rows = append(t.Rows, row)
		}
		out = append(out, t)
	}
	return out
}

// Fig11d reproduces the factor analysis (Figure 11d): MorphStreamR's
// recovery optimizations added incrementally.
type Fig11dResult struct {
	// RecoveryMS[app][step] in presentation order.
	Steps []string
	Times map[string]map[string]time.Duration
}

// Fig11d runs the experiment.
func Fig11d(scale Scale) (*Fig11dResult, error) {
	steps := []struct {
		name string
		opts msr.Options
	}{
		{"Simple", msr.Options{SelectiveLogging: true}},
		{"+OpRestructure", msr.Options{SelectiveLogging: true, OpRestructure: true}},
		{"+AbortPD", msr.Options{SelectiveLogging: true, OpRestructure: true, AbortPushdown: true}},
		{"+OptTaskAssign", msr.Default()},
	}
	res := &Fig11dResult{Times: make(map[string]map[string]time.Duration)}
	for _, s := range steps {
		res.Steps = append(res.Steps, s.name)
	}
	for _, app := range Apps() {
		res.Times[app.Name] = make(map[string]time.Duration)
		for _, s := range steps {
			opts := s.opts
			run, err := Execute(Scenario{
				Gen:  func() workload.Generator { return app.Make(scale, 1) },
				Kind: ftapi.MSR, Scale: scale, MSR: &opts,
			})
			if err != nil {
				return nil, fmt.Errorf("fig11d %s/%s: %w", app.Name, s.name, err)
			}
			res.Times[app.Name][s.name] = run.Recovery.SimWall()
		}
	}
	return res, nil
}

// Tables renders the figure.
func (r *Fig11dResult) Tables() []Table {
	t := Table{
		Title:  "Figure 11d: factor analysis of MorphStreamR recovery (ms, lower is better)",
		Note:   "optimizations added incrementally left to right",
		Header: append([]string{"app"}, r.Steps...),
	}
	for _, app := range Apps() {
		row := []string{app.Name}
		for _, s := range r.Steps {
			row = append(row, ms(r.Times[app.Name][s]))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}
}

// Fig13 reproduces the scalability study (Figure 13): recovery throughput
// as the worker count grows.
type Fig13Result struct {
	Workers []int
	// Tput[app][kind][i] aligns with Workers.
	Tput map[string]map[ftapi.Kind][]float64
}

// Fig13 runs the experiment.
func Fig13(scale Scale, workers []int) (*Fig13Result, error) {
	workers = orDefault(workers, []int{1, 2, 4, 8})
	res := &Fig13Result{Workers: workers, Tput: make(map[string]map[ftapi.Kind][]float64)}
	for _, app := range Apps() {
		res.Tput[app.Name] = make(map[ftapi.Kind][]float64)
		for _, kind := range recoveryKinds() {
			for _, w := range workers {
				s := scale
				s.Workers = w
				run, err := Execute(Scenario{Gen: func() workload.Generator { return app.Make(s, 1) }, Kind: kind, Scale: s})
				if err != nil {
					return nil, fmt.Errorf("fig13 %s/%v/w%d: %w", app.Name, kind, w, err)
				}
				res.Tput[app.Name][kind] = append(res.Tput[app.Name][kind], run.RecoveryThroughput())
			}
		}
	}
	return res, nil
}

// Tables renders one table per application.
func (r *Fig13Result) Tables() []Table {
	var out []Table
	for _, app := range Apps() {
		t := Table{
			Title:  fmt.Sprintf("Figure 13: recovery throughput vs cores — %s", app.Name),
			Note:   "events recovered per second",
			Header: []string{"scheme"},
		}
		for _, w := range r.Workers {
			t.Header = append(t.Header, fmt.Sprintf("w=%d", w))
		}
		for _, kind := range recoveryKinds() {
			t.Rows = append(t.Rows, append([]string{kind.String()}, fnums(r.Tput[app.Name][kind])...))
		}
		out = append(out, t)
	}
	return out
}

// Fig14 reproduces the workload sensitivity study (Figure 14) on Grep&Sum:
// multi-partition ratio (a), state access skewness (b), and aborting
// transactions (c), each reporting recovery throughput per scheme.
type Fig14Result struct {
	Title  string
	Axis   string
	Points []string
	// Tput[kind][i] aligns with Points.
	Tput map[ftapi.Kind][]float64
}

// fig14 runs one sweep: set moves the default GS parameters to each value,
// label names its point.
func fig14(scale Scale, res Fig14Result, values []float64, label func(float64) string, set func(*workload.GSParams, float64)) (*Fig14Result, error) {
	res.Tput = make(map[ftapi.Kind][]float64)
	for _, v := range values {
		res.Points = append(res.Points, label(v))
	}
	for _, kind := range recoveryKinds() {
		for i, v := range values {
			p := workload.DefaultGSParams()
			set(&p, v)
			p.Partitions = scale.Workers
			run, err := Execute(Scenario{Gen: func() workload.Generator { return workload.NewGS(p) }, Kind: kind, Scale: scale})
			if err != nil {
				return nil, fmt.Errorf("%s %v/%s: %w", res.Title, kind, res.Points[i], err)
			}
			res.Tput[kind] = append(res.Tput[kind], run.RecoveryThroughput())
		}
	}
	return &res, nil
}

func percent(v float64) string { return fmt.Sprintf("%.0f%%", 100*v) }

// Fig14a sweeps the multi-partition transaction ratio with skew 0 and no
// aborts.
func Fig14a(scale Scale, ratios []float64) (*Fig14Result, error) {
	return fig14(scale, Fig14Result{Title: "Figure 14a: impact of multi-partition state transactions", Axis: "multi-partition ratio"},
		orDefault(ratios, []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}), percent, func(p *workload.GSParams, v float64) {
			p.Theta, p.AbortRatio, p.MultiPartitionRatio = 0, 0, v
		})
}

// Fig14b sweeps state access skewness on a write-only workload.
func Fig14b(scale Scale, thetas []float64) (*Fig14Result, error) {
	return fig14(scale, Fig14Result{Title: "Figure 14b: impact of state access skewness", Axis: "state access skew (theta)"},
		orDefault(thetas, []float64{0, 0.4, 0.8, 1.2}), func(v float64) string { return fmt.Sprintf("%.1f", v) },
		func(p *workload.GSParams, v float64) {
			p.Theta, p.AbortRatio, p.MultiPartitionRatio, p.WriteOnly = v, 0, 0, true
		})
}

// Fig14c sweeps the percentage of events that trigger aborts.
func Fig14c(scale Scale, ratios []float64) (*Fig14Result, error) {
	return fig14(scale, Fig14Result{Title: "Figure 14c: impact of aborting transactions", Axis: "aborting transactions"},
		orDefault(ratios, []float64{0, 0.2, 0.4, 0.6, 0.8}), percent, func(p *workload.GSParams, v float64) {
			p.Theta, p.MultiPartitionRatio, p.AbortRatio = 0, 0.3, v
		})
}

// Tables renders a sensitivity sweep.
func (r *Fig14Result) Tables() []Table {
	t := Table{
		Title:  r.Title,
		Note:   "recovery throughput (events/s) on Grep&Sum, axis: " + r.Axis,
		Header: append([]string{"scheme"}, r.Points...),
	}
	for _, kind := range recoveryKinds() {
		t.Rows = append(t.Rows, append([]string{kind.String()}, fnums(r.Tput[kind])...))
	}
	return []Table{t}
}
