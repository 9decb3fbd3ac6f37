package bench

import (
	"fmt"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/msr"
	"morphstreamr/internal/workload"
)

// Fig9 reproduces the workload-aware log commitment study (Figure 9):
// runtime and recovery throughput of MorphStreamR under different log
// commitment epochs, across the four contention classes.
type Fig9Result struct {
	Epochs  []int
	Classes []string
	// Runtime[class][i] and Recovery[class][i] align with Epochs.
	Runtime  map[string][]float64
	Recovery map[string][]float64
	// Advised[class] is the workload-aware advisor's pick.
	Advised map[string]int
}

// fig9Class builds the GS configuration of one contention quadrant.
func fig9Class(name string) workload.GSParams {
	p := workload.DefaultGSParams()
	p.AbortRatio = 0
	switch name {
	case "LSFD":
		p.Theta, p.Reads = 0, 0
	case "LSMD":
		p.Theta, p.Reads, p.MultiPartitionRatio = 0, 3, 0.8
	case "HSFD":
		p.Theta, p.Reads = 1.0, 0
	case "HSMD":
		p.Theta, p.Reads, p.MultiPartitionRatio = 1.0, 3, 0.8
	}
	return p
}

// fig9Epochs is Figure 9's default commit-epoch sweep.
var fig9Epochs = []int{1, 2, 4, 8}

// fig9Scale adjusts scale to a sweep of commit epochs (ascending). The
// crash lands on a boundary every setting shares, so no configuration is
// punished with a longer uncommitted tail, and never on a snapshot
// boundary, so every run recovers something.
func fig9Scale(scale Scale, epochs []int) (Scale, error) {
	maxCE := epochs[len(epochs)-1]
	if scale.PostEpochs%maxCE != 0 {
		scale.PostEpochs = maxCE
	}
	for scale.SnapshotEvery > 0 && scale.PostEpochs%scale.SnapshotEvery == 0 {
		scale.SnapshotEvery *= 2
	}
	for _, ce := range epochs {
		if scale.SnapshotEvery <= 0 || scale.SnapshotEvery%ce != 0 {
			return scale, fmt.Errorf("fig9: snapshot interval %d incompatible with commit epochs %v",
				scale.SnapshotEvery, epochs)
		}
	}
	return scale, nil
}

// Fig9 runs the experiment over the commit epochs given (ascending; nil
// is fig9Epochs).
func Fig9(scale Scale, epochs []int) (*Fig9Result, error) {
	epochs = orDefault(epochs, fig9Epochs)
	scale, err := fig9Scale(scale, epochs)
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{
		Epochs:   epochs,
		Classes:  []string{"LSFD", "LSMD", "HSFD", "HSMD"},
		Runtime:  make(map[string][]float64),
		Recovery: make(map[string][]float64),
		Advised:  make(map[string]int),
	}
	for _, class := range res.Classes {
		for _, ce := range epochs {
			p := fig9Class(class)
			p.Partitions = scale.Workers
			sc := scale
			sc.CommitEvery = ce
			run, err := Execute(Scenario{
				Gen:  func() workload.Generator { return workload.NewGS(p) },
				Kind: ftapi.MSR, Scale: sc, Repeat: 3,
			})
			if err != nil {
				return nil, fmt.Errorf("fig9 %s/ce%d: %w", class, ce, err)
			}
			res.Runtime[class] = append(res.Runtime[class], run.RuntimeThroughput)
			res.Recovery[class] = append(res.Recovery[class], run.RecoveryThroughput())
		}
		// What would workload-aware commitment have chosen?
		p := fig9Class(class)
		p.Partitions = scale.Workers
		run, err := Execute(Scenario{
			Gen:  func() workload.Generator { return workload.NewGS(p) },
			Kind: ftapi.MSR, Scale: scale, AutoCommit: true,
		})
		if err != nil {
			return nil, fmt.Errorf("fig9 %s/auto: %w", class, err)
		}
		res.Advised[class] = run.CommitEvery
	}
	return res, nil
}

// Tables renders runtime and recovery views.
func (r *Fig9Result) Tables() []Table {
	mk := func(title string, data map[string][]float64) Table {
		t := Table{
			Title:  title,
			Note:   "Grep&Sum contention classes vs log commitment epoch (MSR)",
			Header: []string{"class"},
		}
		for _, ce := range r.Epochs {
			t.Header = append(t.Header, fmt.Sprintf("ce=%d", ce))
		}
		t.Header = append(t.Header, "advised")
		for _, class := range r.Classes {
			row := append([]string{class}, fnums(data[class])...)
			row = append(row, fmt.Sprintf("%d", r.Advised[class]))
			t.Rows = append(t.Rows, row)
		}
		return t
	}
	return []Table{
		mk("Figure 9 (runtime): throughput (events/s)", r.Runtime),
		mk("Figure 9 (recovery): throughput (events/s)", r.Recovery),
	}
}

// Fig12a reproduces the runtime throughput comparison (Figure 12a).
type Fig12aResult struct {
	// Runs[app][kind]; their runtime throughput is the figure.
	Runs map[string]map[ftapi.Kind]Run
}

// Fig12a runs the experiment.
func Fig12a(scale Scale) (*Fig12aResult, error) {
	runs, err := appRuns("fig12a", scale, ftapi.Kinds(), 3)
	if err != nil {
		return nil, err
	}
	return &Fig12aResult{Runs: runs}, nil
}

// Tables renders the figure.
func (r *Fig12aResult) Tables() []Table {
	t := Table{
		Title:  "Figure 12a: runtime throughput (events/s, % of native in parentheses)",
		Header: []string{"app"},
	}
	for _, kind := range ftapi.Kinds() {
		t.Header = append(t.Header, kind.String())
	}
	for _, app := range Apps() {
		nat := r.Runs[app.Name][ftapi.NAT].RuntimeThroughput
		row := []string{app.Name}
		for _, kind := range ftapi.Kinds() {
			v := r.Runs[app.Name][kind].RuntimeThroughput
			row = append(row, fmt.Sprintf("%s (%.0f%%)", fnum(v), 100*v/nat))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}
}

// Fig12b reproduces the selective-logging effectiveness study
// (Figure 12b): logging efficiency — recovery improvement over CKPT
// divided by runtime degradation versus native — with and without
// selective logging, as the multi-partition ratio grows.
type Fig12bResult struct {
	Ratios []float64
	// Efficiency[variant][i]: variant is "selective" or "full".
	Efficiency map[string][]float64
	// LogBytes[variant][i]: durable view log volume.
	LogBytes map[string][]int64
}

// Fig12b runs the experiment.
func Fig12b(scale Scale, ratios []float64) (*Fig12bResult, error) {
	ratios = orDefault(ratios, []float64{0.1, 0.3, 0.5, 0.7, 0.9})
	res := &Fig12bResult{
		Ratios:     ratios,
		Efficiency: make(map[string][]float64),
		LogBytes:   make(map[string][]int64),
	}
	for _, ratio := range ratios {
		mkGen := func() workload.Generator {
			p := workload.DefaultSLParams()
			p.Partitions = scale.Workers
			p.MultiPartitionRatio = ratio
			return workload.NewSL(p)
		}
		nat, err := Execute(Scenario{Gen: mkGen, Kind: ftapi.NAT, Scale: scale, Repeat: 3})
		if err != nil {
			return nil, err
		}
		ckpt, err := Execute(Scenario{Gen: mkGen, Kind: ftapi.CKPT, Scale: scale, Repeat: 3})
		if err != nil {
			return nil, err
		}
		for _, variant := range []string{"selective", "full"} {
			opts := msr.Default()
			opts.SelectiveLogging = variant == "selective"
			run, err := Execute(Scenario{Gen: mkGen, Kind: ftapi.MSR, Scale: scale, MSR: &opts, Repeat: 3})
			if err != nil {
				return nil, fmt.Errorf("fig12b %s/%.1f: %w", variant, ratio, err)
			}
			improvement := run.RecoveryThroughput() / ckpt.RecoveryThroughput()
			degradation := nat.RuntimeThroughput / run.RuntimeThroughput
			res.Efficiency[variant] = append(res.Efficiency[variant], improvement/degradation)
			res.LogBytes[variant] = append(res.LogBytes[variant], run.LogBytes)
		}
	}
	return res, nil
}

// Tables renders the figure.
func (r *Fig12bResult) Tables() []Table {
	t := Table{
		Title:  "Figure 12b: logging efficiency of selective logging (SL)",
		Note:   "efficiency = (recovery tput / CKPT recovery tput) / (NAT tput / runtime tput); higher is better",
		Header: []string{"multi-partition"},
	}
	for _, v := range []string{"selective", "full"} {
		t.Header = append(t.Header, v, v+"-logKB")
	}
	for i, ratio := range r.Ratios {
		row := []string{fmt.Sprintf("%.0f%%", 100*ratio)}
		for _, v := range []string{"selective", "full"} {
			row = append(row, fnum(r.Efficiency[v][i]), fmt.Sprintf("%d", r.LogBytes[v][i]/1024))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}
}

// Fig12c reproduces the memory footprint study (Figure 12c): peak live
// fault-tolerance artifact bytes and durable log bytes per scheme on SL.
type Fig12cResult struct {
	Runs map[ftapi.Kind]Run
}

// Fig12c runs the experiment. Commit groups of two epochs expose the
// artifacts each mechanism buffers until its commit.
func Fig12c(scale Scale) (*Fig12cResult, error) {
	scale.CommitEvery = 2
	runs, err := kindRuns("fig12c", scale, slApp, recoveryKinds(), 0)
	if err != nil {
		return nil, err
	}
	return &Fig12cResult{Runs: runs}, nil
}

// Tables renders the figure.
func (r *Fig12cResult) Tables() []Table {
	t := Table{
		Title:  "Figure 12c: fault-tolerance artifact footprint (SL)",
		Note:   "peak live in-memory bytes and cumulative durable log bytes (KiB)",
		Header: []string{"scheme", "peak-live(KiB)", "log-written(KiB)"},
	}
	for _, kind := range recoveryKinds() {
		t.Rows = append(t.Rows, []string{
			kind.String(),
			fmt.Sprintf("%d", r.Runs[kind].PeakLiveBytes/1024),
			fmt.Sprintf("%d", r.Runs[kind].LogBytes/1024),
		})
	}
	return []Table{t}
}

// Fig12d reproduces the runtime overhead breakdown (Figure 12d): I/O,
// tracking, and sync time per scheme on SL, relative to native execution.
type Fig12dResult struct {
	Runs map[ftapi.Kind]Run
}

// Fig12d runs the experiment.
func Fig12d(scale Scale) (*Fig12dResult, error) {
	runs, err := kindRuns("fig12d", scale, slApp, recoveryKinds(), 3)
	if err != nil {
		return nil, err
	}
	return &Fig12dResult{Runs: runs}, nil
}

// Tables renders the figure.
func (r *Fig12dResult) Tables() []Table {
	t := Table{
		Title:  "Figure 12d: runtime overhead breakdown (SL)",
		Note:   "milliseconds of fault-tolerance work added over native execution",
		Header: []string{"scheme", "io(ms)", "tracking(ms)", "sync(ms)", "total(ms)"},
	}
	for _, kind := range recoveryKinds() {
		o := r.Runs[kind].Runtime
		t.Rows = append(t.Rows, []string{
			kind.String(), ms(o.IO), ms(o.Tracking), ms(o.Sync), ms(o.Total()),
		})
	}
	return []Table{t}
}
