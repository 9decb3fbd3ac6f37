package msr

import (
	"testing"

	"morphstreamr/internal/store"
	"morphstreamr/internal/tpg"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

func profileOf(t *testing.T, gen workload.Generator, n int) Profile {
	t.Helper()
	st := store.New(gen.App().Tables())
	ep := runEpoch(t, gen, st, 1, n, 4)
	return ProfileGraph(ep.Graph)
}

// TestProfileQuadrants: the four Figure 9 workload classes must land in
// their quadrants when profiled.
func TestProfileQuadrants(t *testing.T) {
	mk := func(theta, mp float64) workload.Generator {
		p := workload.DefaultGSParams()
		p.Rows, p.Theta, p.MultiPartitionRatio, p.Reads = 4096, theta, mp, 3
		if mp == 0 {
			p.Reads = 0
		}
		return workload.NewGS(p)
	}
	cases := []struct {
		name  string
		gen   workload.Generator
		class string
	}{
		{"LSFD", mk(0, 0), "LSFD"},
		{"LSMD", mk(0, 0.9), "LSMD"},
		{"HSFD", mk(1.2, 0), "HSFD"},
		{"HSMD", mk(1.2, 0.9), "HSMD"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := profileOf(t, tc.gen, 2000)
			if got := p.Class(); got != tc.class {
				t.Errorf("profile %+v classified %s, want %s", p, got, tc.class)
			}
		})
	}
}

// TestRecommendations: the advisor's commit-epoch choices must follow the
// paper's trade-off: long for LSFD, medium for LSMD, short for HS*.
func TestRecommendations(t *testing.T) {
	lsfd := Profile{HotChainShare: 0.05, DepsPerOp: 0.1}
	lsmd := Profile{HotChainShare: 0.05, DepsPerOp: 0.6}
	hsmd := Profile{HotChainShare: 0.5, DepsPerOp: 0.6}
	if got := RecommendCommitEvery(lsfd, 8); got != 8 {
		t.Errorf("LSFD -> %d, want 8", got)
	}
	if got := RecommendCommitEvery(lsmd, 8); got != 4 {
		t.Errorf("LSMD -> %d, want 4", got)
	}
	if got := RecommendCommitEvery(hsmd, 8); got != 2 {
		t.Errorf("HSMD -> %d, want 2", got)
	}
	// Alignment: the recommendation must divide the snapshot interval.
	if got := RecommendCommitEvery(lsfd, 6); got != 6 && 6%got != 0 {
		t.Errorf("LSFD with SnapshotEvery=6 -> %d, which does not divide 6", got)
	}
	if got := RecommendCommitEvery(hsmd, 3); 3%got != 0 {
		t.Errorf("HSMD with SnapshotEvery=3 -> %d, which does not divide 3", got)
	}
}

// TestAdviseFigure9Classes: Advise over the first batch of each of Figure
// 9's four Grep&Sum classes (its quick-size shape: 1024-event batches over
// four partitions, snapshots every 16 epochs) picks what the figure
// reports: a long commit epoch for LSFD, a medium one for LSMD and a short
// one for both high-skew classes.
func TestAdviseFigure9Classes(t *testing.T) {
	for class, want := range map[string]int{"LSFD": 8, "LSMD": 4, "HSFD": 2, "HSMD": 2} {
		p := workload.DefaultGSParams()
		p.AbortRatio, p.Partitions = 0, 4
		switch class {
		case "LSFD":
			p.Theta, p.Reads = 0, 0
		case "LSMD":
			p.Theta, p.Reads, p.MultiPartitionRatio = 0, 3, 0.8
		case "HSFD":
			p.Theta, p.Reads = 1.0, 0
		case "HSMD":
			p.Theta, p.Reads, p.MultiPartitionRatio = 1.0, 3, 0.8
		}
		gen := workload.NewGS(p)
		g := tpg.BuildEvents(gen.App(), workload.Batch(gen, 1024), store.New(gen.App().Tables()).Get)
		if got := Advise(g, 16); got != want {
			t.Errorf("%s: advised commit epoch %d, want %d", class, got, want)
		}
	}
}

func TestAdviseCommitEveryHook(t *testing.T) {
	gen := slGen(11)
	st := store.New(gen.App().Tables())
	ep := runEpoch(t, gen, st, 1, 500, 4)
	got := Advise(ep.Graph, 8)
	if got < 1 || 8%got != 0 {
		t.Errorf("advice %d must divide the snapshot interval 8", got)
	}
}

func TestProfileEmptyGraph(t *testing.T) {
	g := tpg.Build(nil, func(types.Key) types.Value { return 0 })
	if p := ProfileGraph(g); p.HotChainShare != 0 || p.DepsPerOp != 0 {
		t.Errorf("empty graph profile = %+v, want zeros", p)
	}
}

func TestSumTopK(t *testing.T) {
	vals := []int{5, 1, 9, 3, 7}
	if got := sumTopK(vals, 2); got != 16 {
		t.Errorf("sumTopK(2) = %d, want 16", got)
	}
	if got := sumTopK(vals, 10); got != 25 {
		t.Errorf("sumTopK(all) = %d, want 25", got)
	}
	if got := sumTopK(vals, 1); got != 9 {
		t.Errorf("sumTopK(1) = %d, want 9", got)
	}
}
