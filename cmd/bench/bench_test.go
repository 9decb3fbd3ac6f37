package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"morphstreamr/internal/bench"
	"morphstreamr/internal/obs"
)

// repoRoot holds the committed full-size BENCH_*.json reports.
const repoRoot = "../.."

// checkEnv is the -check path against the committed reports.
func checkEnv() *Env { return &Env{OutDir: repoRoot, Log: io.Discard} }

// TestCommittedReportsPassGates is gate equivalence on real data: every
// committed report decodes into its suite's type with unknown keys
// disallowed, and passes every one of that suite's gates at full size.
func TestCommittedReportsPassGates(t *testing.T) {
	for _, s := range suites {
		fails, err := s.exec(checkEnv(), true)
		if err != nil {
			t.Errorf("%s: %v", s.spec().Name, err)
		}
		for _, line := range fails {
			t.Error(line)
		}
	}
}

// TestTrendEquivalence folds the committed reports and requires the point's
// sources to equal, value for value, the last point of the committed
// BENCH_trend.json, which the previous summarizers wrote from the same
// reports.
func TestTrendEquivalence(t *testing.T) {
	pt, err := foldPoint(checkEnv(), repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(pt.Sources)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]map[string]any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	trend, err := load[Trend](filepath.Join(repoRoot, trendFile))
	if err != nil {
		t.Fatal(err)
	}
	want := trend.Points[len(trend.Points)-1].Sources
	for name := range want {
		if !reflect.DeepEqual(got[name], want[name]) {
			t.Errorf("source %q differs:\n got %v\nwant %v", name, got[name], want[name])
		}
	}
	if len(got) != len(want) {
		t.Errorf("folded %d sources, committed point has %d", len(got), len(want))
	}
	first, err := load[SchedReport](filepath.Join(repoRoot, schedSuite.File))
	if err != nil {
		t.Fatal(err)
	}
	if pt.Host != first.Host || pt.GoVersion == "" {
		t.Errorf("point header %+v does not carry the first report's host %+v", pt.Host, first.Host)
	}
}

// doctor loads a committed report, applies one edit, and returns the gate
// failures the suite then reports.
func doctor[R any](t *testing.T, s *Suite[R], edit func(*R)) []string {
	t.Helper()
	r, err := load[R](filepath.Join(repoRoot, s.File))
	if err != nil {
		t.Fatal(err)
	}
	edit(r)
	return s.evaluate(checkEnv(), r)
}

// TestGatesCanFail doctors one number or verdict in each of five
// committed reports and requires exactly the matching gate to fail, naming
// suite, gate and layer.
func TestGatesCanFail(t *testing.T) {
	cases := []struct {
		want  string
		fails []string
	}{
		{"FAIL chaos/offline_match [heal]:", doctor(t, &chaosSuite, func(r *ChaosReport) {
			r.Entries[1].OfflineMatch = false
		})},
		{"FAIL shard/recovery_speedup_4x [shard]:", doctor(t, &shardSuite, func(r *ShardReport) {
			for i := range r.Recovery {
				if r.Recovery[i].Shards == 4 {
					r.Recovery[i].SpeedupX = 2.0
				}
			}
		})},
		{"FAIL store/segments_bounded [storage]:", doctor(t, &storeSuite, func(r *StoreReport) {
			r.Checks.MaxLiveSegments = r.Checks.SegmentBudget + 1
		})},
		{"FAIL journey/decomposition_exact [journey]:", doctor(t, &journeySuite, func(r *JourneyReport) {
			r.Cells[0].MaxDecompErrMs = 0.1
		})},
		{"FAIL figures/scaling_shapes [ft/msr]:", doctor(t, &figuresSuite, func(r *FiguresReport) {
			r.Claims["scaling_shapes"] = bench.Verdict{Detail: "not MSR 1 >= 2 x 1 ev/s"}
		})},
	}
	for _, c := range cases {
		if len(c.fails) != 1 || !strings.HasPrefix(c.fails[0], c.want) {
			t.Errorf("want exactly one failure starting %q, got %q", c.want, c.fails)
		}
		if len(c.fails) == 1 && !(strings.Contains(c.fails[0], "got ") && strings.Contains(c.fails[0], " want ")) {
			t.Errorf("failure line lacks got/want: %q", c.fails[0])
		}
	}
}

// TestFullOnlyGatesSkipQuick pins the size rule: a timing verdict that
// fails a full-size report is not evaluated on a quick one.
func TestFullOnlyGatesSkipQuick(t *testing.T) {
	slow := func(size Size) []string {
		return doctor(t, &shardSuite, func(r *ShardReport) { r.Size, r.Checks.Scaling8x = size, 3.0 })
	}
	if fails := slow(Full); len(fails) != 1 || !strings.HasPrefix(fails[0], "FAIL shard/scaling_8x [shard]:") {
		t.Errorf("full size: got %q", fails)
	}
	// A quick report also plans the same 12 + 4 cells, so nothing else moves.
	if fails := slow(Quick); len(fails) != 0 {
		t.Errorf("quick size: got %q", fails)
	}
}

// TestLiveQuickSuites is the live wiring: the three cheap suites run at
// quick size in-process, write their reports, and pass their own gates —
// including, for chaos, the shard-kill cells' derived fault site and the
// gate that a group heal emits recovery-category spans.
func TestLiveQuickSuites(t *testing.T) {
	dir := t.TempDir()
	env := &Env{Host: thisHost("test", Quick), OutDir: dir, TraceDir: dir, Obs: obs.NewObserver(2, 1<<16), Log: io.Discard}
	for _, s := range []suite{&storeSuite, &shardSuite, &chaosSuite} {
		m := s.spec()
		fails, err := s.exec(env, false)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		for _, line := range fails {
			t.Error(line)
		}
		host, _, err := s.fold(dir)
		if err != nil {
			t.Fatalf("%s: written report does not load back: %v", m.Name, err)
		}
		if host.Size != Quick || host.SHA != "test" || host.GOMAXPROCS == 0 || host.NumCPU == 0 || host.GoVersion == "" {
			t.Errorf("%s: header not stamped: %+v", m.Name, host)
		}
	}
}

// TestTraceGate drives the trace gate's failure branches.
func TestTraceGate(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("epoch_only.json", `{"traceEvents":[{"cat":"epoch"}]}`)
	write("empty.json", `{"traceEvents":[]}`)
	write("torn.json", `{"traceEvents":[`)
	for _, c := range []struct {
		tr Trace
		ok bool
	}{
		{Trace{File: "epoch_only.json"}, true},
		{Trace{File: "epoch_only.json", Cat: obs.CatRecovery}, false},
		{Trace{File: "empty.json"}, false},
		{Trace{File: "torn.json"}, false},
		{Trace{File: "absent.json"}, false},
	} {
		if ok, got := c.tr.check(dir); ok != c.ok {
			t.Errorf("%+v: ok=%v (%s), want %v", c.tr, ok, got, c.ok)
		}
	}
}

// suiteTable renders the registry as the EXPERIMENTS.md gate table.
func suiteTable() string {
	var b strings.Builder
	b.WriteString("| Suite | Report | Gate | Layer | Passes when |\n|---|---|---|---|---|\n")
	for _, s := range suites {
		m := s.spec()
		fmt.Fprintf(&b, "| `%s` | `%s` | | | quick: %s. full: %s. |\n", m.Name, m.File, m.Quick, m.Full)
		for _, g := range s.docs() {
			want := g.Want
			if g.FullOnly {
				want += " (full size only)"
			}
			fmt.Fprintf(&b, "| | | `%s` | %s | %s |\n", g.Name, g.Layer, want)
		}
	}
	return b.String()
}

// TestExperimentsTableMatchesRegistry keeps the suite → report → gates →
// layer → sizes table in EXPERIMENTS.md generated from the registry: on a
// mismatch, paste the table this test prints between the markers.
func TestExperimentsTableMatchesRegistry(t *testing.T) {
	const begin, end = "<!-- bench-suites:begin -->\n", "<!-- bench-suites:end -->"
	raw, err := os.ReadFile(filepath.Join(repoRoot, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	i, j := strings.Index(doc, begin), strings.Index(doc, end)
	if i < 0 || j < i {
		t.Fatalf("EXPERIMENTS.md lacks the %q ... %q block", strings.TrimSpace(begin), end)
	}
	if got, want := doc[i+len(begin):j], suiteTable(); got != want {
		t.Errorf("EXPERIMENTS.md suite table is stale; replace the block with:\n%s", want)
	}
}
