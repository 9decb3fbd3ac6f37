// Command bench is the repo's one benchmark harness. Each suite measures
// one layer, writes its typed report (BENCH_<name>.json), and evaluates
// its acceptance gates in the same process; a failed gate prints which
// suite, gate and layer moved and the command exits non-zero.
//
//	go run ./cmd/bench sched                 # one suite at full size → ./BENCH_scheduler.json
//	go run ./cmd/bench -quick -o out all     # every suite at CI size
//	go run ./cmd/bench -check all            # gate the reports already on disk, run nothing
//	go run ./cmd/bench -o out trend          # fold the reports in out/ into BENCH_trend.json
//
// Suites: sched chaos shard store journey recovery figures; "all" runs
// them in that order. figures is the paper's evaluation (Section VIII) and
// gates its claims. Full size is what produced the committed reports; -quick
// is what CI runs. Grid sizes and seeds are constants in each suite.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strings"

	"morphstreamr/internal/obs"
)

// suites is the registry, in "all" order.
var suites = []suite{
	&schedSuite, &chaosSuite, &shardSuite, &storeSuite, &journeySuite, &recoverySuite, &figuresSuite,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		quick    = fs.Bool("quick", false, "run the CI-sized grid instead of the full one")
		check    = fs.Bool("check", false, "evaluate gates against the reports already in -o, running nothing")
		outDir   = fs.String("o", ".", "directory the BENCH_*.json reports are written to (or read from)")
		obsAddr  = fs.String("obs", "", "serve live telemetry (/metrics, /trace, /slo, /incidents, pprof) on this address")
		linger   = fs.Bool("linger", false, "keep serving -obs after the suites complete (Ctrl-C to exit)")
		traceDir = fs.String("trace", "", "directory for the sched, chaos and per-mechanism recovery Chrome traces")
		sha      = fs.String("sha", "", "commit id stamped on reports and trend points (default: GITHUB_SHA, then git rev-parse)")
		baseline = fs.String("baseline", "", "prior scheduler report to ratio steal cells against (tracing-off overhead)")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: bench [flags] <suite>...")
		fmt.Fprintln(stderr, "suites: "+strings.Join(suiteNames(), " ")+" | all | trend")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names, err := expand(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		fs.Usage()
		return 2
	}
	if *check && slices.Contains(names, "trend") {
		fmt.Fprintln(stderr, "bench: -check applies to suites; trend has no gates")
		return 2
	}

	fatal := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	env := &Env{OutDir: *outDir, TraceDir: *traceDir, Baseline: *baseline, Log: stderr}
	var srv *obs.Server
	if !*check {
		id, err := commitID(*sha)
		if err != nil {
			return fatal(err)
		}
		env.Host = thisHost(id, Full)
		if *quick {
			env.Size = Quick
		}
		for _, dir := range []string{*outDir, *traceDir} {
			if dir == "" {
				continue
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return fatal(err)
			}
		}
		if *obsAddr != "" || *traceDir != "" {
			env.Obs = obs.NewObserver(2, 1<<16)
		}
		if *obsAddr != "" {
			if srv, err = obs.Serve(*obsAddr, env.Obs); err != nil {
				return fatal(err)
			}
			defer srv.Close()
			fmt.Fprintf(stderr, "telemetry at %s (/metrics /trace /slo /incidents)\n", srv.URL())
		}
	}

	failed := false
	for _, name := range names {
		var fails []string
		var err error
		if name == "trend" {
			err = foldTrend(env)
		} else {
			fails, err = byName(name).exec(env, *check)
		}
		if err != nil {
			fails = append(fails, fmt.Sprintf("FAIL %s: %v", name, err))
		}
		for _, line := range fails {
			fmt.Fprintln(stderr, line)
		}
		if len(fails) == 0 {
			fmt.Fprintf(stderr, "ok   %s\n", name)
		}
		failed = failed || len(fails) > 0
	}

	if *linger && srv != nil {
		fmt.Fprintf(stderr, "lingering on %s (Ctrl-C to exit)\n", srv.URL())
		select {}
	}
	if failed {
		return 1
	}
	return 0
}

func suiteNames() []string {
	names := make([]string, len(suites))
	for i, s := range suites {
		names[i] = s.spec().Name
	}
	return names
}

func byName(name string) suite {
	for _, s := range suites {
		if s.spec().Name == name {
			return s
		}
	}
	return nil
}

// expand resolves the positional arguments to suite names, "all" to every
// suite, and rejects anything else.
func expand(args []string) ([]string, error) {
	if len(args) == 0 {
		return nil, errors.New("no suite named")
	}
	var names []string
	for _, a := range args {
		switch {
		case a == "all":
			names = append(names, suiteNames()...)
		case a == "trend" || byName(a) != nil:
			names = append(names, a)
		default:
			return nil, fmt.Errorf("unknown suite %q", a)
		}
	}
	return names, nil
}

// commitID resolves the id reports and trend points are keyed by: the
// explicit flag, then the CI-provided GITHUB_SHA, then the working tree's
// HEAD.
func commitID(flagSHA string) (string, error) {
	if flagSHA != "" {
		return flagSHA, nil
	}
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		return sha, nil
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err == nil {
		if sha := strings.TrimSpace(string(out)); sha != "" {
			return sha, nil
		}
	}
	return "", errors.New("cannot determine commit: pass -sha, set GITHUB_SHA, or run inside a git checkout")
}
