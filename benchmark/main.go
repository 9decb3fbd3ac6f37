// Command benchmark is the repository's benchmark: four workloads driven
// from this process over loopback TCP into an in-process serve.Server →
// serve.GroupBackend → shard.Group → engines → storage.SegStore, nine
// end-to-end metrics per workload, an in-run correctness audit, and a
// separate traced run that reports per-layer metrics. See README.md.
//
//	bash benchmark/run.sh --workload idle --seed 1 --seconds 15 --trace 0
//
// The runner itself imports only serve, shard, storage, workload, types,
// ft/ftapi and vtime. Everything that reaches into the inner layers lives in
// benchmark/layers and is compiled out with -tags notrace.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"morphstreamr/internal/storage"
	"morphstreamr/internal/vtime"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// params are the knobs of one run; only the smoke test moves the last four.
type params struct {
	seed           int64
	seconds        float64
	traced         bool
	setups         int // set-up repeats; the median is setup_s
	fixtureRepeats int
	settle         time.Duration // traffic before the window opens
	outDir         string        // where the traced run writes its span file
}

func defaults() params {
	p := params{seed: 1, seconds: runSeconds, setups: 5, fixtureRepeats: 15, settle: time.Second, outDir: os.Getenv("BENCH_OUT")}
	if p.outDir == "" {
		p.outDir = filepath.Join("benchmark", "out")
	}
	return p
}

func main() {
	p := defaults()
	name := flag.String("workload", "", "workload to run: idle, saturate, contended or failover; empty runs all four, each in its own process")
	flag.Int64Var(&p.seed, "seed", p.seed, "seed of the generators and of the Poisson schedule")
	flag.Float64Var(&p.seconds, "seconds", p.seconds, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics instead of the end-to-end ones")
	client := flag.Bool("client", false, "run as the load generator: job on standard input (the runner starts this itself)")
	selfcheck := flag.Bool("selfcheck", false, "run the suite as two sets of five runs and compare the sets against the bounds")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	p.traced = *trace != 0

	var err error
	switch {
	case *client:
		err = clientMain()
	case *printManifest:
		_, err = os.Stdout.Write(manifest())
	case *selfcheck:
		err = runSelfcheck(p)
	case *name == "":
		err = runSuite(p)
	default:
		sp := findSpec(*name)
		if sp == nil {
			err = fmt.Errorf("unknown workload %q", *name)
			break
		}
		var res *result
		if res, err = run(sp, p); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// Latency counts from the time a batch was due, so a generator that runs
// late inflates it. The generator shares the host's cores with the server,
// and the host stalls: single sends leave 20 to 40 ms late in most windows,
// which puts the p99 of lateness anywhere between 0.2 and 50 ms while its
// p95 stays at 0.1 to 0.7 ms. The gated latencies are p50 and p90, which one
// stall does not reach, so lateness is judged at its p95: a window above
// cleanLagMs (the issue's 1 ms) is measured once more and the window with
// the lower lateness kept; above lagLimitMs it is no data point at all.
const (
	cleanLagMs = 1
	lagLimitMs = 10
)

// errInvalid marks a run that must not become a data point: the generator
// could not hold its schedule, or a closed-loop batch was refused.
var errInvalid = errors.New("invalid run")

// measured is one set-up and window of a workload.
type measured struct {
	tr     tracer // nil outside the traced run
	r      *rig   // closed
	setupS float64
	w      *window
	ref    *window // untraced reference window (traced run only)
	lagP95 float64 // ms the open-loop sends left late
}

// measure sets the workload up p.setups times, keeps the last rig and runs
// the window on it.
func measure(sp *spec, p params) (*measured, error) {
	m := &measured{}
	if p.traced {
		if newTracer == nil {
			return nil, errors.New("built with -tags notrace: the traced run is not available")
		}
		m.tr = newTracer()
	}
	// One set-up is a few tens of milliseconds, and a single reading of it
	// is noise: set up several times and report the median.
	var setupS []float64
	for i := 0; i < p.setups; i++ {
		last := i == p.setups-1
		var tr tracer
		if last {
			tr = m.tr
		}
		t0 := time.Now()
		r, err := setUp(sp, p.seed, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		m.r = r
		if last {
			break
		}
		if p.traced && i == p.setups-2 {
			// The untraced reference the tracing overhead is a ratio to.
			if m.ref, err = r.measure(p, p.seconds/3, false); err != nil {
				r.srv.Close()
				return nil, fmt.Errorf("untraced reference: %w", err)
			}
		}
		r.srv.Close()
	}
	m.setupS = median(setupS)

	var err error
	m.w, err = m.r.measure(p, p.seconds, p.traced)
	m.r.srv.Close()
	if err != nil {
		return nil, err
	}
	if m.lagP95 = quantile(m.w.lagMs, 0.95); m.lagP95 > lagLimitMs {
		return nil, fmt.Errorf("%w: the generator ran late (p95 %.3f ms past due, limit %d ms)", errInvalid, m.lagP95, lagLimitMs)
	}
	return m, nil
}

// measureClean measures, and measures once more when the first window is
// invalid or its generator ran late; it returns the better of the two.
func measureClean(sp *spec, p params) (*measured, error) {
	first, err := measure(sp, p)
	switch {
	case err == nil && first.lagP95 <= cleanLagMs:
		return first, nil
	case err == nil:
		fmt.Fprintf(os.Stderr, "benchmark: the generator ran late (p95 %.3f ms past due); measuring once more\n", first.lagP95)
	case errors.Is(err, errInvalid):
		fmt.Fprintf(os.Stderr, "benchmark: %v; measuring once more\n", err)
	default:
		return nil, err
	}
	second, err2 := measure(sp, p)
	switch {
	case err2 == nil && (err != nil || second.lagP95 < first.lagP95):
		return second, nil
	case err == nil && (err2 == nil || errors.Is(err2, errInvalid)):
		return first, nil
	default:
		return nil, err2
	}
}

// run measures one workload in this process. An audit violation is an
// error: no result is printed for it.
func run(sp *spec, p params) (*result, error) {
	// Calibrate() measures op costs once per process, which moved simulated
	// recovery time by 40% between processes on identical input.
	vtime.SetCalibration(vtime.FixedCosts())

	m, err := measureClean(sp, p)
	if err != nil {
		return nil, err
	}
	w := m.w
	if err := m.r.audit(w.lanes); err != nil {
		return nil, err
	}
	var vals map[string]float64
	if p.traced {
		if vals, err = windowValues(sp, p, m); err != nil {
			return nil, err
		}
		// The traced run reports the shape of a recovery, not its time.
		p.fixtureRepeats = min(p.fixtureRepeats, 5)
	}
	// The fixture must not inherit the window's heap: with saturate's
	// delivered ledger still alive the collector ran so rarely that the
	// same recovery took 34 ms after saturate and 45 ms after idle.
	tr := m.tr
	m.r = nil

	fx, err := newFixture(sp, p.seed, tr)
	if err != nil {
		return nil, err
	}
	rec, err := fx.repeat(p.fixtureRepeats)
	if err != nil {
		return nil, err
	}

	res := &result{Correct: true, Attempted: w.attempted, Failed: w.failed, Metrics: map[string]metric{}}
	defs := endToEnd
	if p.traced {
		defs = perLayer
		if err := recoveryValues(vals, tr, fx, rec); err != nil {
			return nil, err
		}
		path := filepath.Join(p.outDir, sp.name+".trace.json")
		if err := tr.WriteTrace(path); err != nil {
			return nil, fmt.Errorf("span file: %w", err)
		}
		fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
	} else {
		vals = endToEndValues(m.setupS, w, rec)
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no finite value", d.Name)
		}
		res.Metrics[d.Name] = metric{v, d.Unit}
	}
	report(os.Stderr, sp, p, w, defs, res)
	return res, nil
}

func endToEndValues(setupS float64, w *window, rec *recoveryStats) map[string]float64 {
	ev := float64(w.events)
	span := w.e1.at.Sub(w.e0.at).Seconds()
	return map[string]float64{
		"setup_s":             setupS,
		"events_per_s":        ev / span,
		"ack_p50_ms":          quantile(w.latMs, 0.50),
		"ack_p90_ms":          quantile(w.latMs, 0.90),
		"cpu_us_per_event":    float64((w.e1.cpu - w.e0.cpu).Microseconds()) / ev,
		"alloc_b_per_event":   float64(w.e1.mem.TotalAlloc-w.e0.mem.TotalAlloc) / ev,
		"log_bytes_per_event": float64(storage.SumBytes(w.e1.bytes)-storage.SumBytes(w.e0.bytes)) / ev,
		"recovery_sim_ms":     rec.simMs,
	}
}

func report(out *os.File, sp *spec, p params, w *window, defs []def, res *result) {
	loop := fmt.Sprintf("closed loop, %d in flight", sp.inflight)
	if sp.rate > 0 {
		loop = fmt.Sprintf("open loop, Poisson %g batches/s", sp.rate)
	}
	fmt.Fprintf(out, "%s: %s × %d connections, %d events/batch, seed %d, %.0f s window\n",
		sp.name, loop, lanes(), sp.batch, p.seed, p.seconds)
	fmt.Fprintf(out, "  audit passed; %d batches attempted, %d failed, %d latency samples, %d kills\n",
		res.Attempted, res.Failed, len(w.latMs), len(w.kills))
	if sp.rate > 0 {
		fmt.Fprintf(out, "  sends ms late: p50 %.3f, p95 %.3f, p99 %.3f, max %.3f\n", quantile(w.lagMs, 0.5),
			quantile(w.lagMs, 0.95), quantile(w.lagMs, 0.99), quantile(w.lagMs, 1))
	}
	fmt.Fprintf(out, "  ack ms: p50 %.3f, p90 %.3f, p95 %.3f, p97 %.3f, p99 %.3f, max %.3f\n", quantile(w.latMs, 0.5),
		quantile(w.latMs, 0.9), quantile(w.latMs, 0.95), quantile(w.latMs, 0.97), quantile(w.latMs, 0.99), quantile(w.latMs, 1))
	for _, d := range defs {
		fmt.Fprintf(out, "  %-34s %16.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
}

// child runs one workload in a fresh process, so that no run inherits
// another's heap, and returns its result line.
func child(name string, p params) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if p.traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(p.seed),
		"--seconds", fmt.Sprint(p.seconds), "--trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	res := &result{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", name, err)
	}
	return res, nil
}

func runSuite(p params) error {
	for _, sp := range specs {
		res, err := child(sp.name, p)
		if err != nil {
			return err
		}
		line, _ := json.Marshal(res) // a result is strings and numbers
		fmt.Printf("%s %s\n", sp.name, line)
	}
	return nil
}
