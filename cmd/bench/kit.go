package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/obs"
)

// Size selects one of a suite's two grids. Both are constants in the
// suite: full is what produced the committed reports, quick is what CI
// runs. A report without a size (every report written before the harness
// stamped one) is full.
type Size string

const (
	Full  Size = "full"
	Quick Size = "quick"
)

// Host is the header the kit stamps on every report and every trend point,
// so a number never travels without the host and grid that produced it.
type Host struct {
	GoVersion  string `json:"go_version,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	NumCPU     int    `json:"num_cpu,omitempty"`
	SHA        string `json:"sha,omitempty"`
	Size       Size   `json:"size,omitempty"`
}

func thisHost(sha string, size Size) Host {
	return Host{runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), sha, size}
}

func (h *Host) header() *Host { return h }
func (h *Host) quick() bool   { return h.Size == Quick }

// header reaches the Host every report embeds.
func header[R any](r *R) *Host { return any(r).(interface{ header() *Host }).header() }

// Env is what one invocation hands every suite: the header to stamp
// (whose Size picks the grid), where reports and traces go, and the shared
// observer.
type Env struct {
	Host
	// OutDir receives (or, under -check, holds) the BENCH_*.json reports.
	OutDir string
	// TraceDir, when set, receives the suites' Chrome traces and turns on
	// their trace gates.
	TraceDir string
	// Baseline is a prior scheduler report to ratio steal cells against.
	Baseline string
	// Obs is non-nil when -obs or -trace is given. Lane 0 carries engine
	// drivers and the group heals; the rings are sized for a full multi-cell
	// chaos run.
	Obs *obs.Observer
	// Log receives per-cell progress lines.
	Log io.Writer
}

func (e *Env) logf(format string, args ...any) { fmt.Fprintf(e.Log, format, args...) }

// writeTrace writes one Chrome trace file under TraceDir; a no-op without
// -trace.
func (e *Env) writeTrace(file string, export func(io.Writer) error) error {
	if e.TraceDir == "" {
		return nil
	}
	path := filepath.Join(e.TraceDir, file)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = export(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace %s: %w", path, err)
	}
	e.logf("wrote %s\n", path)
	return nil
}

// writeSpans drains the observer's span rings into one Chrome trace file,
// so each suite's file holds the spans emitted since the previous drain.
func (e *Env) writeSpans(file string) error {
	return e.writeTrace(file, func(w io.Writer) error {
		events, dropped := e.Obs.T().Drain()
		return obs.ExportChrome(w, events, dropped)
	})
}

// GateDoc is a gate's identity: its name, the layer whose regression it
// catches, and the condition in words. FullOnly marks a timing verdict
// that only means something at full size on a quiet host.
type GateDoc struct {
	Name, Layer, Want string
	FullOnly          bool
}

// Gate is one acceptance check over a suite's typed report; Check returns
// what it found instead when the condition does not hold.
type Gate[R any] struct {
	GateDoc
	Check func(r *R) (ok bool, got string)
}

func gate[R any](name, layer, want string, check func(*R) (bool, string)) Gate[R] {
	return Gate[R]{GateDoc{Name: name, Layer: layer, Want: want}, check}
}

// cellsGate is the common gate: ok must hold for every cell of one report
// section; a failure names the cells it does not hold for.
func cellsGate[R, T any](name, layer, want string, cells func(*R) []T, label func(T) string, ok func(T) bool) Gate[R] {
	return gate(name, layer, want, func(r *R) (bool, string) {
		all := cells(r)
		var bad []string
		for _, c := range all {
			if !ok(c) {
				bad = append(bad, label(c))
			}
		}
		return len(bad) == 0, fmt.Sprintf("%d of %d cells failing (%s)", len(bad), len(all), strings.Join(bad, ", "))
	})
}

// countGate holds a report section to exactly the cells the suite's own
// grid plans at the report's size, so quick and full share one gate.
func countGate[R any](name, layer, want string, got func(*R) int, plan func(quick bool) int) Gate[R] {
	return gate(name, layer, want, func(r *R) (bool, string) {
		n, p := got(r), plan(header(r).quick())
		return n == p, fmt.Sprintf("%d cells, grid plans %d", n, p)
	})
}

func fullOnly[R any](g Gate[R]) Gate[R] {
	g.FullOnly = true
	return g
}

// Trace is one Chrome trace file a suite writes under -trace. The kit
// gates that it re-parses with at least one event and, when Cat is set,
// that some event carries that category.
type Trace struct {
	File, Cat string
}

func (t Trace) doc() GateDoc {
	want := "a Chrome trace with >= 1 event"
	if t.Cat != "" {
		want += fmt.Sprintf(" and a %q-category span", t.Cat)
	}
	return GateDoc{Name: "trace:" + t.File, Layer: "obs", Want: want}
}

func (t Trace) check(dir string) (bool, string) {
	raw, err := os.ReadFile(filepath.Join(dir, t.File))
	if err != nil {
		return false, err.Error()
	}
	var doc struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return false, "unparseable JSON: " + err.Error()
	}
	for _, ev := range doc.TraceEvents {
		if t.Cat == "" || ev.Cat == t.Cat {
			return true, ""
		}
	}
	return false, fmt.Sprintf("%d events, none in category %q", len(doc.TraceEvents), t.Cat)
}

// Spec is the part of a suite that does not depend on its report type: the
// report file it owns, its two sizes in words, and the traces it writes.
type Spec struct {
	Name, File  string
	Quick, Full string
	Traces      []Trace
}

// Suite is one benchmark as a value: a Run that fills the typed report at
// env.Size, the gates over that report, and the trend-point summary.
type Suite[R any] struct {
	Spec
	Run     func(env *Env, r *R) error
	Gates   []Gate[R]
	Summary func(r *R) map[string]any
}

// suite is what the kit needs of a Suite[R] once R is out of the way.
type suite interface {
	spec() Spec
	// docs lists every gate, trace gates included.
	docs() []GateDoc
	// exec produces the report — measured at env.Size and written, or under
	// check loaded from env.OutDir — and returns one line per failed gate.
	exec(env *Env, check bool) ([]string, error)
	// fold loads the report from dir and returns its header and summary.
	fold(dir string) (Host, map[string]any, error)
}

func (s *Suite[R]) spec() Spec { return s.Spec }

func (s *Suite[R]) docs() []GateDoc {
	var docs []GateDoc
	for _, g := range s.Gates {
		docs = append(docs, g.GateDoc)
	}
	for _, t := range s.Traces {
		docs = append(docs, t.doc())
	}
	return docs
}

func (s *Suite[R]) exec(env *Env, check bool) ([]string, error) {
	path := filepath.Join(env.OutDir, s.File)
	r, err := new(R), error(nil)
	if check {
		r, err = load[R](path)
	} else {
		*header(r) = env.Host
		if err = s.Run(env, r); err == nil {
			err = writeJSON(path, r)
			env.logf("wrote %s\n", path)
		}
	}
	if err != nil {
		return nil, err
	}
	return s.evaluate(env, r), nil
}

func (s *Suite[R]) fold(dir string) (Host, map[string]any, error) {
	r, err := load[R](filepath.Join(dir, s.File))
	if err != nil {
		return Host{}, nil, err
	}
	return *header(r), s.Summary(r), nil
}

// evaluate runs every applicable gate and returns one line per failure:
// which suite, which gate, which layer moved, what was found, what was
// wanted.
func (s *Suite[R]) evaluate(env *Env, r *R) []string {
	var fails []string
	fail := func(d GateDoc, got string) {
		fails = append(fails, fmt.Sprintf("FAIL %s/%s [%s]: got %s want %s", s.Name, d.Name, d.Layer, got, d.Want))
	}
	for _, g := range s.Gates {
		if g.FullOnly && header(r).quick() {
			continue
		}
		if ok, got := g.Check(r); !ok {
			fail(g.GateDoc, got)
		}
	}
	if env.TraceDir != "" {
		for _, t := range s.Traces {
			if ok, got := t.check(env.TraceDir); !ok {
				fail(t.doc(), got)
			}
		}
	}
	return fails
}

// mechanisms are the five recoverable fault-tolerance mechanisms, in the
// order every suite that sweeps them reports.
var mechanisms = []ftapi.Kind{ftapi.CKPT, ftapi.WAL, ftapi.DL, ftapi.LV, ftapi.MSR}

// allMechanisms is the gate body for "every mechanism has a cell".
func allMechanisms[T any](cells []T, kind func(T) string) (bool, string) {
	seen := map[string]bool{}
	for _, c := range cells {
		seen[kind(c)] = true
	}
	for _, k := range mechanisms {
		if !seen[k.String()] {
			return false, "no " + k.String() + " cell"
		}
	}
	return true, ""
}

// us renders a duration in the reports' microsecond fields.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// load decodes a report strictly: a key the report type does not declare
// is a schema change and fails the load.
func load[R any](path string) (*R, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := new(R)
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
