package main

import (
	"cmp"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"morphstreamr/internal/bench"
)

// FigureCell is one figure of the paper's evaluation as the report keeps
// it: the tables it rendered and the wall seconds it took to run.
type FigureCell struct {
	Name   string        `json:"name"`
	WallS  float64       `json:"wall_s"`
	Tables []bench.Table `json:"tables"`
}

// FiguresReport is the file layout of BENCH_figures.json.
type FiguresReport struct {
	Host
	Figures []FigureCell `json:"figures"`
	// Claims is the verdict of each of the paper's claims, by claim name,
	// on the figure it reads.
	Claims map[string]bench.Verdict `json:"claims"`
}

// figure is one entry of the evaluation: run renders it at a scale and
// records the verdicts of the claims its result carries, one gate each.
type figure struct {
	name  string
	gates []Gate[FiguresReport]
	run   func(sc bench.Scale, verdicts map[string]bench.Verdict) ([]bench.Table, error)
}

func fig[R interface{ Tables() []bench.Table }](name string, run func(bench.Scale) (R, error), claims ...bench.Claim[R]) figure {
	f := figure{name: name}
	for _, c := range claims {
		f.gates = append(f.gates, gate(c.Name, c.Layer, c.Want, func(r *FiguresReport) (bool, string) {
			v := r.Claims[c.Name]
			return v.OK, cmp.Or(v.Detail, "no verdict recorded")
		}))
	}
	f.run = func(sc bench.Scale, verdicts map[string]bench.Verdict) ([]bench.Table, error) {
		r, err := run(sc)
		if err != nil {
			return nil, err
		}
		for _, c := range claims {
			verdicts[c.Name] = c.Check(r)
		}
		return r.Tables(), nil
	}
	return f
}

// evaluation is the paper's Section VIII in figure order, each sweep at
// its default points, plus the Section VII extension.
var evaluation = []figure{
	fig("fig2", bench.Fig2),
	fig("fig9", func(sc bench.Scale) (*bench.Fig9Result, error) { return bench.Fig9(sc, nil) }, bench.AdvisorQuadrants),
	fig("fig11", bench.Fig11, bench.WALRecoverySlowest, bench.DLConstructDominant),
	fig("fig11d", bench.Fig11d),
	fig("fig12a", bench.Fig12a),
	fig("fig12b", func(sc bench.Scale) (*bench.Fig12bResult, error) { return bench.Fig12b(sc, nil) }, bench.SelectiveLoggingWritesLess),
	fig("fig12c", bench.Fig12c, bench.MSRArtifactsSmaller),
	fig("fig12d", bench.Fig12d),
	fig("fig13", func(sc bench.Scale) (*bench.Fig13Result, error) { return bench.Fig13(sc, nil) }, bench.ScalingShapes),
	fig("fig14a", func(sc bench.Scale) (*bench.Fig14Result, error) { return bench.Fig14a(sc, nil) }),
	fig("fig14b", func(sc bench.Scale) (*bench.Fig14Result, error) { return bench.Fig14b(sc, nil) }),
	fig("fig14c", func(sc bench.Scale) (*bench.Fig14Result, error) { return bench.Fig14c(sc, nil) }, bench.AbortAxisShapes),
	fig("ext", bench.Ext),
}

var figuresSuite = Suite[FiguresReport]{
	Spec: Spec{
		Name:  "figures",
		File:  "BENCH_figures.json",
		Quick: "Figures 2, 9, 11, 11d, 12a-d, 13, 14a-c and the extensions at default sweeps, bench.QuickScale (1024-event batches, W=4, no SSD model)",
		Full:  "the same at bench.DefaultScale (4096-event batches, W=8, SSD model)",
	},
	Run:     runFigures,
	Gates:   claimGates(),
	Summary: summarizeFigures,
}

// claimGates is one gate per paper claim, reading the verdict the run
// recorded.
func claimGates() (gates []Gate[FiguresReport]) {
	for _, f := range evaluation {
		gates = append(gates, f.gates...)
	}
	return gates
}

func runFigures(env *Env, rep *FiguresReport) error {
	sc := benchScale(env.quick())
	sc.Obs = env.Obs
	rep.Claims = map[string]bench.Verdict{}
	for _, f := range evaluation {
		start := time.Now()
		tables, err := f.run(sc, rep.Claims)
		if err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		wall := time.Since(start)
		for _, t := range tables {
			printTable(env.Log, t)
		}
		env.logf("[%s completed in %v]\n\n", f.name, wall.Round(time.Millisecond))
		rep.Figures = append(rep.Figures, FigureCell{Name: f.name, WallS: wall.Seconds(), Tables: tables})
	}
	return nil
}

func printTable(w io.Writer, t bench.Table) {
	fmt.Fprintln(w, "== "+t.Title)
	if t.Note != "" {
		fmt.Fprintln(w, "   "+t.Note)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// summarizeFigures keeps each claim's verdict and the evaluation's total
// wall seconds.
func summarizeFigures(r *FiguresReport) map[string]any {
	wall := 0.0
	for _, f := range r.Figures {
		wall += f.WallS
	}
	out := map[string]any{"figures": len(r.Figures), "wall_s": wall}
	for name, v := range r.Claims {
		out[name] = v.OK
	}
	return out
}
