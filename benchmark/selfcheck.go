package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
)

// quartiles returns Q1, the median and Q3 as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method: the
// k-th quartile sits at position k(n+1)/4 of the sorted sample).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(k int) float64 {
		pos := float64(k*(len(s)+1))/4 - 1
		i := min(max(int(pos), 0), len(s)-2)
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(1), at(2), at(3)
}

// worse is how much worse b is than a, as a share of a, in the metric's
// direction; negative when b is better.
func worse(d def, a, b float64) float64 {
	if d.Better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// runSelfcheck runs every workload ten times, each with another seed, as
// two interleaved sets of five, and holds the sets against each other the way
// the driver holds two commits: for every end-to-end metric the second set's
// median may not be worse than the first's by more than the bound, and the
// spread of all ten runs (Q3−Q1 over the median) must stay inside it. It
// prints NOISE.md on standard output.
func runSelfcheck(p params) error {
	fmt.Printf("# Run-to-run noise of the benchmark\n\n")
	fmt.Printf("Output of `bash benchmark/run.sh -selfcheck`: every workload run ten times, seeds %d to %d, %g s windows,\n", p.seed, p.seed+9, p.seconds)
	fmt.Printf("each run in its own process; odd runs are set A, even runs set B. `gap` is how much worse B's median is than A's,\n")
	fmt.Printf("`spread` is (Q3−Q1)/median over all ten, both as a share and against the metric's bound.\n\n")
	fmt.Printf("Host: nproc %d, GOMAXPROCS %d, %s, %s/%s, kernel %s.\n\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, kernel())
	breaches := 0
	for _, sp := range specs {
		var runs []*result
		for i := 0; i < 10; i++ {
			q := p
			q.seed = p.seed + int64(i)
			res, err := child(sp.name, q)
			if err != nil {
				return err
			}
			runs = append(runs, res)
		}
		fmt.Printf("## %s\n\n", sp.name)
		fmt.Printf("| metric | unit | A Q1 | A median | A Q3 | B Q1 | B median | B Q3 | gap | spread | bound | |\n")
		fmt.Printf("|---|---|---|---|---|---|---|---|---|---|---|---|\n")
		for _, d := range endToEnd {
			var a, b, all []float64
			for i, r := range runs {
				v := r.Metrics[d.Name].Value
				all = append(all, v)
				if i%2 == 0 {
					a = append(a, v)
				} else {
					b = append(b, v)
				}
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			q1, q2, q3 := quartiles(all)
			gap, spread := worse(d, a2, b2), (q3-q1)/q2
			verdict := "ok"
			switch {
			case gap > d.Bound, spread > d.Bound && d.Name != "setup_s":
				verdict = "BREACH"
				breaches++
			case gap > d.Bound/2, spread > d.Bound/3 && d.Name != "setup_s":
				verdict = "close"
			}
			fmt.Printf("| %s | %s | %.5g | %.5g | %.5g | %.5g | %.5g | %.5g | %+.2f%% | %.2f%% | %.0f%% | %s |\n",
				d.Name, d.Unit, a1, a2, a3, b1, b2, b3, 100*gap, 100*spread, 100*d.Bound, verdict)
		}
		fmt.Println()
	}
	if breaches > 0 {
		return fmt.Errorf("selfcheck: %d metric × workload pairs outside their bound", breaches)
	}
	return nil
}

func kernel() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
