package main

import (
	"fmt"
	"math"
	"os"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// runner starts its load generator.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-client" {
		if err := clientMain(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// smokeParams is the real run shrunk to a 1 s window and a 3-repeat fixture.
func smokeParams(t *testing.T) params {
	p := defaults()
	p.seconds, p.settle = 1, 200*time.Millisecond
	p.setups, p.fixtureRepeats = 2, 3
	p.outDir = t.TempDir()
	return p
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(file) != string(manifest()) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with `bash benchmark/run.sh -manifest > BENCHMARK.json`")
	}
}

// checkResult holds a result against the table that BENCHMARK.json is
// printed from: exactly those names and units, every value finite, and
// every end-to-end value positive.
func checkResult(t *testing.T, res *result, defs []def, positive bool) {
	t.Helper()
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d defined", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		got, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: not emitted", d.Name)
		case got.Unit != d.Unit:
			t.Errorf("%s: unit %q, want %q", d.Name, got.Unit, d.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || (positive && got.Value <= 0):
			t.Errorf("%s: value %v", d.Name, got.Value)
		}
	}
}

func TestWorkloads(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		t.Run(sp.name, func(t *testing.T) {
			res, err := run(sp, smokeParams(t))
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd, true)
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 7, 9, 11, 20, 30], n=4)
	q1, q2, q3 := quartiles([]float64{30, 1, 2, 3, 4, 5, 7, 9, 11, 20})
	if q1 != 2.75 || q2 != 6 || q3 != 13.25 {
		t.Errorf("got %v %v %v, want 2.75 6 13.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 9], n=4)
	if q1, q2, q3 = quartiles([]float64{1, 2, 3, 4, 9}); q1 != 1.5 || q2 != 3 || q3 != 6.5 {
		t.Errorf("got %v %v %v, want 1.5 3 6.5", q1, q2, q3)
	}
}
