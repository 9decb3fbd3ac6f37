//go:build !notrace

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"morphstreamr/benchmark/layers"
)

// TestTracedRun runs the workload that uses the most of the path, kills
// and heals included, with tracing on.
func TestTracedRun(t *testing.T) {
	p := smokeParams(t)
	p.traced = true
	sp := findSpec("failover")
	res, err := run(sp, p)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, perLayer, false)
	if res.Metrics["serve.heals"].Value == 0 || res.Metrics["client.mttr_p50_ms"].Value == 0 {
		t.Errorf("no heal seen: %v heals, mttr %v ms", res.Metrics["serve.heals"].Value, res.Metrics["client.mttr_p50_ms"].Value)
	}

	raw, err := os.ReadFile(filepath.Join(p.outDir, sp.name+".trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name, Cat, Ph string
			Ts, Dur       float64
		}
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("span file does not load: %v", err)
	}
	seen := map[string]int{}
	for _, e := range trace.TraceEvents {
		if e.Ph != "X" || e.Name == "" || e.Dur < 0 {
			t.Fatalf("malformed event %+v", e)
		}
		seen[e.Cat]++
	}
	for _, l := range layers.Layers() {
		if seen[l] == 0 {
			t.Errorf("no span of layer %s in the trace", l)
		}
	}
}
