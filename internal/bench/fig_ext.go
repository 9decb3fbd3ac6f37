package bench

import (
	"fmt"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/workload"
)

// Ext benchmarks the two Section VII extensions this repository
// implements beyond the paper's evaluation: asynchronous log commitment
// (off the critical path) and durable-log compression. For each logging
// scheme it reports runtime throughput and durable bytes for the baseline,
// the async-commit variant, and the compressed variant.
type ExtResult struct {
	Kinds []ftapi.Kind
	// Runs[kind][variant]: their runtime throughput and durable bytes.
	Runs map[ftapi.Kind]map[string]Run
}

// ExtVariants lists the measured configurations.
func ExtVariants() []string { return []string{"baseline", "async", "compressed"} }

// Ext runs the extension ablation on Streaming Ledger.
func Ext(scale Scale) (*ExtResult, error) {
	res := &ExtResult{Kinds: []ftapi.Kind{ftapi.WAL, ftapi.LV, ftapi.MSR}, Runs: make(map[ftapi.Kind]map[string]Run)}
	for _, kind := range res.Kinds {
		res.Runs[kind] = make(map[string]Run)
		for _, variant := range ExtVariants() {
			run, err := Execute(Scenario{
				Gen:  func() workload.Generator { return SLFor(scale, 1) },
				Kind: kind, Scale: scale, Repeat: 3,
				AsyncCommit: variant == "async", Compression: variant == "compressed",
			})
			if err != nil {
				return nil, fmt.Errorf("ext %v/%s: %w", kind, variant, err)
			}
			res.Runs[kind][variant] = run
		}
	}
	return res, nil
}

// Tables renders the ablation.
func (r *ExtResult) Tables() []Table {
	t := Table{
		Title: "Extensions (Section VII): async commit and log compression (SL)",
		Note:  "runtime events/s and durable KiB per scheme and variant",
		Header: []string{"scheme",
			"base(ev/s)", "async(ev/s)", "compressed(ev/s)",
			"base(KiB)", "async(KiB)", "compressed(KiB)"},
	}
	for _, kind := range r.Kinds {
		row := []string{kind.String()}
		for _, v := range ExtVariants() {
			row = append(row, fnum(r.Runs[kind][v].RuntimeThroughput))
		}
		for _, v := range ExtVariants() {
			row = append(row, fmt.Sprintf("%d", r.Runs[kind][v].LogBytes/1024))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}
}
