package journey

import (
	"sort"
	"time"

	"morphstreamr/internal/obs"
)

// StageStats are the latency percentiles for one stage across a set of
// completed journeys, in milliseconds (the shared obs.Percentile
// estimator, interpolated).
type StageStats struct {
	Count int     `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
	// MeanMs is the arithmetic mean; SumMs the grand total across
	// journeys (for share-of-total views).
	MeanMs float64 `json:"mean_ms"`
	SumMs  float64 `json:"sum_ms"`
}

// Summary aggregates a drained record set for reports and /journeys-style
// views.
type Summary struct {
	Journeys  int                  `json:"journeys"`
	Shed      int                  `json:"shed"`
	Recovered int                  `json:"recovered"`
	Stages    map[Stage]StageStats `json:"stages"`
	Total     StageStats           `json:"total"`
	// MaxDecompErrMs is the largest |sum(stages) − total| across the set:
	// the decomposition-consistency invariant says it is 0 up to float
	// rounding.
	MaxDecompErrMs float64 `json:"max_decomp_err_ms"`
}

// Summarize reduces completed journeys to per-stage percentile stats.
// Every stage that appears in any record appears in the output; shed
// journeys are included (their partial decompositions are real time the
// client waited).
func Summarize(recs []Record) Summary {
	sum := Summary{Stages: map[Stage]StageStats{}}
	if len(recs) == 0 {
		return sum
	}
	samples := map[Stage][]float64{}
	var totals []float64
	for _, rec := range recs {
		sum.Journeys++
		if rec.Shed {
			sum.Shed++
		}
		if rec.Recovered {
			sum.Recovered++
		}
		var stageSum time.Duration
		for st, d := range rec.StageDurs {
			samples[st] = append(samples[st], float64(d)/float64(time.Millisecond))
			stageSum += d
		}
		totalMs := float64(rec.Total) / float64(time.Millisecond)
		totals = append(totals, totalMs)
		if err := absMs(stageSum - rec.Total); err > sum.MaxDecompErrMs {
			sum.MaxDecompErrMs = err
		}
	}
	for st, s := range samples {
		sum.Stages[st] = stageStats(s)
	}
	sum.Total = stageStats(totals)
	return sum
}

func absMs(d time.Duration) float64 {
	if d < 0 {
		d = -d
	}
	return float64(d) / float64(time.Millisecond)
}

func stageStats(s []float64) StageStats {
	if len(s) == 0 {
		return StageStats{}
	}
	sort.Float64s(s)
	var total float64
	for _, v := range s {
		total += v
	}
	return StageStats{
		Count:  len(s),
		P50Ms:  obs.Percentile(s, 0.50),
		P90Ms:  obs.Percentile(s, 0.90),
		P99Ms:  obs.Percentile(s, 0.99),
		MaxMs:  s[len(s)-1],
		MeanMs: total / float64(len(s)),
		SumMs:  total,
	}
}
