package obs

import (
	"sort"
	"time"
)

// Percentile reads the q-quantile (0 ≤ q ≤ 1) from an ascending sample
// slice using linear interpolation between closest ranks (the R-7 /
// "numpy default" estimator): position (n-1)·q, fractional positions
// interpolated between the surrounding samples. Unlike the naive
// index-truncation formulas it replaces (`s[int(q*n)]`, `s[n*99/100]`),
// it is unbiased at small n — the p99 of 100 samples is no longer simply
// the maximum — and every caller in the repo (obs histograms, the serve
// chaos harness, `cmd/bench journey`) shares this one definition.
//
// An empty slice reads as 0.
func Percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// DurPercentile sorts a copy of durs and returns the interpolated
// q-quantile as a duration. It is the duration-typed convenience wrapper
// the serve chaos harness and `cmd/bench journey` use on ack-lag samples.
func DurPercentile(durs []time.Duration, q float64) time.Duration {
	if len(durs) == 0 {
		return 0
	}
	fs := make([]float64, len(durs))
	for i, d := range durs {
		fs[i] = float64(d)
	}
	sort.Float64s(fs)
	return time.Duration(Percentile(fs, q))
}
