package msr

import "morphstreamr/internal/tpg"

// This file implements workload-aware log commitment (Section VI-B): the
// commit-epoch length is chosen from two profiled workload characteristics,
// the skewness of state accesses and the density of cross-chain
// dependencies. The paper's Figure 9 quadrants map onto the profile as:
//
//	LSFD (low skew, few deps)   -> long epochs: batching wins everywhere.
//	LSMD (low skew, more deps)  -> medium epochs: view indexing offsets
//	                               part of the batching benefit.
//	HSFD/HSMD (high skew)       -> short epochs: skewed chains make large
//	                               commit batches load-imbalanced at
//	                               runtime, while recovery still prefers
//	                               batching — the compromise is short.

// Profile summarises one epoch's workload characteristics.
type Profile struct {
	// HotChainShare is the fraction of all operations that land on the
	// hottest 1% of chains (minimum one chain) — the skewness signal.
	HotChainShare float64
	// DepsPerOp is the number of logical plus parametric dependencies per
	// operation — the dependency-density signal.
	DepsPerOp float64
}

// Thresholds separating the Figure 9 quadrants.
const (
	highSkewThreshold = 0.20
	manyDepsThreshold = 0.25
)

// HighSkew reports whether the profile falls in the HS quadrants.
func (p Profile) HighSkew() bool { return p.HotChainShare > highSkewThreshold }

// ManyDeps reports whether the profile falls in the MD quadrants.
func (p Profile) ManyDeps() bool { return p.DepsPerOp > manyDepsThreshold }

// Class returns the paper's quadrant label (LSFD, LSMD, HSFD, HSMD).
func (p Profile) Class() string {
	switch {
	case !p.HighSkew() && !p.ManyDeps():
		return "LSFD"
	case !p.HighSkew():
		return "LSMD"
	case !p.ManyDeps():
		return "HSFD"
	default:
		return "HSMD"
	}
}

// ProfileGraph measures one epoch's graph.
func ProfileGraph(g *tpg.Graph) Profile {
	if g.NumOps == 0 {
		return Profile{}
	}
	// Skew: operations on the hottest 1% of chains.
	hot := len(g.ChainList) / 100
	if hot < 1 {
		hot = 1
	}
	// Selection without a full sort: find the hot chains by weight.
	weights := make([]int, len(g.ChainList))
	for i, ch := range g.ChainList {
		weights[i] = len(ch.Ops)
	}
	hotOps := sumTopK(weights, hot)

	// Dependency density is a property of the transaction shapes — how
	// many parameter reads and logical couplings each operation declares —
	// not of which producers happened to land in this epoch, so count the
	// declared dependencies rather than the resolved edges.
	deps := 0
	for _, tn := range g.Txns {
		for _, opn := range tn.Ops {
			if opn.CondSrc != nil {
				deps++
			}
			deps += len(opn.Op.Deps)
		}
	}
	return Profile{
		HotChainShare: float64(hotOps) / float64(g.NumOps),
		DepsPerOp:     float64(deps) / float64(g.NumOps),
	}
}

// sumTopK returns the sum of the k largest values.
func sumTopK(vals []int, k int) int {
	if k >= len(vals) {
		total := 0
		for _, v := range vals {
			total += v
		}
		return total
	}
	// Small k in practice (1% of chains): simple selection with a bounded
	// min-tracking slice.
	top := make([]int, 0, k)
	minIdx := 0
	for _, v := range vals {
		if len(top) < k {
			top = append(top, v)
			if top[minIdx] > v {
				minIdx = len(top) - 1
			}
			continue
		}
		if v > top[minIdx] {
			top[minIdx] = v
			for i, t := range top {
				if t < top[minIdx] {
					minIdx = i
				}
			}
		}
	}
	sum := 0
	for _, v := range top {
		sum += v
	}
	return sum
}

// Advise is the workload-aware advisor: it profiles one epoch's graph
// (a host passes its first batch's) and recommends a log commitment
// interval that divides snapshotEvery. The host configures CommitEvery
// with it before the first epoch, so every incarnation, a recovered one
// included, commits at the advised interval.
func Advise(g *tpg.Graph, snapshotEvery int) int {
	return RecommendCommitEvery(ProfileGraph(g), snapshotEvery)
}

// RecommendCommitEvery maps a profile to a commit-epoch length in epochs,
// constrained to divide snapshotEvery so commit and snapshot markers stay
// aligned.
func RecommendCommitEvery(p Profile, snapshotEvery int) int {
	var want int
	switch {
	case !p.HighSkew() && !p.ManyDeps():
		want = 8
	case !p.HighSkew():
		want = 4
	default:
		want = 2
	}
	for want > 1 {
		if snapshotEvery%want == 0 {
			return want
		}
		want--
	}
	return 1
}
