package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/journey"
	"morphstreamr/internal/obs"
	"morphstreamr/internal/serve"
)

// JourneyCell is one measured (mechanism, shards) kill-and-heal run with tracing.
type JourneyCell struct {
	Kind    string `json:"kind"`
	Shards  int    `json:"shards"`
	Cell    string `json:"cell"`
	Tenants int    `json:"tenants"`
	Batches int    `json:"batches_per_tenant"`

	Journeys  int `json:"journeys"`
	Shed      int `json:"shed"`
	Recovered int `json:"recovered"`
	Kills     int `json:"kills"`
	Heals     int `json:"heals"`
	// The harness's audits, broken out: DupAcks and OrderViol check the
	// server's ack stream (must be 0 for every mechanism); ExactlyOnce
	// checks the raw output-union and is nonzero for CKPT by design —
	// checkpoint-only recovery replays every epoch since the last snapshot
	// and re-delivers their outputs (no per-epoch delivery watermark).
	DupAcks     int `json:"dup_acks"`
	OrderViol   int `json:"ack_order_violations"`
	ExactlyOnce int `json:"exactly_once_violations"`

	// Stages is the per-stage decomposition across sampled journeys;
	// DecompositionOK says every pipeline stage was observed and
	// MaxDecompErrMs (|sum(stages) − total|, must be 0) held.
	Stages           map[journey.Stage]journey.StageStats `json:"stages"`
	Total            journey.StageStats                   `json:"total"`
	MaxDecompErrMs   float64                              `json:"max_decomp_err_ms"`
	DecompositionOK  bool                                 `json:"decomposition_ok"`
	RecoveryObserved bool                                 `json:"recovery_observed"`

	// Server-side journey totals vs the clients' own submit→ack stopwatch:
	// the cross-check that the decomposition measures the latency the
	// client actually saw, not some internal proxy.
	ServerP50Ms  float64 `json:"server_p50_ms"`
	ServerP99Ms  float64 `json:"server_p99_ms"`
	ClientP50Ms  float64 `json:"client_p50_ms"`
	ClientP99Ms  float64 `json:"client_p99_ms"`
	CrosscheckOK bool    `json:"crosscheck_ok"`

	// SLO engine readings over the run's acked population.
	SLOCompliance float64 `json:"slo_compliance"`
	SLOPeakBurn   float64 `json:"slo_peak_burn"`
	SLOBreaches   int64   `json:"slo_breaches"`

	WallMs float64 `json:"wall_ms"`
}

// OverheadRow is one A/B wall-clock comparison over interleaved steady-cell
// pairs: the serve pump is ticker-paced, so alternating run order inside
// each pair and taking the median of per-pair ratios keeps scheduler noise
// and warmup drift out of the estimate.
type OverheadRow struct {
	Pairs       int     `json:"pairs"`
	MedianRatio float64 `json:"median_ratio"`
	OverheadPct float64 `json:"overhead_pct"`
	BaseWallMs  float64 `json:"base_wall_ms"`
	WithWallMs  float64 `json:"with_wall_ms"`
}

// Overhead is the tracing cost measurement. SamplingOff is the gated
// number — the observability layer attached (recorder + SLO) but no batch
// sampled, i.e. what every deployment pays whether or not it traces; it
// must stay within 2% of a server with no recorder at all. FullTracing
// (every batch traced) is informational.
type Overhead struct {
	SamplingOff OverheadRow `json:"sampling_off"`
	// OK gates SamplingOff.OverheadPct at 2%.
	OK          bool        `json:"ok"`
	FullTracing OverheadRow `json:"full_tracing"`
}

// JourneyReport is the file layout of BENCH_journey.json.
type JourneyReport struct {
	Host
	Note     string        `json:"note"`
	Cells    []JourneyCell `json:"cells"`
	Overhead Overhead      `json:"overhead"`
}

// measureCell runs one traced kill-and-heal cell. observer may be nil; when
// set, the run's heals and SLO breaches land on its incident timeline and
// the cell's /slo and /incidents views stay live on the telemetry endpoint.
func measureCell(kind ftapi.Kind, shards, tenants, batches int, seed int64, observer *obs.Observer) (JourneyCell, error) {
	rec := journey.NewRecorder(journey.Config{SampleEvery: 3})
	slo := obs.NewSLOMonitor(obs.SLOConfig{
		Name: "ack", Objective: 100 * time.Millisecond, Timeline: observer.Timeline(),
	})
	rep, err := serve.Chaos(serve.ChaosConfig{
		Cell:            serve.CellKillHeal,
		Kind:            kind,
		Seed:            seed,
		Shards:          shards,
		Tenants:         tenants,
		Batches:         batches,
		BatchEvents:     6,
		Obs:             observer,
		Journeys:        rec,
		SLO:             slo,
		SampleFlagEvery: 2, // client-side flag path, interleaved with the server modulus
	})
	c := JourneyCell{
		Kind: kind.String(), Shards: shards, Cell: serve.CellKillHeal,
		Tenants: tenants, Batches: batches,
	}
	if err != nil {
		return c, err
	}
	recs, _ := rec.Drain()
	sum := journey.Summarize(recs)
	c.Journeys = sum.Journeys
	c.Shed = sum.Shed
	c.Recovered = sum.Recovered
	c.Kills = rep.Kills
	c.Heals = rep.Heals
	c.DupAcks = rep.DupAcks
	c.OrderViol = rep.OrderViol
	c.ExactlyOnce = rep.ExactlyOnce
	c.Stages = sum.Stages
	c.Total = sum.Total
	c.MaxDecompErrMs = sum.MaxDecompErrMs
	c.RecoveryObserved = sum.Stages[journey.StageRecovery].Count > 0

	c.DecompositionOK = sum.MaxDecompErrMs < 0.001
	for _, st := range []journey.Stage{
		journey.StageAdmission, journey.StageQueue, journey.StageRoute,
		journey.StageExecute, journey.StageCommit, journey.StageAck,
	} {
		if sum.Stages[st].Count == 0 {
			c.DecompositionOK = false
		}
	}

	c.ServerP50Ms = sum.Total.P50Ms
	c.ServerP99Ms = sum.Total.P99Ms
	c.ClientP50Ms = rep.P50AckLagMs
	c.ClientP99Ms = rep.P99AckLagMs
	// The journeys are a deterministic sample of the acked population and
	// the clients time from first submit, so the medians must agree up to
	// sampling alignment; the heal's bimodal tail makes p99 too noisy to
	// gate, so the cross-check is on the median with a generous epsilon.
	eps := 50.0
	if half := 0.5 * c.ClientP50Ms; half > eps {
		eps = half
	}
	diff := c.ServerP50Ms - c.ClientP50Ms
	if diff < 0 {
		diff = -diff
	}
	c.CrosscheckOK = diff <= eps

	snap := slo.Snapshot()
	c.SLOCompliance = snap.Compliance
	c.SLOBreaches = snap.Breaches
	c.SLOPeakBurn = slo.PeakBurn()
	c.WallMs = rep.WallMs
	return c, nil
}

// steadyCell runs one untraced-vs-instrumented steady pair and returns the
// two wall clocks. sampleEvery/flagEvery shape the instrumented side:
// (0, 0) is sampling-off — recorder and SLO attached, nothing traced.
func steadyCell(seed int64, tenants, batches int, sampleEvery, flagEvery uint64, instrumentedFirst bool) (base, with float64, err error) {
	baseCfg := serve.ChaosConfig{
		Cell: serve.CellSteady, Kind: ftapi.WAL, Seed: seed,
		Tenants: tenants, Batches: batches, BatchEvents: 6,
	}
	run := func(instrumented bool) (float64, error) {
		cfg := baseCfg
		if instrumented {
			cfg.Journeys = journey.NewRecorder(journey.Config{SampleEvery: sampleEvery})
			cfg.SLO = obs.NewSLOMonitor(obs.SLOConfig{Name: "ack"})
			cfg.SampleFlagEvery = flagEvery
		}
		rep, err := serve.Chaos(cfg)
		if err != nil {
			return 0, err
		}
		return rep.WallMs, nil
	}
	first, second := false, true
	if instrumentedFirst {
		first, second = true, false
	}
	w1, err := run(first)
	if err != nil {
		return 0, 0, err
	}
	w2, err := run(second)
	if err != nil {
		return 0, 0, err
	}
	if instrumentedFirst {
		return w2, w1, nil
	}
	return w1, w2, nil
}

// measureOverheadRow runs `pairs` interleaved steady pairs (order alternating
// inside each pair) and reduces to the median per-pair wall ratio.
func measureOverheadRow(pairs, tenants, batches int, sampleEvery, flagEvery uint64) (OverheadRow, error) {
	row := OverheadRow{Pairs: pairs}
	ratios := make([]float64, 0, pairs)
	var baseWall, withWall []float64
	for i := 0; i < pairs; i++ {
		base, with, err := steadyCell(int64(1000+i*37), tenants, batches, sampleEvery, flagEvery, i%2 == 1)
		if err != nil {
			return row, err
		}
		ratios = append(ratios, with/base)
		baseWall = append(baseWall, base)
		withWall = append(withWall, with)
	}
	row.MedianRatio = median(ratios)
	row.OverheadPct = (row.MedianRatio - 1) * 100
	row.BaseWallMs = median(baseWall)
	row.WithWallMs = median(withWall)
	return row, nil
}

// measureOverhead measures the gated sampling-off overhead and the
// informational full-tracing overhead.
func measureOverhead(pairs, tenants, batches int) (Overhead, error) {
	var o Overhead
	off, err := measureOverheadRow(pairs, tenants, batches, 0, 0)
	if err != nil {
		return o, err
	}
	full, err := measureOverheadRow(pairs, tenants, batches, 1, 1)
	if err != nil {
		return o, err
	}
	o.SamplingOff = off
	o.FullTracing = full
	o.OK = off.OverheadPct <= 2.0
	return o, nil
}

func median(s []float64) float64 {
	sort.Float64s(s)
	return obs.Percentile(s, 0.50)
}

// The journey suite's fixed shape: 3 tenants per cell at shard counts 1
// and 2, and the overhead measurement — 7 order-alternating steady pairs of
// 250 batches per tenant (long runs amortize scheduler noise) — at both
// sizes. Only the mechanisms and the cells' stream length differ.
const (
	journeyTenants         = 3
	journeyOverheadPairs   = 7
	journeyOverheadBatches = 250
)

var journeyShards = []int{1, 2}

// journeyGrid is the journey suite's grid at one size.
type journeyGrid struct {
	kinds   []ftapi.Kind
	batches int
}

func journeyPlan(quick bool) journeyGrid {
	if quick {
		return journeyGrid{kinds: []ftapi.Kind{ftapi.WAL, ftapi.MSR}, batches: 30}
	}
	return journeyGrid{kinds: mechanisms, batches: 40}
}

var journeySuite = Suite[JourneyReport]{
	Spec: Spec{
		Name:  "journey",
		File:  "BENCH_journey.json",
		Quick: "{WAL,MSR} x shards {1,2} kill-heal cells, 3 tenants x 30 batches; overhead 7 pairs x 250 batches",
		Full:  "5 mechanisms x shards {1,2} kill-heal cells, 3 tenants x 40 batches; overhead 7 pairs x 250 batches",
	},
	Run: runJourney,
	Gates: []Gate[JourneyReport]{
		countGate("cells", "journey", "mechanisms x shard counts",
			func(r *JourneyReport) int { return len(r.Cells) },
			func(quick bool) int { return len(journeyPlan(quick).kinds) * len(journeyShards) }),
		journeyGate("decomposition_ok", "journey", "every pipeline stage observed and stage sums exact, in every cell",
			func(c JourneyCell) bool { return c.DecompositionOK }),
		journeyGate("crosscheck_ok", "journey", "server-side total median within epsilon of the clients' own stopwatch, in every cell",
			func(c JourneyCell) bool { return c.CrosscheckOK }),
		journeyGate("recovery_observed", "journey", "a RECOVERY stage sample in every kill-heal cell",
			func(c JourneyCell) bool { return c.RecoveryObserved }),
		journeyGate("decomposition_exact", "journey", "max_decomp_err_ms == 0 in every cell",
			func(c JourneyCell) bool { return c.MaxDecompErrMs == 0 }),
		journeyGate("ack_stream", "serve", "dup_acks == 0 and ack_order_violations == 0 in every cell",
			func(c JourneyCell) bool { return c.DupAcks == 0 && c.OrderViol == 0 }),
		journeyGate("exactly_once_non_ckpt", "serve", "exactly_once_violations == 0 in every non-CKPT cell (CKPT re-delivers by design)",
			func(c JourneyCell) bool { return c.Kind == ftapi.CKPT.String() || c.ExactlyOnce == 0 }),
		journeyGate("journeys_healed", "journey", "journeys > 0, heals >= 1 and shed == 0 in every cell",
			func(c JourneyCell) bool { return c.Journeys > 0 && c.Heals >= 1 && c.Shed == 0 }),
		journeyGate("recovery_stage", "journey", "stages.RECOVERY.count >= 1 in every cell",
			func(c JourneyCell) bool { return c.Stages[journey.StageRecovery].Count >= 1 }),
		gate("sampling_off_overhead", "journey", "sampling-off overhead <= 2%", func(r *JourneyReport) (bool, string) {
			return r.Overhead.OK, fmt.Sprintf("%+.2f%%", r.Overhead.SamplingOff.OverheadPct)
		}),
	},
	Summary: summarizeJourney,
}

func journeyGate(name, layer, want string, ok func(JourneyCell) bool) Gate[JourneyReport] {
	return cellsGate(name, layer, want, func(r *JourneyReport) []JourneyCell { return r.Cells },
		func(c JourneyCell) string { return fmt.Sprintf("%s/%d", c.Kind, c.Shards) }, ok)
}

func runJourney(env *Env, rep *JourneyReport) error {
	grid := journeyPlan(env.quick())
	rep.Note = "Each cell is one kill-and-heal chaos run (internal/serve.Chaos) with " +
		"journey tracing sampled both client-side (Submit flag, every 2nd batch) " +
		"and server-side (modulus 3): per-stage stats decompose the sampled " +
		"batches' server-observed submit→ack latency into admission/queue/route/" +
		"execute/commit/ack, with time inside heals attributed to the explicit " +
		"RECOVERY stage. dup_acks and ack_order_violations gate the server's " +
		"exactly-once ack stream (0 for every mechanism); exactly_once_violations " +
		"audits the raw output union and is nonzero for CKPT by design, since " +
		"checkpoint-only recovery re-executes — and re-delivers — every epoch " +
		"since the last snapshot. decomposition_ok requires every stage observed and the " +
		"stage sums exactly equal to each journey's total; crosscheck_ok requires " +
		"the server-side total median to match the clients' own stopwatch. The " +
		"overhead section interleaves order-alternating steady-cell pairs: " +
		"sampling_off compares no recorder vs recorder+SLO attached with nothing " +
		"sampled (the always-on cost every deployment pays, gated at 2%); " +
		"full_tracing compares against every batch traced (informational)."

	for _, kind := range grid.kinds {
		for _, shards := range journeyShards {
			c, err := measureCell(kind, shards, journeyTenants, grid.batches, int64(11+shards), env.Obs)
			if err != nil {
				return err
			}
			rep.Cells = append(rep.Cells, c)
			env.logf("%-5s shards=%d: %3d journeys (%d recovered), total p50 %6.1f ms / client %6.1f ms, recovery p99 %6.1f ms, decomp=%v xcheck=%v\n",
				c.Kind, c.Shards, c.Journeys, c.Recovered, c.ServerP50Ms, c.ClientP50Ms,
				c.Stages[journey.StageRecovery].P99Ms, c.DecompositionOK, c.CrosscheckOK)
		}
	}

	oh, err := measureOverhead(journeyOverheadPairs, journeyTenants, journeyOverheadBatches)
	if err != nil {
		return err
	}
	rep.Overhead = oh
	env.logf("overhead: sampling-off %.2f%% (ok=%v), full tracing %.2f%%\n",
		oh.SamplingOff.OverheadPct, oh.OK, oh.FullTracing.OverheadPct)
	return nil
}

// summarizeJourney keeps the tracing headlines: the invariant verdicts
// (decomposition exact and complete, server/client cross-check, sampling-off
// overhead ≤2%) aggregated across every cell, the worst per-stage p99 over
// all cells (the stage-decomposition curve a trend chart plots), the worst
// SLO burn-rate peak, and the overhead percentages.
func summarizeJourney(r *JourneyReport) map[string]any {
	decompOK, xcheckOK, recoveryAll := true, true, true
	var journeys, recovered, ackViolations, exOnceNonCKPT int
	maxDecompErr, peakBurn := 0.0, 0.0
	stageP99 := map[journey.Stage]float64{}
	for _, c := range r.Cells {
		decompOK = decompOK && c.DecompositionOK
		xcheckOK = xcheckOK && c.CrosscheckOK
		recoveryAll = recoveryAll && c.RecoveryObserved
		journeys += c.Journeys
		recovered += c.Recovered
		ackViolations += c.DupAcks + c.OrderViol
		// CKPT's output-union duplicates are by design (checkpoint replay
		// re-delivers); only the other mechanisms gate on them.
		if c.Kind != ftapi.CKPT.String() {
			exOnceNonCKPT += c.ExactlyOnce
		}
		maxDecompErr = max(maxDecompErr, c.MaxDecompErrMs)
		peakBurn = max(peakBurn, c.SLOPeakBurn)
		for st, s := range c.Stages {
			if s.P99Ms > stageP99[st] {
				stageP99[st] = s.P99Ms
			}
		}
	}
	out := map[string]any{
		"cells":                            len(r.Cells),
		"decomposition_ok":                 decompOK,
		"crosscheck_ok":                    xcheckOK,
		"recovery_observed":                recoveryAll,
		"journeys":                         journeys,
		"recovered":                        recovered,
		"ack_violations":                   ackViolations,
		"exactly_once_violations_non_ckpt": exOnceNonCKPT,
		"max_decomp_err_ms":                maxDecompErr,
		"slo_peak_burn":                    peakBurn,
		"overhead_ok":                      r.Overhead.OK,
		"sampling_off_overhead_pct":        r.Overhead.SamplingOff.OverheadPct,
		"full_tracing_overhead_pct":        r.Overhead.FullTracing.OverheadPct,
	}
	for st, p99 := range stageP99 {
		out["p99_ms_"+strings.ToLower(string(st))] = p99
	}
	return out
}
