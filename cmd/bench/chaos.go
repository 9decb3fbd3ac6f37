package main

import (
	"fmt"

	"morphstreamr/internal/ft/crashtest"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/fttest"
	"morphstreamr/internal/obs"
	"morphstreamr/internal/workload"
)

// ChaosEntry is one measured (mechanism, scenario, victim) cell: the median
// sample by MTTR, with detection/MTTR extremes across samples.
type ChaosEntry struct {
	Kind     string `json:"kind"`
	Scenario string `json:"scenario"`
	// Shards is the group fan-out and KillShard the shard whose device (or,
	// for mid-epoch-panic, whose transaction) fails.
	Shards    int `json:"shards"`
	KillShard int `json:"kill_shard"`
	Samples   int `json:"samples"`

	// Recoveries counts the group's heals in the run.
	Recoveries int `json:"recoveries"`
	// DetectionUs is fault occurrence to the heal starting (zero when the
	// fault was absorbed below the group).
	DetectionUs    float64 `json:"detection_us"`
	MinDetectionUs float64 `json:"min_detection_us"`
	// MTTRUs is the heal: failure detected to the group live again.
	MTTRUs    float64 `json:"mttr_us"`
	MinMTTRUs float64 `json:"min_mttr_us"`
	MaxMTTRUs float64 `json:"max_mttr_us"`
	// Retries and Absorbed count transient-retry work across the run.
	Retries  int64 `json:"retries"`
	Absorbed int64 `json:"absorbed"`
	// EventsReplayed is the victim's recovery replay volume.
	EventsReplayed int `json:"events_replayed"`
	// OfflineMatch reports healed-vs-offline recovery agreement
	// (meaningful for fatal-heal and shard-kill; vacuously true otherwise).
	OfflineMatch bool `json:"offline_match"`
	// WallUs is the whole run's wall clock.
	WallUs float64 `json:"wall_us"`
}

// ChaosReport is the file layout of BENCH_chaos.json.
type ChaosReport struct {
	Host
	Epochs    int          `json:"epochs"`
	EpochSize int          `json:"epoch_size"`
	Note      string       `json:"note"`
	Entries   []ChaosEntry `json:"entries"`
}

// chaosCell is one point of the grid: a scenario on a group of shards,
// with the victim shard.
type chaosCell struct {
	sc           crashtest.Scenario
	shards, kill int
}

// Both sizes run the same 10 x 48 stream through every cell; quick takes
// fewer samples per cell. The one-shard scenarios run Streaming Ledger;
// shard-kill runs Grep&Sum, which is write-local at 4 shards, killing an
// edge shard and an interior one.
const (
	chaosEpochs    = 10
	chaosEpochSize = 48
)

var chaosCells = []chaosCell{
	{crashtest.TransientStorm, 1, 0}, {crashtest.FatalHeal, 1, 0}, {crashtest.MidEpochPanic, 1, 0},
	{crashtest.ShardKill, 4, 0}, {crashtest.ShardKill, 4, 2},
}

func chaosRepeat(quick bool) int {
	if quick {
		return 3
	}
	return 5
}

// measureChaos runs one chaos cell `repeat` times and keeps the median
// sample by MTTR (wall-clock healing time on a shared host is noisy; the
// median is the honest central estimate), plus min/max spread.
func measureChaos(kind ftapi.Kind, c chaosCell, repeat int, o *obs.Observer) (ChaosEntry, error) {
	gen := func() workload.Generator { return fttest.SLGen(79) }
	if c.sc == crashtest.ShardKill {
		gen = func() workload.Generator { return fttest.GSGen(43) }
	}
	outs := make([]*crashtest.ChaosOutcome, 0, repeat)
	for i := 0; i < repeat; i++ {
		out, err := crashtest.Chaos(crashtest.ChaosConfig{
			Config: crashtest.Config{
				Kind: kind, NewGen: gen, Epochs: chaosEpochs, EpochSize: chaosEpochSize, Shards: c.shards,
			},
			Scenario:  c.sc,
			KillShard: c.kill,
			Obs:       o,
		})
		if err != nil {
			return ChaosEntry{}, err
		}
		// Mid-run, so the heal has committed epochs to replay and the group
		// has epochs left to prove it is live again.
		if out.Heals > 0 && (out.FailedEpoch < 2 || out.FailedEpoch > chaosEpochs-1) {
			return ChaosEntry{}, fmt.Errorf("%v %v kill=%d: died in epoch %d, want one of 2..%d",
				kind, c.sc, c.kill, out.FailedEpoch, chaosEpochs-1)
		}
		outs = append(outs, out)
	}
	// Insertion-sort by MTTR; repeat is tiny.
	for i := 1; i < len(outs); i++ {
		for j := i; j > 0 && outs[j].MTTR < outs[j-1].MTTR; j-- {
			outs[j], outs[j-1] = outs[j-1], outs[j]
		}
	}
	med := outs[len(outs)/2]
	e := ChaosEntry{
		Kind:           kind.String(),
		Scenario:       c.sc.String(),
		Shards:         c.shards,
		KillShard:      c.kill,
		Samples:        len(outs),
		Recoveries:     med.Heals,
		DetectionUs:    us(med.Detection),
		MinDetectionUs: us(med.Detection),
		MTTRUs:         us(med.MTTR),
		MinMTTRUs:      us(outs[0].MTTR),
		MaxMTTRUs:      us(outs[len(outs)-1].MTTR),
		Retries:        med.RetryStats.Retries,
		Absorbed:       med.RetryStats.Absorbed,
		OfflineMatch:   med.OfflineMatch,
		WallUs:         us(med.Wall),
	}
	for _, o := range outs {
		if o.Detection > 0 && us(o.Detection) < e.MinDetectionUs {
			e.MinDetectionUs = us(o.Detection)
		}
	}
	if med.Report != nil {
		e.EventsReplayed = med.Report.EventsReplayed
	}
	return e, nil
}

var chaosSuite = Suite[ChaosReport]{
	Spec: Spec{
		Name:   "chaos",
		File:   "BENCH_chaos.json",
		Quick:  "5 mechanisms x (3 one-shard scenarios + 2 shard-kill cells on 4 shards), 10 epochs x 48 events, median of 3",
		Full:   "same grid, median of 5",
		Traces: []Trace{{File: "chaos_trace.json", Cat: obs.CatRecovery}},
	},
	Run: runChaos,
	Gates: []Gate[ChaosReport]{
		countGate("cells", "heal", "mechanisms x (one-shard scenarios + shard-kill cells)",
			func(r *ChaosReport) int { return len(r.Entries) },
			func(bool) int { return len(mechanisms) * len(chaosCells) }),
		cellsGate("offline_match", "heal", "every healed recovery report-equal to the offline crash-point recovery",
			chaosEntries, chaosLabel, func(e ChaosEntry) bool { return e.OfflineMatch }),
		cellsGate("healed", "heal", "0 heals in transient-storm cells, exactly 1 with mttr_us > 0 in every other cell",
			chaosEntries, chaosLabel, func(e ChaosEntry) bool {
				if e.Scenario == crashtest.TransientStorm.String() {
					return e.Recoveries == 0
				}
				return e.Recoveries == 1 && e.MTTRUs > 0
			}),
	},
	Summary: summarizeChaos,
}

func chaosEntries(r *ChaosReport) []ChaosEntry { return r.Entries }
func chaosLabel(e ChaosEntry) string {
	return fmt.Sprintf("%s/%s/shards=%d/kill=%d", e.Kind, e.Scenario, e.Shards, e.KillShard)
}

func runChaos(env *Env, rep *ChaosReport) error {
	repeat := chaosRepeat(env.quick())
	rep.Epochs, rep.EpochSize = chaosEpochs, chaosEpochSize
	rep.Note = "Each cell is one chaos run (internal/ft/crashtest.Chaos): a scripted " +
		"fault against a live shard group (internal/shard), healed in place by " +
		"shard.Group.Heal. detection_us is fault injection to the heal starting; " +
		"mttr_us is the heal, failure detected to the group live again. " +
		"transient-storm cells heal at the retry layer (0 heals, mttr 0); " +
		"fatal-heal, mid-epoch-panic and shard-kill cells heal exactly once, " +
		"and fatal-heal and shard-kill are additionally verified report-equal to " +
		"the offline crash of the same group at the same write. The one-shard " +
		"scenarios run Streaming Ledger; shard-kill cells run Grep&Sum on 4 " +
		"shards, where the survivors keep committing while the dead shard heals " +
		"and the interrupted barrier completes. Every run is verified per shard " +
		"and globally against the sharded oracle."

	for _, kind := range mechanisms {
		for _, c := range chaosCells {
			e, err := measureChaos(kind, c, repeat, env.Obs)
			if err != nil {
				return err
			}
			rep.Entries = append(rep.Entries, e)
			env.logf("%-5s %-16s shards=%d kill=%d: detect %7.0f µs, mttr %7.0f µs, %d heals, %d retries, %d replayed\n",
				e.Kind, e.Scenario, e.Shards, e.KillShard, e.DetectionUs, e.MTTRUs, e.Recoveries, e.Retries, e.EventsReplayed)
		}
	}
	return env.writeSpans("chaos_trace.json")
}

// summarizeChaos keeps the healing headline: heal counts, the mean MTTR
// over cells that actually healed, and whether every healed report matched
// its offline twin.
func summarizeChaos(r *ChaosReport) map[string]any {
	var recoveries, mttrCells int
	var mttrSum float64
	allMatch := true
	for _, e := range r.Entries {
		recoveries += e.Recoveries
		if e.MTTRUs > 0 {
			mttrSum += e.MTTRUs
			mttrCells++
		}
		allMatch = allMatch && e.OfflineMatch
	}
	out := map[string]any{
		"entries":       len(r.Entries),
		"recoveries":    recoveries,
		"offline_match": allMatch,
	}
	if mttrCells > 0 {
		out["mean_mttr_us"] = mttrSum / float64(mttrCells)
	}
	return out
}
