package main

import (
	"fmt"

	"morphstreamr/internal/ft/crashtest"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/fttest"
	"morphstreamr/internal/obs"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// ChaosEntry is one measured (mechanism, scenario, pipelined) cell: the median
// sample by MTTR, with detection/MTTR extremes across samples.
type ChaosEntry struct {
	Kind      string `json:"kind"`
	Scenario  string `json:"scenario"`
	Pipelined bool   `json:"pipelined"`
	// Shards is the group fan-out of shard-kill cells (0 for single-engine
	// scenarios).
	Shards  int `json:"shards,omitempty"`
	Samples int `json:"samples"`

	Recoveries int `json:"recoveries"`
	// DetectionUs is fault occurrence to supervisor detection (zero when
	// the fault healed below the supervisor).
	DetectionUs    float64 `json:"detection_us"`
	MinDetectionUs float64 `json:"min_detection_us"`
	// MTTRUs is detection to recovery complete and the stream resumed.
	MTTRUs    float64 `json:"mttr_us"`
	MinMTTRUs float64 `json:"min_mttr_us"`
	MaxMTTRUs float64 `json:"max_mttr_us"`
	// Retries and Absorbed count transient-retry work across the run.
	Retries  int64 `json:"retries"`
	Absorbed int64 `json:"absorbed"`
	// EventsReplayed is the recovery's replay volume (fatal/panic heals).
	EventsReplayed int `json:"events_replayed"`
	// OfflineMatch reports supervised-vs-offline recovery agreement
	// (meaningful for fatal-heal; vacuously true otherwise).
	OfflineMatch bool `json:"offline_match"`
	// WallUs is the whole supervised run's wall clock.
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

// measureChaos runs one chaos cell `repeat` times and keeps the median sample
// by MTTR (wall-clock healing time on a shared host is noisy; the median
// is the honest central estimate), plus min/max spread.
func measureChaos(kind ftapi.Kind, sc crashtest.Scenario, pipelined bool, epochs, epochSize, repeat int, o *obs.Observer) (ChaosEntry, error) {
	outs := make([]*crashtest.ChaosOutcome, 0, repeat)
	for i := 0; i < repeat; i++ {
		out, err := crashtest.Chaos(crashtest.ChaosConfig{
			Config: crashtest.Config{
				Kind:      kind,
				NewGen:    func() workload.Generator { return fttest.SLGen(79) },
				Epochs:    epochs,
				EpochSize: epochSize,
				RunShape:  types.RunShape{Pipeline: pipelined},
			},
			Scenario: sc,
			Obs:      o,
		})
		if err != nil {
			return ChaosEntry{}, err
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
		Scenario:       sc.String(),
		Pipelined:      pipelined,
		Samples:        len(outs),
		Recoveries:     med.Recoveries,
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
	if len(med.Reports) > 0 {
		e.EventsReplayed = med.Reports[0].EventsReplayed
	}
	return e, nil
}

// measureShardKill runs the single-shard-kill cell `repeat` times and
// keeps the median sample by group MTTR: one shard's device dies fatally
// under sustained group ingestion, the survivors keep committing, and the
// coordinator heals the dead shard in place (internal/ft/crashtest.ShardChaos,
// which also verifies the whole run against the sharded oracle).
func measureShardKill(kind ftapi.Kind, shards, kill, epochs, epochSize, repeat int) (ChaosEntry, error) {
	outs := make([]*crashtest.ShardChaosOutcome, 0, repeat)
	for i := 0; i < repeat; i++ {
		out, err := crashtest.ShardChaos(crashtest.ShardChaosConfig{
			Config: crashtest.Config{
				Kind:      kind,
				NewGen:    func() workload.Generator { return fttest.GSGen(43) },
				Epochs:    epochs,
				EpochSize: epochSize,
			},
			Shards:    shards,
			KillShard: kill,
			// FaultAt is left to ShardChaos, which kills at the midpoint of
			// the shard's own write sequence whatever the run length.
		})
		if err != nil {
			return ChaosEntry{}, err
		}
		// Mid-run, so the heal's recovery has committed epochs to replay and
		// the group has epochs left to prove it is live again.
		if out.FailedEpoch < 2 || out.FailedEpoch > uint64(epochs-1) {
			return ChaosEntry{}, fmt.Errorf("shard-kill %v kill=%d: died in epoch %d, want one of 2..%d",
				kind, kill, out.FailedEpoch, epochs-1)
		}
		outs = append(outs, out)
	}
	for i := 1; i < len(outs); i++ {
		for j := i; j > 0 && outs[j].MTTR < outs[j-1].MTTR; j-- {
			outs[j], outs[j-1] = outs[j-1], outs[j]
		}
	}
	med := outs[len(outs)/2]
	e := ChaosEntry{
		Kind:         kind.String(),
		Scenario:     "shard-kill",
		Shards:       shards,
		Samples:      len(outs),
		Recoveries:   1,
		MTTRUs:       us(med.MTTR),
		MinMTTRUs:    us(outs[0].MTTR),
		MaxMTTRUs:    us(outs[len(outs)-1].MTTR),
		OfflineMatch: true, // ShardChaos verifies against the sharded oracle
	}
	if med.Report != nil {
		e.EventsReplayed = med.Report.EventsReplayed
	}
	return e, nil
}

// Both sizes run the same 10 x 48 stream through every cell; quick takes
// fewer samples per cell.
const (
	chaosEpochs    = 10
	chaosEpochSize = 48
	chaosShards    = 4
)

func chaosRepeat(quick bool) int {
	if quick {
		return 3
	}
	return 5
}

var (
	chaosScenarios = []crashtest.Scenario{crashtest.TransientStorm, crashtest.FatalHeal, crashtest.MidEpochPanic}
	// chaosKills are the shard-kill cells' victims in the 4-shard group: an
	// edge shard and an interior one.
	chaosKills = []int{0, 2}
)

var chaosSuite = Suite[ChaosReport]{
	Spec: Spec{
		Name:   "chaos",
		File:   "BENCH_chaos.json",
		Quick:  "5 mechanisms x 3 scenarios x pipelined on/off + 5 x 2 shard-kill cells, 10 epochs x 48 events, median of 3",
		Full:   "same grid, median of 5",
		Traces: []Trace{{File: "chaos_trace.json", Cat: obs.CatRecovery}},
	},
	Run: runChaos,
	Gates: []Gate[ChaosReport]{
		countGate("cells", "supervisor", "mechanisms x scenarios x pipelined on/off, plus the shard-kill cells",
			func(r *ChaosReport) int { return len(r.Entries) },
			func(bool) int { return len(mechanisms) * (len(chaosScenarios)*2 + len(chaosKills)) }),
		cellsGate("offline_match", "supervisor", "every supervised recovery report-equal to the offline crash-point recovery",
			chaosEntries, chaosLabel, func(e ChaosEntry) bool { return e.OfflineMatch }),
		cellsGate("healed", "supervisor", "0 recoveries in transient-storm cells, exactly 1 with mttr_us > 0 in every other cell",
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
	return fmt.Sprintf("%s/%s/pipelined=%v", e.Kind, e.Scenario, e.Pipelined)
}

func runChaos(env *Env, rep *ChaosReport) error {
	repeat := chaosRepeat(env.quick())
	rep.Epochs, rep.EpochSize = chaosEpochs, chaosEpochSize
	rep.Note = "Each cell is one supervised chaos run (internal/ft/crashtest.Chaos): " +
		"a scripted fault storm against a live engine, healed in-process by " +
		"internal/supervisor. detection_us is fault injection to supervisor " +
		"detection; mttr_us is detection to recovery complete and the stream " +
		"resumed. transient-storm cells heal at the retry layer (0 recoveries, " +
		"mttr 0); fatal-heal and mid-epoch-panic cells heal with exactly one " +
		"in-process recovery, verified state- and output-equal to the oracle, " +
		"and fatal-heal additionally verified report-equal to the offline " +
		"crash-point recovery of the same write site. shard-kill cells run a " +
		"4-shard group (internal/shard) with one shard's device dying fatally: " +
		"mttr_us is the group MTTR — shard death detected to the interrupted " +
		"barrier completed and the group live again — while the survivors keep " +
		"committing; the run is verified per shard and globally against the " +
		"sharded oracle."

	for _, kind := range mechanisms {
		for _, sc := range chaosScenarios {
			for _, pipelined := range []bool{false, true} {
				e, err := measureChaos(kind, sc, pipelined, chaosEpochs, chaosEpochSize, repeat, env.Obs)
				if err != nil {
					return err
				}
				rep.Entries = append(rep.Entries, e)
				env.logf("%-5s %-16s pipelined=%-5v: detect %7.0f µs, mttr %7.0f µs, %d recoveries, %d retries\n",
					e.Kind, e.Scenario, e.Pipelined, e.DetectionUs, e.MTTRUs, e.Recoveries, e.Retries)
			}
		}
	}
	for _, kind := range mechanisms {
		for _, kill := range chaosKills {
			e, err := measureShardKill(kind, chaosShards, kill, chaosEpochs, chaosEpochSize, repeat)
			if err != nil {
				return err
			}
			rep.Entries = append(rep.Entries, e)
			env.logf("%-5s %-16s shards=%d kill=%d: mttr %7.0f µs, %d replayed\n",
				e.Kind, e.Scenario, chaosShards, kill, e.MTTRUs, e.EventsReplayed)
		}
	}
	return env.writeSpans("chaos_trace.json")
}

// summarizeChaos keeps the healing headline: recovery counts, the mean
// MTTR over cells that actually recovered, and whether every cell's
// recovered state matched the oracle.
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
