package layers

import (
	"bufio"
	"bytes"
	"fmt"
	"slices"
	"sort"
	"time"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/partition"
	"morphstreamr/internal/scheduler"
	"morphstreamr/internal/serve"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/store"
	"morphstreamr/internal/tpg"
	"morphstreamr/internal/types"
)

// probed is what the probes measured.
type probed struct {
	vals        map[string]float64
	opsPerEvent float64
}

// probeRepeats is how often each probe runs; it reports the median.
const probeRepeats = 3

// probe replays the window's last epochs through each inner layer on its
// own. The inputs are the run's, as the ingest manifest recorded them; the
// state they meet is fresh, so a probe measures the layer's cost on this
// traffic and not the run's exact history.
func (s *Session) probe(in Input, epochs [][]types.Event) (*probed, error) {
	p := &probed{vals: map[string]float64{}}
	events := 0
	for _, ev := range epochs {
		events += len(ev)
	}
	perEvent := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(events) }

	// serve: the wire codec on the generator's own batches.
	var enc, dec []time.Duration
	ringEvents := 0
	for r := 0; r < probeRepeats; r++ {
		frames := make([][]byte, len(in.Ring))
		ringEvents = 0
		enc = append(enc, s.T.Time(Serve, "probe frame encode", -1, 0, len(in.Ring), func() {
			for i, b := range in.Ring {
				frames[i] = serve.EncodeSubmit(uint64(i+1), b)
				ringEvents += len(b)
			}
		}))
		payloads := make([][]byte, len(frames))
		for i, f := range frames {
			var err error
			if payloads[i], err = serve.ReadFrame(bufio.NewReader(bytes.NewReader(f)), 0); err != nil {
				return nil, fmt.Errorf("layers: frame probe: %w", err)
			}
		}
		var derr error
		dec = append(dec, s.T.Time(Serve, "probe frame decode", -1, 0, len(in.Ring), func() {
			for _, pl := range payloads {
				if _, err := serve.DecodeFrame(pl); err != nil {
					derr = err
				}
			}
		}))
		if derr != nil {
			return nil, fmt.Errorf("layers: frame probe: %w", derr)
		}
	}
	p.vals["serve.frame_encode_ns_per_event"] = float64(median(enc).Nanoseconds()) / float64(ringEvents)
	p.vals["serve.frame_decode_ns_per_event"] = float64(median(dec).Nanoseconds()) / float64(ringEvents)

	// partition: key → shard for every event, and how evenly they land.
	router := partition.NewRanges(in.App.Tables(), in.Shards)
	perShard := make([]int, in.Shards)
	var routes []time.Duration
	for r := 0; r < probeRepeats; r++ {
		clear(perShard)
		routes = append(routes, s.T.Time(Partition, "probe route", -1, 0, events, func() {
			for _, ev := range epochs {
				for i := range ev {
					perShard[router.Of(ev[i].Keys[0])]++
				}
			}
		}))
	}
	p.vals["partition.route_ns_per_event"] = perEvent(median(routes))
	p.vals["partition.skew"] = float64(slices.Max(perShard)) * float64(in.Shards) / float64(events)

	// shard, engine, ft: the epochs through a whole group, with the run's
	// mechanism and with none. The difference is what fault tolerance costs
	// at runtime — the paper's runtime overhead.
	var msr, nat []time.Duration
	var stats []shard.EpochStat
	for r := 0; r < probeRepeats; r++ {
		d, st, err := s.replay(in, epochs, ftapi.MSR, FT, "probe replay MSR")
		if err != nil {
			return nil, err
		}
		msr, stats = append(msr, d), st
		if d, _, err = s.replay(in, epochs, ftapi.NAT, Engine, "probe replay NAT"); err != nil {
			return nil, err
		}
		nat = append(nat, d)
	}
	p.vals["shard.epoch_ns_per_event"] = perEvent(median(msr))
	p.vals["engine.nat_ns_per_event"] = perEvent(median(nat))
	p.vals["engine.ft_overhead_ratio"] = float64(median(msr)) / float64(median(nat))
	var slowest, mean, barrier time.Duration
	for _, st := range stats {
		var sum time.Duration
		for _, w := range st.ShardWalls {
			sum += w
		}
		slowest += slices.Max(st.ShardWalls)
		mean += sum / time.Duration(len(st.ShardWalls))
		barrier += st.BarrierWall
	}
	p.vals["shard.barrier_ratio"] = ratio(barrier, slowest+barrier)
	p.vals["shard.imbalance"] = ratio(slowest, mean)

	// tpg, scheduler, store: the epochs as one engine sees them, the graph
	// built and run by the work-stealing scheduler and, from the same start
	// state, by the single-threaded baseline.
	var builds, runs, seqs, snaps []time.Duration
	var ops, chains, longest, txns, aborted int
	for r := 0; r < probeRepeats; r++ {
		par, seq := store.New(in.App.Tables()), store.New(in.App.Tables())
		var build, run, sq time.Duration
		ops, chains, longest, txns, aborted = 0, 0, 0, 0, 0
		for _, ev := range epochs {
			var g *tpg.Graph
			tx := preprocess(in.App, ev)
			build += s.T.Time(TPG, "probe build", -1, 0, len(ev), func() { g = tpg.Build(tx, par.Get) })
			ops += g.NumOps
			chains += len(g.ChainList)
			deepest := 0
			for _, ch := range g.ChainList {
				deepest = max(deepest, len(ch.Ops))
			}
			longest += deepest
			var err error
			run += s.T.Time(Scheduler, "probe run", -1, 0, g.NumOps, func() {
				_, err = scheduler.Run(g, par, scheduler.Options{Workers: in.Workers})
			})
			if err != nil {
				return nil, fmt.Errorf("layers: scheduler probe: %w", err)
			}
			for _, tn := range g.Txns {
				txns++
				if tn.Aborted() {
					aborted++
				}
			}
			g2 := tpg.Build(preprocess(in.App, ev), seq.Get)
			sq += s.T.Time(Scheduler, "probe run sequential", -1, 0, g2.NumOps, func() {
				_, err = scheduler.RunSequential(g2, seq, false)
			})
			if err != nil {
				return nil, fmt.Errorf("layers: sequential probe: %w", err)
			}
		}
		if !par.Equal(seq) {
			return nil, fmt.Errorf("layers: the scheduler and the sequential baseline disagree on the state after %d epochs", len(epochs))
		}
		builds, runs, seqs = append(builds, build), append(runs, run), append(seqs, sq)
		snaps = append(snaps, s.T.Time(Store, "probe snapshot", -1, 0, par.NumRecords(), func() { par.Snapshot() }))
	}
	p.opsPerEvent = float64(ops) / float64(events)
	p.vals["tpg.build_ns_per_op"] = float64(median(builds).Nanoseconds()) / float64(ops)
	p.vals["tpg.ops_per_chain"] = float64(ops) / float64(chains)
	p.vals["tpg.par"] = float64(ops) / float64(longest)
	p.vals["scheduler.run_ns_per_op"] = float64(median(runs).Nanoseconds()) / float64(ops)
	p.vals["scheduler.seq_ns_per_op"] = float64(median(seqs).Nanoseconds()) / float64(ops)
	p.vals["scheduler.abort_ratio"] = float64(aborted) / float64(txns)
	p.vals["store.snapshot_ms"] = ms(median(snaps))
	return p, nil
}

// replay feeds the epochs to a fresh group on bare segment stores and
// returns the wall time of the feeding.
func (s *Session) replay(in Input, epochs [][]types.Event, kind ftapi.Kind, layer, name string) (time.Duration, []shard.EpochStat, error) {
	devs := make([]storage.Device, in.Shards)
	for i := range devs {
		devs[i] = storage.NewSegStore(storage.SegConfig{})
	}
	g, err := shard.NewGroup(shard.Config{
		GroupShape: types.GroupShape{RunShape: types.RunShape{Workers: in.Workers}, Shards: in.Shards},
		App:        in.App, Kind: kind, Devices: devs, CoordDev: storage.NewSegStore(storage.SegConfig{}),
	})
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	root := s.T.Add(Span{Layer: layer, Name: name, Start: start, Parent: -1})
	n := 0
	for i, ev := range epochs {
		s.T.Time(Shard, "probe epoch "+kind.String(), root, uint64(i+1), len(ev), func() { err = g.ProcessEpoch(ev) })
		if err != nil {
			return 0, nil, fmt.Errorf("layers: replay %v epoch %d: %w", kind, i+1, err)
		}
		n += len(ev)
	}
	d := time.Since(start)
	s.T.SetDur(root, d, n)
	for i := 0; i < g.Shards(); i++ {
		g.Engine(i).Close()
	}
	return d, g.EpochStats(), nil
}

func preprocess(app types.App, events []types.Event) []*types.Txn {
	txns := make([]*types.Txn, len(events))
	for i := range events {
		t := app.Preprocess(events[i])
		txns[i] = &t
	}
	return txns
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[len(s)/2]
}
