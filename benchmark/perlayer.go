package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"slices"
	"time"

	"morphstreamr/internal/serve"
	"morphstreamr/internal/storage"
)

// gcCPUSeconds is the CPU the collector has used so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// windowValues assembles what the traced run reports of the window: the
// generator's metrics, the byte ledgers' and the Go runtime's from here, the
// layers' from the tracer. It prints the layer budget.
func windowValues(sp *spec, p params, run *measured) (map[string]float64, error) {
	tr, w, ref := run.tr, run.w, run.ref
	m, budget, err := tr.Report(sp, p.seed, run.r, w)
	if err != nil {
		return nil, err
	}
	fmt.Fprint(os.Stderr, budget)
	ev := float64(w.events)

	m["client.sched_lag_p99_ms"] = quantile(w.lagMs, 0.99)
	m["client.ack_p95_ms"] = quantile(w.latMs, 0.95)
	m["client.ack_p99_ms"] = quantile(w.latMs, 0.99)
	m["client.ack_p999_ms"] = quantile(w.latMs, 0.999)
	m["client.ack_max_ms"] = quantile(w.latMs, 1)
	m["client.refused_batches"] = float64(w.refused)
	m["client.mttr_p50_ms"] = mttrP50(w)
	for i, l := range w.lanes {
		for _, b := range l.Sampled {
			tr.ClientSpan(i, b.Seq, time.Unix(0, b.Due), time.Unix(0, b.Ack))
		}
	}

	wrote := func(names ...string) float64 {
		var n int64
		for _, name := range names {
			n += w.e1.bytes[name] - w.e0.bytes[name]
		}
		return float64(n) / ev
	}
	m["ft.input_b_per_event"] = wrote(storage.LogInput)
	m["ft.log_b_per_event"] = wrote(storage.LogFT)
	m["ft.ckpt_b_per_event"] = wrote(storage.LogCkpt, storage.BlobSnapshot)
	m["serve.manifest_b_per_event"] = wrote(serve.LogIngest)
	m["storage.blob_b_per_event"] = wrote(storage.BlobSnapshot, storage.BlobMeta, serve.BlobIngest)

	cpu := (w.e1.cpu - w.e0.cpu).Seconds()
	m["runtime.cpu_us_per_event"] = cpu * 1e6 / ev
	m["runtime.wakeups_per_event"] = float64(w.e1.wakeups-w.e0.wakeups) / ev
	m["runtime.gc_cpu_ratio"] = (w.e1.gcCPU - w.e0.gcCPU) / cpu
	var pauses []float64
	mem := &w.e1.mem
	for n := max(w.e0.mem.NumGC, mem.NumGC-min(mem.NumGC, 255)) + 1; n <= mem.NumGC; n++ {
		// PauseNs and PauseEnd are rings of the last 256 cycles.
		d := time.Duration(mem.PauseNs[(n+255)%256])
		pauses = append(pauses, float64(d.Microseconds()))
		tr.RuntimeSpan("gc pause", time.Unix(0, int64(mem.PauseEnd[(n+255)%256])).Add(-d), d, int(n))
	}
	slices.Sort(pauses)
	m["runtime.gc_pause_p99_us"] = quantile(pauses, 0.99)
	// Both edges follow a forced collection, so HeapAlloc is the live heap.
	m["runtime.live_heap_b_per_event"] = (float64(mem.HeapAlloc) - float64(w.e0.mem.HeapAlloc)) / ev

	m["trace.overhead_ratio"] = (ev / w.e1.at.Sub(w.e0.at).Seconds()) / (float64(ref.events) / ref.e1.at.Sub(ref.e0.at).Seconds())
	m["trace.ack_p50_ratio"] = quantile(w.latMs, 0.5) / quantile(ref.latMs, 0.5)
	return m, nil
}

// recoveryValues adds what the traced run reports of the fixture.
func recoveryValues(m map[string]float64, tr tracer, fx *fixture, rec *recoveryStats) error {
	var b struct{ reload, construct, abort, explore, execute, wait, total float64 }
	for _, sr := range rec.last.rep.Reports {
		d := sr.Breakdown
		b.reload += float64(d.Reload)
		b.construct += float64(d.Construct)
		b.abort += float64(d.Abort)
		b.explore += float64(d.Explore)
		b.execute += float64(d.Execute)
		b.wait += float64(d.Wait)
		b.total += float64(d.Total())
	}
	m["recovery.reload_ratio"] = b.reload / b.total
	m["recovery.construct_ratio"] = b.construct / b.total
	m["recovery.abort_ratio"] = b.abort / b.total
	m["recovery.explore_ratio"] = b.explore / b.total
	m["recovery.execute_ratio"] = b.execute / b.total
	m["recovery.wait_ratio"] = b.wait / b.total
	m["recovery.events_replayed"] = float64(rec.replayed)
	m["recovery.wall_ms"] = rec.wallMs
	m["recovery.speedup_x"] = rec.last.rep.Speedup()
	m["recovery.model_vs_wall"] = rec.simMs / rec.wallMs
	var serial []float64
	for i := 0; i < 3; i++ {
		one, err := fx.recoverOnce(true)
		if err != nil {
			return err
		}
		if one.replayed != rec.replayed {
			return fmt.Errorf("audit: serial fixture recovery replayed %d events, the parallel ones %d", one.replayed, rec.replayed)
		}
		serial = append(serial, ms(one.rep.Wall))
	}
	m["recovery.serial_wall_ms"] = median(serial)
	m["storage.read_ms_per_recovery"] = tr.ReadMsPerRecovery()
	return nil
}

// mttrP50 is the median, over the kills, of the longest pause in the merged
// ack stream between a kill and the next: how long a heal stops the acks.
func mttrP50(w *window) float64 {
	var acks []int64
	for _, l := range w.lanes {
		acks = append(acks, l.AckAt...)
	}
	slices.Sort(acks)
	var pausesMs []float64
	for i, k := range w.kills {
		from, to := k.UnixNano(), w.e1.at.UnixNano()
		if i+1 < len(w.kills) {
			to = w.kills[i+1].UnixNano()
		}
		lo, _ := slices.BinarySearch(acks, from)
		longest := int64(0)
		for j := max(lo, 1); j < len(acks) && acks[j-1] < to; j++ {
			longest = max(longest, acks[j]-acks[j-1])
		}
		pausesMs = append(pausesMs, float64(longest)/1e6)
	}
	if len(pausesMs) == 0 {
		return 0
	}
	return median(pausesMs)
}
