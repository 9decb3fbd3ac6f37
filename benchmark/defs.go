package main

import "encoding/json"

// def names one metric. BENCHMARK.json is printed from these tables
// (-manifest), so the file and the runner cannot drift apart.
type def struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the system sees. Every workload reports all of
// them with tracing off. Bound is the share of the parent's median by which
// the metric may get worse. One list serves all four workloads, and the
// reference host changes speed by a quarter over an hour (saturate ran at
// 430k and at 330k events/s on the same code), so the bounds of the timed
// metrics are wide; the counted ones (bytes per event, the recovery model)
// hold to a few percent. The wall time of a recovery is per-layer
// (recovery.wall_ms): its spread over ten runs reached 29% when the host
// changed state among them. See README.md, "What made the first attempt
// noisy".
var endToEnd = []def{
	{"setup_s", "s", lower, 0.25},
	{"events_per_s", "1/s", higher, 0.15},
	{"ack_p50_ms", "ms", lower, 0.25},
	{"ack_p90_ms", "ms", lower, 0.25},
	{"alloc_b_per_event", "B", lower, 0.05},
	{"log_bytes_per_event", "B", lower, 0.05},
	{"recovery_sim_ms", "ms", lower, 0.10},
}

// perLayer is what the traced run reports, one group per layer. A metric
// that does not apply to a workload (kill metrics without kills) reads 0.
var perLayer = []def{
	{Name: "client.sched_lag_p99_ms", Unit: "ms", Better: lower},
	{Name: "client.ack_p95_ms", Unit: "ms", Better: lower},
	{Name: "client.ack_p99_ms", Unit: "ms", Better: lower},
	{Name: "client.ack_p999_ms", Unit: "ms", Better: lower},
	{Name: "client.ack_max_ms", Unit: "ms", Better: lower},
	{Name: "client.refused_batches", Unit: "count", Better: lower},
	{Name: "client.mttr_p50_ms", Unit: "ms", Better: lower},

	{Name: "serve.admission_p50_ms", Unit: "ms", Better: lower},
	{Name: "serve.queue_p50_ms", Unit: "ms", Better: lower},
	{Name: "serve.route_p50_ms", Unit: "ms", Better: lower},
	{Name: "serve.execute_p50_ms", Unit: "ms", Better: lower},
	{Name: "serve.commit_p50_ms", Unit: "ms", Better: lower},
	{Name: "serve.ackflush_p50_ms", Unit: "ms", Better: lower},
	{Name: "serve.recovery_p50_ms", Unit: "ms", Better: lower},
	{Name: "serve.feed_busy_ratio", Unit: "ratio", Better: lower},
	{Name: "serve.feed_ms_per_epoch", Unit: "ms", Better: lower},
	{Name: "serve.events_per_epoch", Unit: "count", Better: higher},
	{Name: "serve.heartbeat_epoch_ratio", Unit: "ratio", Better: lower},
	{Name: "serve.heals", Unit: "count", Better: lower},
	{Name: "serve.heal_p50_ms", Unit: "ms", Better: lower},
	{Name: "serve.frame_decode_ns_per_event", Unit: "ns", Better: lower},
	{Name: "serve.frame_encode_ns_per_event", Unit: "ns", Better: lower},
	{Name: "serve.manifest_b_per_event", Unit: "B", Better: lower},
	{Name: "serve.ingest_recover_ms", Unit: "ms", Better: lower},
	{Name: "serve.budget_residual_ratio", Unit: "ratio", Better: lower},

	{Name: "partition.route_ns_per_event", Unit: "ns", Better: lower},
	{Name: "partition.skew", Unit: "ratio", Better: lower},

	{Name: "shard.epoch_ns_per_event", Unit: "ns", Better: lower},
	{Name: "shard.barrier_ratio", Unit: "ratio", Better: lower},
	{Name: "shard.imbalance", Unit: "ratio", Better: lower},

	{Name: "engine.io_ratio", Unit: "ratio", Better: lower},
	{Name: "engine.tracking_ratio", Unit: "ratio", Better: lower},
	{Name: "engine.sync_ratio", Unit: "ratio", Better: lower},
	{Name: "engine.nat_ns_per_event", Unit: "ns", Better: lower},
	{Name: "engine.ft_overhead_ratio", Unit: "ratio", Better: lower},

	{Name: "tpg.build_ns_per_op", Unit: "ns", Better: lower},
	{Name: "tpg.ops_per_chain", Unit: "count", Better: lower},
	{Name: "tpg.par", Unit: "ratio", Better: higher},

	{Name: "scheduler.run_ns_per_op", Unit: "ns", Better: lower},
	{Name: "scheduler.seq_ns_per_op", Unit: "ns", Better: lower},
	{Name: "scheduler.abort_ratio", Unit: "ratio", Better: lower},

	{Name: "ft.input_b_per_event", Unit: "B", Better: lower},
	{Name: "ft.log_b_per_event", Unit: "B", Better: lower},
	{Name: "ft.ckpt_b_per_event", Unit: "B", Better: lower},

	{Name: "storage.appends_per_epoch", Unit: "count", Better: lower},
	{Name: "storage.append_p50_us", Unit: "us", Better: lower},
	{Name: "storage.append_busy_ratio", Unit: "ratio", Better: lower},
	{Name: "storage.b_per_append", Unit: "B", Better: higher},
	{Name: "storage.blob_b_per_event", Unit: "B", Better: lower},
	{Name: "storage.releases", Unit: "count", Better: higher},
	{Name: "storage.read_ms_per_recovery", Unit: "ms", Better: lower},

	{Name: "store.snapshot_ms", Unit: "ms", Better: lower},

	{Name: "recovery.reload_ratio", Unit: "ratio", Better: lower},
	{Name: "recovery.construct_ratio", Unit: "ratio", Better: lower},
	{Name: "recovery.abort_ratio", Unit: "ratio", Better: lower},
	{Name: "recovery.explore_ratio", Unit: "ratio", Better: lower},
	{Name: "recovery.execute_ratio", Unit: "ratio", Better: higher},
	{Name: "recovery.wait_ratio", Unit: "ratio", Better: lower},
	{Name: "recovery.events_replayed", Unit: "count", Better: lower},
	{Name: "recovery.wall_ms", Unit: "ms", Better: lower},
	{Name: "recovery.speedup_x", Unit: "x", Better: higher},
	{Name: "recovery.serial_wall_ms", Unit: "ms", Better: lower},
	{Name: "recovery.model_vs_wall", Unit: "ratio", Better: higher},

	{Name: "runtime.cpu_us_per_event", Unit: "us", Better: lower},
	{Name: "runtime.wakeups_per_event", Unit: "count", Better: lower},
	{Name: "runtime.gc_cpu_ratio", Unit: "ratio", Better: lower},
	{Name: "runtime.gc_pause_p99_us", Unit: "us", Better: lower},
	{Name: "runtime.live_heap_b_per_event", Unit: "B", Better: lower},

	{Name: "trace.overhead_ratio", Unit: "ratio", Better: higher},
	{Name: "trace.ack_p50_ratio", Unit: "ratio", Better: lower},
}

// runSeconds is the window the driver measures. The issue asked for 30 s;
// 92 driver runs of four workloads must end within 3420 s, which leaves
// room for 15.
const runSeconds = 15

// manifest renders BENCHMARK.json.
func manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []def    `json:"end_to_end"`
		PerLayer   []def    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, sp := range specs {
		m.Workloads = append(m.Workloads, wl{sp.name, sp.why})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // the tables hold only strings and numbers
	}
	return append(out, '\n')
}
