package main

import (
	"fmt"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/serve"
)

// ServeReport is the file layout of BENCH_serve.json.
type ServeReport struct {
	Host
	Shards  int                  `json:"shards"`
	Tenants int                  `json:"tenants"`
	Batches int                  `json:"batches_per_tenant"`
	Note    string               `json:"note"`
	Cells   []*serve.ChaosReport `json:"cells"`
}

// The serving suite's fixed shape: a 2-shard WAL group behind the server,
// 3 well-behaved tenants submitting 8-event batches from one seed. Only
// the stream length differs between sizes.
const (
	serveShards      = 2
	serveTenants     = 3
	serveBatchEvents = 8
	serveSeed        = 42
)

func serveBatches(quick bool) int {
	if quick {
		return 16
	}
	return 40
}

var serveSuite = Suite[ServeReport]{
	Spec: Spec{
		Name:  "serve",
		File:  "BENCH_serve.json",
		Quick: "5 chaos cells, 3 tenants x 16 batches x 8 events, 2 shards",
		Full:  "5 chaos cells, 3 tenants x 40 batches x 8 events, 2 shards",
	},
	Run: runServe,
	Gates: []Gate[ServeReport]{
		countGate("cells", "serve", "one cell per serve.Cells() entry",
			func(r *ServeReport) int { return len(r.Cells) }, func(bool) int { return len(serve.Cells()) }),
		cellsGate("cells_ran", "serve", "no cell ended in a harness error",
			serveCells, func(c *serve.ChaosReport) string { return c.Cell + ": " + c.Err }, func(c *serve.ChaosReport) bool { return c.Err == "" }),
		cellsGate("violations", "serve", "violations == 0 in every cell",
			serveCells, serveLabel, func(c *serve.ChaosReport) bool { return c.Violations == 0 }),
		cellsGate("exactly_once", "serve", "exactly_once_violations, dup_acks and ack_order_violations all 0 in every cell",
			serveCells, serveLabel, func(c *serve.ChaosReport) bool { return c.ExactlyOnce == 0 && c.DupAcks == 0 && c.OrderViol == 0 }),
		countGate("kill_cells", "serve", "every cell but steady kills a shard or the group",
			func(r *ServeReport) int { return len(killCells(r)) }, func(bool) int { return len(serve.Cells()) - 1 }),
		cellsGate("kill_cells_mttr", "serve", "client_mttr_ms > 0 in every kill cell",
			killCells, serveLabel, func(c *serve.ChaosReport) bool { return c.ClientMTTRMs > 0 }),
		cellsGate("queue_bounded", "serve", "acked_batches > 0 and max_queue_depth <= queue_cap in every cell",
			serveCells, serveLabel, func(c *serve.ChaosReport) bool { return c.AckedBatches > 0 && c.MaxQueue <= c.QueueCap }),
		gate("slow_consumer_evicted", "serve", "exactly one slow-consumer cell, with evictions >= 1", func(r *ServeReport) (bool, string) {
			n, evictions := 0, int64(0)
			for _, c := range r.Cells {
				if c.Cell == serve.CellSlowConsumer {
					n, evictions = n+1, c.Evictions
				}
			}
			return n == 1 && evictions >= 1, fmt.Sprintf("%d slow-consumer cells, %d evictions", n, evictions)
		}),
	},
	Summary: summarizeServe,
}

func serveCells(r *ServeReport) []*serve.ChaosReport { return r.Cells }

// killCells are the cells whose faults include at least one shard or group
// kill; these must report a client-observed MTTR.
func killCells(r *ServeReport) []*serve.ChaosReport {
	var kills []*serve.ChaosReport
	for _, c := range r.Cells {
		if c.Cell != serve.CellSteady {
			kills = append(kills, c)
		}
	}
	return kills
}

func serveLabel(c *serve.ChaosReport) string {
	return fmt.Sprintf("%s violations=%d exactly-once=%d dup=%d order=%d mttr=%.1fms acked=%d depth=%d/%d",
		c.Cell, c.Violations, c.ExactlyOnce, c.DupAcks, c.OrderViol, c.ClientMTTRMs, c.AckedBatches, c.MaxQueue, c.QueueCap)
}

func runServe(env *Env, rep *ServeReport) error {
	rep.Shards, rep.Tenants, rep.Batches = serveShards, serveTenants, serveBatches(env.quick())
	rep.Note = "Each cell is one internal/serve.Chaos run: live TCP clients " +
		"submit per-tenant batch streams through the ingestion front-end " +
		"onto a sharded group while the cell's faults fire (shard and " +
		"group kills at progress gates, connection severs, a rogue " +
		"never-reading client, half-open handshakes). client_mttr_ms is " +
		"the worst kill-to-first-observed-ack interval as seen by a " +
		"client, including reconnect and HelloAck watermark recovery. " +
		"violations sums duplicate acks, ack-order regressions, and " +
		"exactly-once audit failures (every acked batch's events applied " +
		"exactly once across all incarnations); the acceptance gate is " +
		"violations == 0 in every cell."

	for _, cell := range serve.Cells() {
		// A cell that errors still lands in the report (with its err) so the
		// file shows every cell; the cells_ran gate then fails the run.
		cr, err := serve.Chaos(serve.ChaosConfig{
			Cell: cell, Seed: serveSeed, Shards: rep.Shards, Kind: ftapi.WAL,
			Tenants: rep.Tenants, Batches: rep.Batches, BatchEvents: serveBatchEvents,
		})
		if cr == nil {
			cr = &serve.ChaosReport{Cell: cell}
		}
		if err != nil && cr.Err == "" {
			cr.Err = err.Error()
		}
		rep.Cells = append(rep.Cells, cr)
		env.logf("%-16s acked %3d  kills=%d heals=%d evict=%d reconn=%d  mttr %6.1f ms  p99 lag %6.1f ms  violations=%d\n",
			cell, cr.AckedBatches, cr.Kills, cr.Heals, cr.Evictions, cr.Reconnects,
			cr.ClientMTTRMs, cr.P99AckLagMs, cr.Violations)
	}
	return nil
}

// summarizeServe keeps the serving layer's headlines: the total violation
// count across chaos cells (the exactly-once acceptance gate — must stay
// zero), the worst client-observed MTTR over kill cells, and per-cell p99
// ack lag.
func summarizeServe(r *ServeReport) map[string]any {
	out := map[string]any{"cells": len(r.Cells)}
	var violations, heals int
	var evictions int64
	worstMTTR := 0.0
	for _, c := range r.Cells {
		violations += c.Violations
		heals += c.Heals
		evictions += c.Evictions
		worstMTTR = max(worstMTTR, c.ClientMTTRMs)
		out["p99_ack_lag_ms_"+c.Cell] = c.P99AckLagMs
	}
	out["violations"] = violations
	out["heals"] = heals
	out["evictions"] = evictions
	if worstMTTR > 0 {
		out["max_client_mttr_ms"] = worstMTTR
	}
	return out
}
