// Command msrdemo runs a single process-crash-recover scenario and prints
// a detailed report: the playground counterpart to cmd/msrbench's fixed
// figures.
//
// Usage:
//
//	msrdemo [flags]
//
//	-app SL|GS|TP      workload (default SL)
//	-ft NAT|CKPT|WAL|DL|LV|MSR
//	-workers N         parallelism (default 4)
//	-batch N           events per epoch (default 4096)
//	-snapshot N        epochs per checkpoint (default 8)
//	-commit N          log commitment epoch (default 1)
//	-post N            epochs processed after the checkpoint (default 4)
//	-auto              workload-aware log commitment (MSR)
//	-seed N            generator seed (default 1)
//	-obs ADDR          serve live telemetry (/metrics, /trace, pprof) during the run
//	-trace PATH        write a Chrome trace_event JSON of the run
//	-profile           profile the recovery replay (per-worker virtual timelines;
//	                   with -obs the full profile is served at /recovery)
//	-linger            keep serving -obs after the demo completes (Ctrl-C to exit)
package main

import (
	"flag"
	"fmt"
	"os"

	"morphstreamr/internal/core"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/obs"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/vtime"
	"morphstreamr/internal/workload"
)

func main() {
	appName := flag.String("app", "SL", "workload: SL, GS, or TP")
	ftName := flag.String("ft", "MSR", "fault tolerance: NAT, CKPT, WAL, DL, LV, MSR")
	workers := flag.Int("workers", 4, "worker parallelism")
	batch := flag.Int("batch", 4096, "events per epoch")
	snapshot := flag.Int("snapshot", 8, "epochs per checkpoint")
	commit := flag.Int("commit", 1, "log commitment epoch")
	post := flag.Int("post", 4, "epochs after the checkpoint (the recovery volume)")
	auto := flag.Bool("auto", false, "workload-aware log commitment (MSR)")
	seed := flag.Int64("seed", 1, "generator seed")
	obsAddr := flag.String("obs", "", "serve live telemetry (/metrics, /trace, pprof) on this address")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON of the run to this path")
	profile := flag.Bool("profile", false, "profile the recovery replay (served at /recovery with -obs)")
	linger := flag.Bool("linger", false, "keep serving -obs after the demo completes")
	flag.Parse()

	var observer *obs.Observer
	var srv *obs.Server
	if *obsAddr != "" || *tracePath != "" {
		observer = obs.NewObserver(2, 1<<14)
	}
	if *obsAddr != "" {
		var err error
		srv, err = obs.Serve(*obsAddr, observer)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry at http://%s/metrics and /trace\n", srv.URL())
	}
	if *linger && *obsAddr != "" {
		defer func() {
			fmt.Fprintf(os.Stderr, "lingering on http://%s (Ctrl-C to exit)\n", srv.URL())
			select {}
		}()
	}
	if *tracePath != "" {
		defer func() {
			events, dropped := observer.T().Drain()
			f, err := os.Create(*tracePath)
			if err == nil {
				err = obs.ExportChrome(f, events, dropped)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "trace:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "wrote %s (%d spans)\n", *tracePath, len(events))
		}()
	}

	kind, err := ftapi.ParseKind(*ftName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var gen workload.Generator
	switch *appName {
	case "SL":
		p := workload.DefaultSLParams()
		p.Seed, p.Partitions = *seed, *workers
		gen = workload.NewSL(p)
	case "GS":
		p := workload.DefaultGSParams()
		p.Seed, p.Partitions = *seed, *workers
		gen = workload.NewGS(p)
	case "TP":
		p := workload.DefaultTPParams()
		p.Seed, p.Partitions = *seed, *workers
		gen = workload.NewTP(p)
	default:
		fmt.Fprintf(os.Stderr, "unknown app %q (want SL, GS, or TP)\n", *appName)
		os.Exit(2)
	}

	var prof *vtime.Profiler
	if *profile {
		prof = vtime.NewProfiler(*workers)
	}
	sys, err := core.New(gen.App(), core.Config{
		RunShape: core.RunShape{
			Workers:       *workers,
			CommitEvery:   *commit,
			SnapshotEvery: *snapshot,
			AutoCommit:    *auto,
		},
		FT:               kind,
		SSDModel:         true,
		Obs:              observer,
		RecoveryProfiler: prof,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	total := *snapshot + *post
	fmt.Printf("%s under %v: %d epochs x %d events, snapshot at %d, crash at %d\n",
		gen.App().Name(), kind, total, *batch, *snapshot, total)
	for i := 0; i < total; i++ {
		if err := sys.ProcessBatch(workload.Batch(gen, *batch)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	fmt.Printf("\nruntime:\n")
	fmt.Printf("  throughput        %.0f events/s\n", sys.Engine.Throughput())
	fmt.Printf("  ft overhead       %v\n", sys.Engine.Runtime())
	fmt.Printf("  commit epoch      %d\n", sys.Engine.CommitEvery())
	fmt.Printf("  outputs delivered %d (pending %d)\n",
		len(sys.Engine.Delivered()), sys.Engine.PendingOutputs())
	bw := sys.Cfg.Device.BytesWritten()
	fmt.Printf("  durable bytes     %d (", storage.SumBytes(bw))
	for i, name := range storage.SortedNames(bw) {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("%s %d", name, bw[name])
	}
	fmt.Println(")")

	if kind == ftapi.NAT {
		fmt.Println("\nnative execution persists nothing; no recovery to demonstrate")
		return
	}

	sys.Crash()
	fmt.Println("\n*** crash ***")
	recovered, report, err := sys.Recover()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\nrecovery:\n")
	fmt.Printf("  snapshot epoch    %d\n", report.SnapshotEpoch)
	fmt.Printf("  committed epoch   %d\n", report.CommittedEpoch)
	fmt.Printf("  events replayed   %d\n", report.EventsReplayed)
	fmt.Printf("  simulated wall    %v (at %d workers)\n", report.SimWall().Round(0), report.Workers)
	fmt.Printf("  throughput        %.0f events/s\n", report.Throughput())
	fmt.Printf("  breakdown (per-worker):\n")
	bd := report.Breakdown.PerWorker(report.Workers)
	for _, c := range bd.Components() {
		fmt.Printf("    %-10s %v\n", c.Name, c.D)
	}
	if p := report.Profile; p != nil {
		fmt.Printf("  profile (virtual): timeline %v, critical path %v, cp-ratio %.3f, stall %.1f%%, drain %.1f%%, %d phases\n",
			p.Timeline.Round(0), p.CritPath.Round(0), p.CPRatio,
			100*p.StallShare(), 100*p.DrainShare(), len(p.Phases))
		if *obsAddr != "" {
			fmt.Fprintf(os.Stderr, "full recovery profile at http://%s/recovery\n", *obsAddr)
		}
	}
	fmt.Printf("\nresumed at epoch %d; the engine is live again\n", recovered.Engine.Epoch())
}
