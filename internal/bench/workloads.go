package bench

import (
	"morphstreamr/internal/workload"
)

// Workload factories used by the figures. Data partitions always equal the
// worker count, matching how TSPEs shard executors.

// SLFor returns the default Streaming Ledger workload (PD-heavy).
func SLFor(scale Scale, seed int64) workload.Generator {
	p := workload.DefaultSLParams()
	p.Seed = seed
	p.Partitions = scale.Workers
	return workload.NewSL(p)
}

// GSFor returns the default Grep&Sum workload (skew-heavy).
func GSFor(scale Scale, seed int64) workload.Generator {
	p := workload.DefaultGSParams()
	p.Seed = seed
	p.Partitions = scale.Workers
	return workload.NewGS(p)
}

// TPFor returns the default Toll Processing workload (abort-heavy).
func TPFor(scale Scale, seed int64) workload.Generator {
	p := workload.DefaultTPParams()
	p.Seed = seed
	p.Partitions = scale.Workers
	return workload.NewTP(p)
}

// AppFactory names a workload constructor for table-driven figures.
type AppFactory struct {
	Name string
	Make func(Scale, int64) workload.Generator
}

// slApp is Streaming Ledger, the application of the single-app figures.
var slApp = AppFactory{"SL", SLFor}

// Apps lists the three benchmark applications in paper order.
func Apps() []AppFactory {
	return []AppFactory{slApp, {"GS", GSFor}, {"TP", TPFor}}
}
