// Package ft constructs the fault-tolerance mechanisms by kind: the one
// place that knows every scheme, so hosts that assemble engines (core, the
// shard group, the crash sweeps, the store bench) import it rather than the
// public façade.
package ft

import (
	"fmt"

	"morphstreamr/internal/ft/checkpoint"
	"morphstreamr/internal/ft/depgraph"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/lsnvector"
	"morphstreamr/internal/ft/msr"
	"morphstreamr/internal/ft/wal"
	"morphstreamr/internal/metrics"
	"morphstreamr/internal/storage"
)

// New constructs a fault-tolerance mechanism of the given kind against a
// device and byte accounting. It panics on an unknown kind.
func New(kind ftapi.Kind, dev storage.Device, bytes *metrics.Bytes, opts msr.Options) ftapi.Mechanism {
	switch kind {
	case ftapi.NAT:
		return nativeMech{}
	case ftapi.CKPT:
		return checkpoint.New()
	case ftapi.WAL:
		return wal.New(dev, bytes)
	case ftapi.DL:
		return depgraph.New(dev, bytes)
	case ftapi.LV:
		return lsnvector.New(dev, bytes)
	case ftapi.MSR:
		return msr.New(dev, bytes, opts)
	default:
		panic(fmt.Sprintf("ft: unknown fault-tolerance kind %v", kind))
	}
}

// nativeMech is the no-op mechanism behind NAT.
type nativeMech struct{}

func (nativeMech) Kind() ftapi.Kind             { return ftapi.NAT }
func (nativeMech) SealEpoch(*ftapi.EpochResult) {}
func (nativeMech) Commit(uint64) error          { return nil }
func (nativeMech) GC(uint64)                    {}
func (nativeMech) Recover(*ftapi.RecoveryContext) (uint64, error) {
	return 0, fmt.Errorf("native execution has no recovery")
}
