// Package storage abstracts the durable storage that survives failures in
// the paper's failure model (Section II-C): append-only logs for input
// events and fault-tolerance records, plus named blobs for snapshots and
// recovery metadata.
//
// Three media are provided:
//
//   - Mem: an in-memory device. "Durable" within a process lifetime, which
//     is exactly what the crash model needs: Engine.Crash discards all
//     engine state but keeps the device, mimicking a machine whose SSD
//     survives a power cut.
//   - SegStore: in memory like Mem, each log a ring of fixed-size segments
//     with an epoch index, so garbage collection reclaims whole segments
//     and recovery seeks by epoch.
//   - File: a directory-backed device with the same semantics across real
//     process restarts.
//
// Wrappers are applied directly around a medium, each by its constructor:
// Trace enumerates write sites, Faulty (NewFaulty, NewFaultyMode, NewOutage)
// injects write faults, Compressed (NewCompressed) DEFLATEs payloads, and
// Throttled (DefaultSSD) models the paper's 2 GB/s, 146 kIOPS Optane SSD,
// so that I/O overhead shapes reproduce on any host. A fault injector sits
// directly on the medium (or on a Trace), so the write it counts is the
// write the medium sees.
//
// All writes are synchronously durable: when a method returns, the data
// survives a crash. Group commit above this layer batches writes to
// amortise the per-operation cost, just as the paper's engines do.
package storage

import "sort"

// Record is one appended log entry, tagged with the epoch it belongs to so
// that recovery can replay epoch by epoch and garbage collection can drop
// whole prefixes.
type Record struct {
	Epoch   uint64
	Payload []byte
}

// Device is the durable storage interface.
type Device interface {
	// Append durably appends one record to the named log.
	Append(log string, rec Record) error
	// ReadLog returns every record of the named log in append order.
	// A log that was never written reads as empty.
	ReadLog(log string) ([]Record, error)
	// WriteBlob atomically replaces the named blob.
	WriteBlob(name string, payload []byte) error
	// ReadBlob returns the named blob's content, or ok=false if absent.
	ReadBlob(name string) (payload []byte, ok bool, err error)
	// Truncate durably drops all records of the named log whose epoch is
	// <= upTo. Used for garbage collection after a checkpoint commits.
	Truncate(log string, upTo uint64) error
	// BytesWritten returns the cumulative payload bytes appended or written
	// to the device, by log/blob name. Used by the overhead studies.
	BytesWritten() map[string]int64
}

// Well-known log and blob names shared by the engine and the
// fault-tolerance mechanisms.
const (
	LogInput = "input" // persisted input events, one record per epoch
	LogFT    = "ft"    // mechanism-specific records (WAL/DL/LV/MSR views)
	LogCkpt  = "ckpt"  // incremental checkpoint deltas (dirty partitions)

	BlobSnapshot = "snapshot" // latest committed base snapshot
	BlobMeta     = "meta"     // recovery metadata (watermarks, config echo)
)

// SumBytes totals a BytesWritten map.
func SumBytes(m map[string]int64) int64 {
	var t int64
	for _, n := range m {
		t += n
	}
	return t
}

// SortedNames returns the map's keys in sorted order for stable printing.
func SortedNames(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
