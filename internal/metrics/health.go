package metrics

import (
	"sync"
	"time"
)

// Incident records one failure the shard group healed (or failed to heal)
// and how long the heal took: MTTR is detection to resumed live processing
// — the end-to-end healing time that fault-recovery benchmarking measures
// on top of the paper's replay speed.
type Incident struct {
	// Cause classifies the failure (engine.Classify): "io-fatal" (any
	// device error, including one of a write storm the medium survives),
	// "poisoned", or "panic". A retried heal is an incident of its own,
	// classifying the error the failed heal returned.
	Cause string
	// Err is the surfaced error text.
	Err string
	// DetectedAt is when the heal began: the failed epoch had returned.
	DetectedAt time.Time
	// MTTR is DetectedAt to recovery completed and the group live again.
	MTTR time.Duration
	// RecoveredEpoch is the group epoch the heal resumed from: every epoch
	// above it is fed again. Zero when healing failed.
	RecoveredEpoch uint64
	// Healed reports whether the heal succeeded.
	Healed bool
}

// Health is a thread-safe incident log, kept by a shard group.
type Health struct {
	mu        sync.Mutex
	incidents []Incident
}

// NewHealth creates an empty incident log.
func NewHealth() *Health { return &Health{} }

// Record appends one incident.
func (h *Health) Record(inc Incident) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.incidents = append(h.incidents, inc)
}

// Incidents returns a snapshot of all recorded incidents in order.
func (h *Health) Incidents() []Incident {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Incident, len(h.incidents))
	copy(out, h.incidents)
	return out
}

// Healed counts incidents that recovered successfully.
func (h *Health) Healed() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, inc := range h.incidents {
		if inc.Healed {
			n++
		}
	}
	return n
}

// MeanMTTR averages MTTR over healed incidents (zero when none).
func (h *Health) MeanMTTR() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	var sum time.Duration
	n := 0
	for _, inc := range h.incidents {
		if inc.Healed {
			sum += inc.MTTR
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}
