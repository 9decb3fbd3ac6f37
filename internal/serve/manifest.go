package serve

import (
	"fmt"
	"slices"
	"sort"

	"morphstreamr/internal/codec"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
)

// The ingest manifest is the serving layer's write-ahead record of what it
// fed the group: one record per fed epoch on the coordinator device,
// appended *before* the epoch is fed, carrying every batch's identity
// (tenant, batch sequence, assigned global sequence range) plus the full
// event payload. It closes the two gaps the engine logs leave open:
//
//   - exactly-once across restarts: a cold-started server recovers every
//     tenant's acked high-watermark from the manifest (a batch is durable
//     iff its epoch is at or below the recovered frontier, and admission's
//     contiguity rule makes "highest seen" equal "contiguous prefix"), so a
//     reconnecting client's re-sent batches are deduplicated, never re-fed;
//   - group recovery's Source contract: shard engines keep no input log, so
//     GroupRecover and Group.Heal rebuild every epoch they replay above the
//     replay horizon from the *global pre-routing batch*. The manifest
//     record is exactly that batch: it is the served path's only input log.
//
// GC runs blob-then-release: the tenant watermarks and the next global
// sequence are checkpointed into BlobIngest, then the log's segments are
// reclaimed below the committed frontier and the replay horizon through
// storage.Release. A crash between the two steps only leaves extra log
// records, which recovery tolerates — as does the segment store's
// conservative retention of a straddling segment.
const (
	// LogIngest is the per-epoch manifest log on the coordinator device.
	LogIngest = "ingest"
	// BlobIngest is the watermark checkpoint blob on the coordinator device.
	BlobIngest = "ingest.wm"

	// Both durable shapes ride the shared storage.Manifest codec; the kinds
	// keep an ingest record from ever being misread as a watermark blob (or
	// either as another layer's metadata).
	manifestKindIngest   = "ingest"
	manifestKindIngestWM = "ingest-wm"
	fieldNextSeq         = "next_seq"
)

// ManifestEntry identifies one batch inside a fed epoch.
type ManifestEntry struct {
	Tenant   string
	BatchSeq uint64
	// FirstSeq is the first assigned global event sequence; the batch
	// covers [FirstSeq, FirstSeq+Events).
	FirstSeq uint64
	Events   uint64
}

// encodeIngestRecord encodes one fed epoch's manifest entries plus the full
// (seq-assigned, pre-routing) event batch: a storage.Manifest with one
// entry per batch (named by tenant, values [batchSeq, firstSeq, events])
// and the encoded event batch as the opaque payload.
func encodeIngestRecord(entries []ManifestEntry, events []types.Event) []byte {
	return (&ingestEncoder{entries: entries}).encode(events)
}

// ingestEncoder is encodeIngestRecord over buffers it keeps: the pump fills
// entries with the epoch's batches and encodes one record per fed epoch.
// The device copies the record on Append, so the record, its event payload
// and its entries' value vectors are all reused the next epoch.
type ingestEncoder struct {
	entries []ManifestEntry
	m       []storage.ManifestEntry
	vals    []uint64
	payload codec.Buffer
	rec     []byte
}

func (e *ingestEncoder) encode(events []types.Event) []byte {
	e.payload.Reset()
	codec.EncodeEventsInto(&e.payload, events)
	e.m, e.vals = e.m[:0], slices.Grow(e.vals[:0], 3*len(e.entries))
	for _, en := range e.entries {
		e.vals = append(e.vals, en.BatchSeq, en.FirstSeq, en.Events)
		e.m = append(e.m, storage.ManifestEntry{Name: en.Tenant, Vals: e.vals[len(e.vals)-3:]})
	}
	m := storage.Manifest{Kind: manifestKindIngest, Entries: e.m, Payload: e.payload.Bytes()}
	e.rec = m.AppendTo(e.rec[:0])
	return e.rec
}

// decodeIngestRecord decodes one manifest record.
func decodeIngestRecord(b []byte) ([]ManifestEntry, []types.Event, error) {
	m, err := storage.DecodeManifestKind(b, manifestKindIngest)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: ingest record: %v", ErrBadFrame, err)
	}
	entries := make([]ManifestEntry, 0, len(m.Entries))
	for _, e := range m.Entries {
		if len(e.Name) > MaxTenantName || len(e.Vals) != 3 {
			return nil, nil, fmt.Errorf("%w: ingest record entry", ErrBadFrame)
		}
		entries = append(entries, ManifestEntry{
			Tenant: e.Name, BatchSeq: e.Vals[0], FirstSeq: e.Vals[1], Events: e.Vals[2],
		})
	}
	events, err := codec.DecodeEvents(m.Payload)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: ingest record events: %v", ErrBadFrame, err)
	}
	return entries, events, nil
}

// encodeWatermarks encodes the GC checkpoint blob: per-tenant acked
// high-watermarks (one manifest entry each, in canonical order so the blob
// stays deterministic for byte-level tests) plus the next global event
// sequence as a named field.
func encodeWatermarks(wm map[string]uint64, nextSeq uint64) []byte {
	m := storage.Manifest{Kind: manifestKindIngestWM}
	m.SetField(fieldNextSeq, nextSeq)
	names := make([]string, 0, len(wm))
	for name := range wm {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m.Entries = append(m.Entries, storage.ManifestEntry{Name: name, Vals: []uint64{wm[name]}})
	}
	return m.Encode()
}

// decodeWatermarks decodes the GC checkpoint blob.
func decodeWatermarks(b []byte) (map[string]uint64, uint64, error) {
	m, err := storage.DecodeManifestKind(b, manifestKindIngestWM)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: watermark blob: %v", ErrBadFrame, err)
	}
	wm := make(map[string]uint64, len(m.Entries))
	for _, e := range m.Entries {
		if len(e.Name) > MaxTenantName || len(e.Vals) != 1 {
			return nil, 0, fmt.Errorf("%w: watermark blob tenant", ErrBadFrame)
		}
		wm[e.Name] = e.Vals[0]
	}
	return wm, m.Field(fieldNextSeq), nil
}

// IngestState is what a restarted server recovers from the manifest.
type IngestState struct {
	// Watermarks maps tenant name to the highest batch sequence that is
	// durably committed (and therefore acked or ackable). Admission's
	// contiguity rule makes this a contiguous prefix per tenant.
	Watermarks map[string]uint64
	// NextSeq is the lowest safe global event sequence: past every
	// assignment any manifest record ever made, durable or torn.
	NextSeq uint64
	// Epochs maps every fed epoch still in the log to its global
	// pre-routing batch (a recovery reads them through manifestSource).
	Epochs map[uint64][]types.Event
}

// RecoverIngest rebuilds the ingest state from the coordinator device.
// durable is the group's recovered punctuation frontier: a batch counts
// toward a tenant watermark iff its epoch is at or below it (epochs beyond
// the frontier never survived the crash, so their batches must be re-sent
// and re-fed). A torn final record — the manifest append that died mid-
// write — is tolerated and ignored, like the engine's torn input tails.
func RecoverIngest(dev storage.Device, durable uint64) (IngestState, error) {
	st := IngestState{
		Watermarks: map[string]uint64{},
		NextSeq:    1,
		Epochs:     map[uint64][]types.Event{},
	}
	if blob, ok, err := dev.ReadBlob(BlobIngest); err != nil {
		return st, fmt.Errorf("serve: read %s: %w", BlobIngest, err)
	} else if ok {
		wm, nextSeq, err := decodeWatermarks(blob)
		if err != nil {
			return st, fmt.Errorf("serve: %s: %w", BlobIngest, err)
		}
		st.Watermarks = wm
		if nextSeq > st.NextSeq {
			st.NextSeq = nextSeq
		}
	}
	cur, err := storage.ReadFrom(dev, LogIngest, 0)
	if err != nil {
		return st, fmt.Errorf("serve: read %s: %w", LogIngest, err)
	}
	recs, err := storage.ReadAll(cur)
	if err != nil {
		return st, fmt.Errorf("serve: read %s: %w", LogIngest, err)
	}
	// Latest record wins per epoch: an incarnation that died between the
	// manifest append and the feed leaves a record for an epoch it never
	// processed, and its successor re-appends that epoch number with
	// whatever it actually feeds there. Only the authoritative (last)
	// record's batches may count toward watermarks — a superseded batch was
	// never fed, and acking it would punch a hole in the tenant's stream.
	// NextSeq, by contrast, folds every record including superseded ones:
	// skipping sequence numbers is always safe, reusing them never is.
	// A record that fails to decode is a torn tail only when it is the last.
	latest := map[uint64][]ManifestEntry{}
	for i, rec := range recs {
		entries, events, err := decodeIngestRecord(rec.Payload)
		if err != nil && i == len(recs)-1 {
			break // torn tail: the append this record belongs to died
		} else if err != nil {
			return st, fmt.Errorf("serve: %s epoch %d: %w", LogIngest, rec.Epoch, err)
		}
		st.Epochs[rec.Epoch] = events
		latest[rec.Epoch] = entries
		for _, e := range entries {
			if end := e.FirstSeq + e.Events; end > st.NextSeq {
				st.NextSeq = end
			}
		}
	}
	for ep, entries := range latest {
		if ep > durable {
			continue // never survived the crash: must be re-sent and re-fed
		}
		for _, e := range entries {
			if e.BatchSeq > st.Watermarks[e.Tenant] {
				st.Watermarks[e.Tenant] = e.BatchSeq
			}
		}
	}
	return st, nil
}

// manifestSource is a group-recovery Source over the coordinator device's
// manifest. The first epoch asked for starts one cursor pass from it to the
// log's end (an epoch's latest record wins: a re-fed epoch is appended
// again), and only the epochs asked for are decoded. GC keeps every epoch
// from the replay horizon on, the only ones a recovery asks for.
func manifestSource(dev storage.Device) types.Source {
	var raw map[uint64][]byte
	return func(ep uint64) ([]types.Event, bool) {
		if raw == nil {
			raw = map[uint64][]byte{}
			if cur, err := storage.ReadFrom(dev, LogIngest, max(ep, 1)-1); err == nil {
				recs, _ := storage.ReadAll(cur)
				for _, rec := range recs {
					raw[rec.Epoch] = rec.Payload
				}
			}
		}
		payload, ok := raw[ep]
		if !ok {
			return nil, false
		}
		_, events, err := decodeIngestRecord(payload)
		return events, err == nil
	}
}
