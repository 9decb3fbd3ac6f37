package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// ErrBadManifest tags every Manifest decode failure.
var ErrBadManifest = errors.New("storage: bad manifest")

// manifestMagic opens every encoded manifest; manifestVersion is bumped on
// incompatible layout changes (decoders reject unknown versions instead of
// misparsing).
const (
	manifestMagic   = "MSM1"
	manifestVersion = 1
	// maxManifestName caps decoded name lengths, bounding allocation
	// against corrupt or fuzzed inputs.
	maxManifestName = 256
)

// Manifest is the one versioned, self-describing codec for recovery
// metadata. It replaces the hand-rolled encodings that every layer grew
// separately — the engine's delivery watermark (BlobMeta), the serving
// layer's ingest watermark blob and ingest-record header — so every
// incarnation reads one format with one fuzzed decoder.
//
// Kind names the producing layer ("delivery", "ingest-wm", "ingest", ...);
// decoders check it, so a blob written by one layer can never be misread
// by another. Fields carry named scalars, Entries carry named vectors
// (e.g. one entry per tenant), and Payload carries an opaque trailing body
// whose format belongs to the producer (e.g. the encoded event batch of an
// ingest record).
type Manifest struct {
	Kind    string
	Epoch   uint64
	Fields  map[string]uint64
	Entries []ManifestEntry
	Payload []byte
}

// ManifestEntry is one named vector of a Manifest.
type ManifestEntry struct {
	Name string
	Vals []uint64
}

// Field returns the named scalar (zero when absent).
func (m *Manifest) Field(name string) uint64 { return m.Fields[name] }

// SetField sets a named scalar, allocating the map on first use.
func (m *Manifest) SetField(name string, v uint64) {
	if m.Fields == nil {
		m.Fields = make(map[string]uint64)
	}
	m.Fields[name] = v
}

// Encode serialises the manifest into a buffer sized for it.
func (m *Manifest) Encode() []byte { return m.AppendTo(make([]byte, 0, m.maxSize())) }

// maxSize bounds the encoded size from above, every varint at full width.
func (m *Manifest) maxSize() int {
	n := len(manifestMagic) + 6*binary.MaxVarintLen64 + len(m.Kind) + len(m.Payload)
	for name := range m.Fields {
		n += len(name) + 2*binary.MaxVarintLen64
	}
	for _, e := range m.Entries {
		n += len(e.Name) + (2+len(e.Vals))*binary.MaxVarintLen64
	}
	return n
}

// AppendTo appends the manifest's encoding to dst and returns the extended
// slice, so a hot caller can encode into a buffer it reuses. Field names
// are sorted so the encoding is deterministic — byte-level pinning tests
// rely on it.
func (m *Manifest) AppendTo(b []byte) []byte {
	b = append(b, manifestMagic...)
	b = binary.AppendUvarint(b, manifestVersion)
	b = appendName(b, m.Kind)
	b = binary.AppendUvarint(b, m.Epoch)
	names := make([]string, 0, len(m.Fields))
	for name := range m.Fields {
		names = append(names, name)
	}
	sort.Strings(names)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		b = appendName(b, name)
		b = binary.AppendUvarint(b, m.Fields[name])
	}
	b = binary.AppendUvarint(b, uint64(len(m.Entries)))
	for _, e := range m.Entries {
		b = appendName(b, e.Name)
		b = binary.AppendUvarint(b, uint64(len(e.Vals)))
		for _, v := range e.Vals {
			b = binary.AppendUvarint(b, v)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(m.Payload)))
	b = append(b, m.Payload...)
	return b
}

func appendName(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// DecodeManifest parses an encoded manifest, validating every count
// against the remaining input before allocating.
func DecodeManifest(b []byte) (*Manifest, error) {
	if len(b) < len(manifestMagic) || string(b[:len(manifestMagic)]) != manifestMagic {
		return nil, fmt.Errorf("%w: magic", ErrBadManifest)
	}
	d := manifestReader{b: b[len(manifestMagic):]}
	if v := d.uvarint(); d.err == nil && v != manifestVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadManifest, v)
	}
	m := &Manifest{}
	m.Kind = d.name()
	m.Epoch = d.uvarint()
	nf := d.uvarint()
	if d.err == nil && nf > uint64(len(d.b)-d.off) {
		return nil, fmt.Errorf("%w: field count %d", ErrBadManifest, nf)
	}
	for i := uint64(0); i < nf && d.err == nil; i++ {
		name := d.name()
		v := d.uvarint()
		if d.err == nil {
			m.SetField(name, v)
		}
	}
	ne := d.uvarint()
	if d.err == nil && ne > uint64(len(d.b)-d.off) {
		return nil, fmt.Errorf("%w: entry count %d", ErrBadManifest, ne)
	}
	for i := uint64(0); i < ne && d.err == nil; i++ {
		e := ManifestEntry{Name: d.name()}
		nv := d.uvarint()
		if d.err == nil && nv > uint64(len(d.b)-d.off) {
			return nil, fmt.Errorf("%w: value count %d", ErrBadManifest, nv)
		}
		for j := uint64(0); j < nv && d.err == nil; j++ {
			e.Vals = append(e.Vals, d.uvarint())
		}
		if d.err == nil {
			m.Entries = append(m.Entries, e)
		}
	}
	np := d.uvarint()
	if d.err == nil && np > uint64(len(d.b)-d.off) {
		return nil, fmt.Errorf("%w: payload length %d", ErrBadManifest, np)
	}
	if d.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadManifest, d.err)
	}
	if np > 0 {
		m.Payload = append([]byte(nil), d.b[d.off:d.off+int(np)]...)
		d.off += int(np)
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadManifest, len(d.b)-d.off)
	}
	return m, nil
}

// DecodeManifestKind decodes and checks the manifest's kind in one step —
// the usual consumer call.
func DecodeManifestKind(b []byte, kind string) (*Manifest, error) {
	m, err := DecodeManifest(b)
	if err != nil {
		return nil, err
	}
	if m.Kind != kind {
		return nil, fmt.Errorf("%w: kind %q, want %q", ErrBadManifest, m.Kind, kind)
	}
	return m, nil
}

type manifestReader struct {
	b   []byte
	off int
	err error
}

func (d *manifestReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("uvarint at %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *manifestReader) name() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > maxManifestName || n > uint64(len(d.b)-d.off) {
		d.err = fmt.Errorf("name length %d at %d", n, d.off)
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}
