package ft

import (
	"testing"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/msr"
	"morphstreamr/internal/metrics"
	"morphstreamr/internal/storage"
)

func TestNewMechanismKinds(t *testing.T) {
	dev := storage.NewMem()
	bytes := metrics.NewBytes()
	for _, kind := range ftapi.Kinds() {
		m := New(kind, dev, bytes, msr.Default())
		if m.Kind() != kind {
			t.Errorf("New(%v).Kind() = %v", kind, m.Kind())
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown kind must panic")
		}
	}()
	New(ftapi.Kind(99), dev, bytes, msr.Default())
}
