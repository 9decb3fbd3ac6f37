package engine

import (
	"errors"
	"fmt"
	"testing"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/scheduler"
	"morphstreamr/internal/storage"
)

// TestClassifyWrappedChains (satellite: error-identity plumbing): the
// incident taxonomy must see through arbitrary fmt.Errorf %w nesting — the
// layers between a device fault and the group's heal (mechanism, engine,
// shard coordinator) all annotate errors, and a single %v anywhere in that
// chain silently turns every cause into "io-fatal".
func TestClassifyWrappedChains(t *testing.T) {
	deep := func(err error) error {
		return fmt.Errorf("engine: epoch 7: %w", fmt.Errorf("seal: %w", err))
	}
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"poisoned direct", ftapi.ErrPoisoned, "poisoned"},
		{"poisoned nested", deep(fmt.Errorf("commit: %w: %w", ftapi.ErrPoisoned, errors.New("disk gone"))), "poisoned"},
		{"panic nested", deep(fmt.Errorf("worker 3: %w: boom", scheduler.ErrOpPanic)), "panic"},
		{"plain fatal", deep(errors.New("device unplugged")), "io-fatal"},
		{"injected device fault", deep(fmt.Errorf("commit: %w", storage.ErrInjected)), "io-fatal"},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("%s: Classify = %q, want %q (chain: %v)", tc.name, got, tc.want, tc.err)
		}
	}
}
