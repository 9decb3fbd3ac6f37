package shard_test

import (
	"errors"
	"fmt"
	"testing"

	"morphstreamr/internal/engine"
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/shard"
)

// TestShardErrorIdentity (satellite: error-identity plumbing): a shard
// failure surfaced by the coordinator must stay matchable end to end —
// errors.As recovers the *ShardError (which shard died), and errors.Is sees
// the engine's sentinel through it, so the group's heal taxonomy and the
// serving layer's heal path both classify the real cause, not the wrapper.
func TestShardErrorIdentity(t *testing.T) {
	app, batches := gsRun(21, 4, 16)
	g, err := shard.NewGroup(shard.Config{
		GroupShape: sweepShape(2), App: app, Kind: ftapi.WAL,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ProcessEpoch(batches[0]); err != nil {
		t.Fatal(err)
	}
	g.Engine(1).Crash()
	procErr := g.ProcessEpoch(batches[1])
	if procErr == nil {
		t.Fatal("crashed shard processed an epoch")
	}
	var serr *shard.ShardError
	if !errors.As(procErr, &serr) || serr.Shard != 1 {
		t.Fatalf("want *ShardError for shard 1, got %v", procErr)
	}
	if !errors.Is(procErr, engine.ErrCrashed) {
		t.Fatalf("ShardError hides engine.ErrCrashed: %v", procErr)
	}

	// Further wrapping — what the serving layer's heal path does before
	// recording an incident — must not strip either identity.
	wrapped := fmt.Errorf("serve: heal: %w", fmt.Errorf("feed epoch 2: %w", procErr))
	if !errors.As(wrapped, &serr) || !errors.Is(wrapped, engine.ErrCrashed) {
		t.Fatalf("identity lost through wrapping: %v", wrapped)
	}
}

// TestShardErrorClassification: the incident taxonomy reads the cause
// through a ShardError the same way it reads a bare engine error.
func TestShardErrorClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"poisoned shard", &shard.ShardError{Shard: 0, Err: fmt.Errorf("wal: commit: %w: disk", ftapi.ErrPoisoned)}, "poisoned"},
		{"crashed shard", &shard.ShardError{Shard: 2, Err: engine.ErrCrashed}, "io-fatal"},
	}
	for _, tc := range cases {
		if got := engine.Classify(tc.err); got != tc.want {
			t.Errorf("%s: Classify = %q, want %q", tc.name, got, tc.want)
		}
	}
}
