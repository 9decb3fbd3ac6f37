package storage

import (
	"strings"
	"testing"
)

func TestStackCanonicalOrderBuilds(t *testing.T) {
	st := NewStack(NewMem()).
		WithTrace().
		WithFlaky().
		WithCompression().
		WithSSD().
		WithRetry(RetryPolicy{})
	dev, err := st.Build()
	if err != nil {
		t.Fatalf("canonical order rejected: %v", err)
	}
	if dev == nil {
		t.Fatal("nil device from Build")
	}
	if st.Trace == nil || st.Flaky == nil || st.Retrying == nil {
		t.Fatalf("handles not published: trace=%v flaky=%v retrying=%v",
			st.Trace, st.Flaky, st.Retrying)
	}
	// The assembled stack must behave as a device end to end.
	if err := dev.Append(LogInput, Record{Epoch: 1, Payload: []byte("hello")}); err != nil {
		t.Fatalf("append through full stack: %v", err)
	}
	recs, err := dev.ReadLog(LogInput)
	if err != nil || len(recs) != 1 || string(recs[0].Payload) != "hello" {
		t.Fatalf("read back through full stack: recs=%v err=%v", recs, err)
	}
	if got := len(st.Trace.Sites()); got != 1 {
		t.Fatalf("trace saw %d sites, want 1", got)
	}
}

func TestStackRejectsIllegalOrder(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Stack
	}{
		{"retry below throttle", func() *Stack {
			return NewStack(NewMem()).WithRetry(RetryPolicy{}).WithSSD()
		}},
		{"compression above throttle", func() *Stack {
			return NewStack(NewMem()).WithSSD().WithCompression()
		}},
		{"injector above compression", func() *Stack {
			return NewStack(NewMem()).WithCompression().WithFlaky()
		}},
		{"trace above injector", func() *Stack {
			return NewStack(NewMem()).WithFaulty(3, FailStop, "").WithTrace()
		}},
		{"duplicate injector", func() *Stack {
			return NewStack(NewMem()).WithFlaky().WithFaulty(1, FailStop, "")
		}},
		{"duplicate retry", func() *Stack {
			return NewStack(NewMem()).WithRetry(RetryPolicy{}).WithRetry(RetryPolicy{})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.build().Build(); err == nil {
				t.Fatal("illegal wrapper order accepted")
			} else if !strings.Contains(err.Error(), "illegal wrapper order") {
				t.Fatalf("unexpected error text: %v", err)
			}
		})
	}
}

func TestStackFirstErrorWins(t *testing.T) {
	// Once the order is violated, later (legal-looking) layers must not
	// mask the error.
	st := NewStack(NewMem()).WithSSD().WithCompression().WithRetry(RetryPolicy{})
	if _, err := st.Build(); err == nil || !strings.Contains(err.Error(), "Compressed must wrap") {
		t.Fatalf("want the first ordering error, got %v", err)
	}
}

func TestStackSkipsAlreadyWrappedBase(t *testing.T) {
	// A base device that is already compressed (a caller handed core.New a
	// pre-built device) must not be double-wrapped.
	pre := NewCompressed(NewMem())
	dev, err := NewStack(pre).WithCompression().Build()
	if err != nil {
		t.Fatalf("re-compressing guard errored: %v", err)
	}
	if dev != Device(pre) {
		t.Fatalf("already-compressed base was re-wrapped: %T", dev)
	}

	ssd := DefaultSSD(NewMem())
	dev, err = NewStack(ssd).WithSSD().Build()
	if err != nil {
		t.Fatalf("re-throttling guard errored: %v", err)
	}
	if dev != Device(ssd) {
		t.Fatalf("already-throttled base was re-wrapped: %T", dev)
	}
}
