package engine

import (
	"errors"
	"reflect"
	"testing"

	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/ft/msr"
	"morphstreamr/internal/metrics"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// drawBatches pre-generates one run's epoch batches from a fresh seed.
func drawBatches(seed int64, epochs, size int) [][]types.Event {
	gen := slGen(seed)
	batches := make([][]types.Event, epochs)
	for i := range batches {
		batches[i] = workload.Batch(gen, size)
	}
	return batches
}

// pipelineEngine assembles an engine over a tracing device with the
// Pipeline flag set as requested, releasing into the returned ledger.
func pipelineEngine(t *testing.T, kind ftapi.Kind, pipeline bool) (*Engine, *storage.Trace, *Ledger) {
	t.Helper()
	trace, out := storage.NewTrace(storage.NewMem()), &Ledger{}
	e := newEngine(t, kind, slGen(0), trace, 2, 4)
	e.cfg.Pipeline, e.cfg.Sink = pipeline, out.Sink
	return e, trace, out
}

// TestPipelineEquivalence: a pipelined run is observably identical to the
// sequential run — same store, same delivered outputs in the same order,
// same pending counts, and the exact same durable write sequence.
func TestPipelineEquivalence(t *testing.T) {
	for _, kind := range []ftapi.Kind{ftapi.WAL, ftapi.MSR, ftapi.CKPT} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			const epochs, size = 10, 96 // crosses commit and snapshot markers
			batches := drawBatches(11, epochs, size)

			seq, seqTrace, seqOut := pipelineEngine(t, kind, false)
			if err := seq.ProcessEpochs(batches); err != nil {
				t.Fatalf("sequential run: %v", err)
			}
			pip, pipTrace, pipOut := pipelineEngine(t, kind, true)
			if err := pip.ProcessEpochs(batches); err != nil {
				t.Fatalf("pipelined run: %v", err)
			}

			if seq.Epoch() != pip.Epoch() {
				t.Fatalf("epoch: sequential %d, pipelined %d", seq.Epoch(), pip.Epoch())
			}
			if !seq.Store().Equal(pip.Store()) {
				t.Fatalf("stores diverge: %v", seq.Store().Diff(pip.Store(), 5))
			}
			if !reflect.DeepEqual(seqOut, pipOut) {
				t.Fatalf("released outputs diverge: %d vs %d outputs",
					len(seqOut.Outputs), len(pipOut.Outputs))
			}
			if seq.PendingOutputs() != pip.PendingOutputs() {
				t.Fatalf("pending outputs: sequential %d, pipelined %d",
					seq.PendingOutputs(), pip.PendingOutputs())
			}
			// The recovery invariants lean on the durable write sequence
			// being schedule-independent; compare it site by site (order,
			// kind, log, epoch, and payload size all must match).
			if !reflect.DeepEqual(seqTrace.Sites(), pipTrace.Sites()) {
				t.Fatalf("durable write sequences diverge:\nseq: %v\npip: %v",
					seqTrace.Sites(), pipTrace.Sites())
			}
		})
	}
}

// TestPipelineRecoveryEquivalence: crash after a pipelined run and recover;
// the result must match recovery from the sequential run's device.
func TestPipelineRecoveryEquivalence(t *testing.T) {
	const epochs, size = 7, 80 // ends between markers: uncommitted tail
	batches := drawBatches(23, epochs, size)

	recovered := make(map[bool]*Engine)
	for _, pipeline := range []bool{false, true} {
		e, trace, _ := pipelineEngine(t, ftapi.MSR, pipeline)
		if err := e.ProcessEpochs(batches); err != nil {
			t.Fatalf("pipeline=%v: %v", pipeline, err)
		}
		e.Crash()
		cfg := e.cfg
		cfg.Device = trace.Inner
		cfg.Bytes = metrics.NewBytes()
		cfg.Mechanism = msr.New(trace.Inner, cfg.Bytes, msr.Default())
		e2, _, err := Recover(cfg)
		if err != nil {
			t.Fatalf("pipeline=%v: recover: %v", pipeline, err)
		}
		recovered[pipeline] = e2
	}
	if !recovered[false].Store().Equal(recovered[true].Store()) {
		t.Fatalf("recovered stores diverge: %v",
			recovered[false].Store().Diff(recovered[true].Store(), 5))
	}
	if recovered[false].Epoch() != recovered[true].Epoch() {
		t.Fatalf("recovered epochs diverge: %d vs %d",
			recovered[false].Epoch(), recovered[true].Epoch())
	}
}

// TestPipelineCrashSurfacesOnce: a device failure mid-run surfaces exactly
// one error from ProcessEpochs, marks the engine crashed, and joins the
// builder goroutine (the -race runner would flag a leaked builder touching
// the recycler).
func TestPipelineCrashSurfacesOnce(t *testing.T) {
	const epochs, size = 8, 64
	batches := drawBatches(31, epochs, size)
	// Die on the 5th durable write: mid-run, after at least one commit.
	dev := storage.NewFaultyMode(storage.NewMem(), 4, storage.FailStop, "")
	e := newEngine(t, ftapi.WAL, slGen(0), dev, 2, 4)
	e.cfg.Pipeline = true

	err := e.ProcessEpochs(batches)
	if err == nil {
		t.Fatal("faulty device never surfaced an error")
	}
	if errors.Is(err, ErrCrashed) {
		t.Fatal("first error must be the device failure, not ErrCrashed")
	}
	if !errors.Is(e.ProcessEpoch(batches[0]), ErrCrashed) {
		t.Fatal("engine not marked crashed after pipelined failure")
	}
	if !errors.Is(e.ProcessEpochs(batches), ErrCrashed) {
		t.Fatal("ProcessEpochs on a crashed engine must return ErrCrashed")
	}
}
