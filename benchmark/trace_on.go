//go:build !notrace

package main

import "morphstreamr/benchmark/layers"

type layerTracer struct{ *layers.Session }

func init() { newTracer = func() tracer { return layerTracer{layers.NewSession()} } }

func (t layerTracer) Report(sp *spec, seed int64, r *rig, w *window) (map[string]float64, string, error) {
	return t.Session.Report(layers.Input{
		App: r.cfg.App, Shards: sp.shards, Workers: lanes(),
		W0: w.e0.at, W1: w.e1.at,
		Coord: r.cfg.CoordDev, Epoch: r.be.Epoch(), Group: r.be.Group(),
		Ring:     sp.ring(seed, 0),
		AckP50Ms: quantile(w.latMs, 0.5),
	})
}

func (t layerTracer) WriteTrace(path string) error { return t.T.WriteChrome(path) }
