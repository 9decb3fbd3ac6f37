package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// Point is one commit's folded benchmark summary. Its header is the host
// the folded reports were measured on (taken from the first report
// present) keyed by the commit the fold ran for.
type Point struct {
	Host
	UnixTime int64 `json:"unix_time"`
	// Sources maps a report's name (BENCH_<name>.json) to its suite's
	// summary. Reports absent at fold time are absent here.
	Sources map[string]map[string]any `json:"sources"`
}

// Trend is the BENCH_trend.json layout.
type Trend struct {
	Note   string  `json:"note"`
	Points []Point `json:"points"`
}

const (
	trendFile = "BENCH_trend.json"
	trendNote = "One point per commit: compact summaries folded from the full benchmark " +
		"reports by cmd/bench trend. Re-running on the same commit replaces its point. " +
		"Points are ordered oldest-first by fold time; the full BENCH_*.json reports " +
		"remain the source of truth for any number here."
)

// foldPoint summarizes whichever suite reports exist in dir. A report that
// exists but does not decode is an error, a missing one is skipped.
func foldPoint(env *Env, dir string) (Point, error) {
	pt := Point{Sources: map[string]map[string]any{}}
	for _, s := range suites {
		m := s.spec()
		host, summary, err := s.fold(dir)
		if errors.Is(err, os.ErrNotExist) {
			env.logf("trend: %s not found in %s, skipping\n", m.File, dir)
			continue
		}
		if err != nil {
			return pt, err
		}
		if len(pt.Sources) == 0 {
			pt.Host = host
		} else if host.GOMAXPROCS != pt.GOMAXPROCS || host.Size != pt.Size {
			env.logf("trend: WARNING: %s was measured at gomaxprocs %d size %q, the point's header says %d %q\n",
				m.File, host.GOMAXPROCS, host.Size, pt.GOMAXPROCS, pt.Size)
		}
		pt.Sources[strings.TrimSuffix(strings.TrimPrefix(m.File, "BENCH_"), ".json")] = summary
	}
	if len(pt.Sources) == 0 {
		return pt, fmt.Errorf("no benchmark reports found in %s; nothing to fold", dir)
	}
	return pt, nil
}

// foldTrend appends this commit's point to the trend file beside the
// reports, replacing the point already keyed by the same commit.
func foldTrend(env *Env) error {
	pt, err := foldPoint(env, env.OutDir)
	if err != nil {
		return err
	}
	pt.SHA = env.SHA
	pt.UnixTime = time.Now().Unix()

	path := filepath.Join(env.OutDir, trendFile)
	var trend Trend
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &trend); err != nil {
			return fmt.Errorf("%s exists but is not a trend file: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	trend.Note = trendNote

	verb := "appended to"
	if i := slices.IndexFunc(trend.Points, func(p Point) bool { return p.SHA == pt.SHA }); i >= 0 {
		trend.Points[i] = pt
		verb = "replaced in"
	} else {
		trend.Points = append(trend.Points, pt)
	}
	if err := writeJSON(path, &trend); err != nil {
		return err
	}
	env.logf("trend: point %s (%d sources) %s %s (%d points)\n",
		pt.SHA, len(pt.Sources), verb, path, len(trend.Points))
	return nil
}
