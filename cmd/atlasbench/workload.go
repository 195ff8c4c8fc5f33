package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"repro"
	"repro/internal/datagen"
	"repro/internal/server"
	"repro/internal/workload"
)

// This file is atlasbench's workload harness: -replay drives a recorded
// workload file (atlasd -record-workload, or GET /api/workload) against
// a server and scores it against SLO thresholds. It replays twice — a
// sequential reference pass and the concurrent scored pass — and
// hard-fails unless every response is byte-identical across the two:
// concurrency must never change an answer, only its timing.

// replayConfig carries the -replay flag values.
type replayConfig struct {
	Target    string
	Pacing    string
	Speed     float64
	SLOStrict bool
	SLO       workload.SLO
}

// defaultSLO is the declared service objective -replay scores
// against. The latency bounds are generous on purpose — they catch
// collapse (queueing runaway, lock convoys), not noise — while the
// error and shed bounds are exact: a deterministic workload on an
// ungated server must shed and fail nothing.
func defaultSLO() workload.SLO {
	return workload.SLO{
		P50:           2 * time.Second,
		P99:           10 * time.Second,
		MaxErrRate:    0,
		MaxErrRateSet: true,
	}
}

// runReplay is the -replay mode: parse the file, replay it sequentially
// for the reference answers, replay it again with the recorded
// concurrency shape, and require byte-identity before scoring.
func runReplay(path string, cfg replayConfig) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	w, err := workload.Parse(f)
	f.Close()
	if err != nil {
		return err
	}
	target, refTarget := cfg.Target, cfg.Target
	if target == "" {
		// No live server given: serve the bundled census table in
		// process, the atlasd default shape — one server per pass, so the
		// reference pass does not warm the scored one's result cache.
		tbl := datagen.Census(100_000, 1)
		var stop func()
		target, stop = serveInProcess(tbl, atlas.DefaultOptions())
		defer stop()
		refTarget, stop = serveInProcess(tbl, atlas.DefaultOptions())
		defer stop()
		fmt.Printf("replay: no -target, serving census (100000 rows) in process\n")
	}
	fmt.Printf("replay: %s — %d entries, %d sessions, table %q\n",
		path, len(w.Entries), len(w.Sessions()), w.Header.Table)
	score, err := replayScored(w, refTarget, target, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("replay: %d requests in %v — p50 %v, p99 %v, %.1f qps (%.2f qps/core), %d errors, %d shed, %d 4xx\n",
		score.Requests, score.Wall.Round(time.Millisecond), score.P50.Round(time.Millisecond),
		score.P99.Round(time.Millisecond), score.QPS, score.QPSPerCore, score.Errors, score.Shed, score.Client4xx)
	if !score.Pass {
		if cfg.SLOStrict {
			return fmt.Errorf("SLO violated: %v", score.Violations)
		}
		fmt.Printf("warning: SLO violated (rerun with -slo-strict to fail): %v\n", score.Violations)
		return nil
	}
	fmt.Printf("replay: SLO: pass (p50<=%v p99<=%v err-rate<=%g)\n", cfg.SLO.P50, cfg.SLO.P99, cfg.SLO.MaxErrRate)
	return nil
}

// serveInProcess starts a fresh server over tbl and returns its URL and
// its stop function.
func serveInProcess(tbl *atlas.Table, opts atlas.Options) (string, func()) {
	ts := httptest.NewServer(server.New(tbl, opts).Handler())
	return ts.URL, ts.Close
}

// replayScored runs the sequential reference pass against refTarget and
// the scored pass against target (the same live server, or two fresh
// in-process ones over the same table), hard-fails on any byte drift
// between them, and returns the scored pass's SLO scorecard.
func replayScored(w *workload.Workload, refTarget, target string, cfg replayConfig) (*workload.Score, error) {
	ctx := context.Background()
	ref, err := workload.Replay(ctx, w, workload.ReplayOptions{Target: refTarget, Sequential: true})
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	pacing := workload.ClosedLoop
	if cfg.Pacing == string(workload.OpenLoop) {
		pacing = workload.OpenLoop
	}
	got, err := workload.Replay(ctx, w, workload.ReplayOptions{Target: target, Pacing: pacing, Speed: cfg.Speed})
	if err != nil {
		return nil, fmt.Errorf("replay pass: %w", err)
	}
	if err := workload.VerifyIdentical(w, ref, got); err != nil {
		return nil, fmt.Errorf("replay drifted from the sequential reference: %w", err)
	}
	fmt.Printf("replay: %s pass byte-identical to the sequential reference\n", pacing)
	return workload.ScoreReplay(got, cfg.SLO, runtime.NumCPU()), nil
}
