package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/server"
	"repro/internal/workload"
)

// This file is atlasbench's workload harness: -replay drives a recorded
// workload file (atlasd -record-workload, or GET /api/workload) against
// a live server and scores it against SLO thresholds, and -workloadjson
// runs the synthetic 32-session zipf scenario end to end and writes
// BENCH_10.json. Both modes replay twice — a sequential reference pass
// and the concurrent scored pass — and hard-fail unless every response
// is byte-identical across the two: concurrency must never change an
// answer, only its timing.

// replayConfig carries the -replay / -workloadjson flag values.
type replayConfig struct {
	Target    string
	Pacing    string
	Speed     float64
	SLOStrict bool
	SLO       workload.SLO
}

// defaultSLO is the declared service objective both modes score
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
	printScore(score)
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

func printScore(sc *workload.Score) {
	fmt.Printf("replay: %d requests in %v — p50 %v, p99 %v, %.1f qps (%.2f qps/core), %d errors, %d shed, %d 4xx\n",
		sc.Requests, sc.Wall.Round(time.Millisecond), sc.P50.Round(time.Millisecond),
		sc.P99.Round(time.Millisecond), sc.QPS, sc.QPSPerCore, sc.Errors, sc.Shed, sc.Client4xx)
}

// scoreMetrics flattens a scorecard into a benchRecord metrics map.
func scoreMetrics(sc *workload.Score) map[string]float64 {
	pass := 0.0
	if sc.Pass {
		pass = 1
	}
	return map[string]float64{
		"requests":     float64(sc.Requests),
		"completed":    float64(sc.Completed),
		"errors":       float64(sc.Errors),
		"shed":         float64(sc.Shed),
		"client_4xx":   float64(sc.Client4xx),
		"p50_ms":       float64(sc.P50.Nanoseconds()) / 1e6,
		"p99_ms":       float64(sc.P99.Nanoseconds()) / 1e6,
		"wall_ms":      float64(sc.Wall.Nanoseconds()) / 1e6,
		"qps":          sc.QPS,
		"qps_per_core": sc.QPSPerCore,
		"err_rate":     sc.ErrRate,
		"shed_rate":    sc.ShedRate,
		"slo_pass":     pass,
		"cores":        float64(runtime.NumCPU()),
	}
}

// writeWorkloadJSON is the -workloadjson mode: a 32-session zipf mix of
// census explores and drill-downs, generated deterministically, replayed
// closed-loop and open-loop against an in-process server. Each pass must
// be byte-identical to its sequential reference; SLO violations warn at
// -quick scale and fail the run at full scale.
func writeWorkloadJSON(path string, quick bool) error {
	n := 300_000
	opsPerSession := 16
	if quick {
		n = 60_000
		opsPerSession = 6
	}
	const sessions = 32
	tbl := datagen.Census(n, 1)
	opts := core.DefaultOptions()
	opts.Parallelism = 2
	// The sequential reference answers come from a server of their own;
	// each scored pass below starts on a fresh one, its caches cold.
	refTarget, stopRef := serveInProcess(tbl, opts)
	defer stopRef()

	spec := workload.GenSpec{
		Table:    "census",
		Sessions: sessions,
		Explores: []string{
			"EXPLORE census",
			"EXPLORE census WHERE age BETWEEN 25 AND 60",
			"EXPLORE census WHERE salary = '>50K'",
			"EXPLORE census WHERE age BETWEEN 20 AND 40 AND education = 'BSc'",
			"EXPLORE census WHERE education = 'MSc'",
			"EXPLORE census WHERE eye_color = 'Blue' AND age > 50",
		},
		OpsPerSession: opsPerSession,
		ThinkTime:     25 * time.Millisecond,
		Seed:          7,
	}
	w := workload.Generate(spec)
	fmt.Printf("workload: generated %d ops over %d sessions (zipf mix, seed %d)\n",
		len(w.Entries), sessions, spec.Seed)

	slo := defaultSLO()
	results := map[string]benchRecord{}
	for _, pass := range []struct {
		pacing workload.Pacing
		speed  float64
	}{
		{workload.ClosedLoop, 1},
		// Open loop replays the recorded arrival schedule: 4× speed keeps
		// the think-time tail short while still overlapping sessions.
		{workload.OpenLoop, 4},
	} {
		target, stop := serveInProcess(tbl, opts)
		sc, err := replayScored(w, refTarget, target, replayConfig{Pacing: string(pass.pacing), Speed: pass.speed, SLO: slo})
		stop()
		if err != nil {
			return err
		}
		printScore(sc)
		if !sc.Pass {
			if quick {
				fmt.Printf("warning: SLO violated at quick scale (noise-prone): %v\n", sc.Violations)
			} else {
				return fmt.Errorf("%s-loop pass violated the SLO: %v", pass.pacing, sc.Violations)
			}
		}
		name := fmt.Sprintf("WorkloadReplay/census_n=%d/sessions=%d/ops=%d/%s", n, sessions, len(w.Entries), pass.pacing)
		m := scoreMetrics(sc)
		m["byte_identical"] = 1
		m["speed"] = pass.speed
		results[name] = benchRecord{
			NsPerOp:    float64(sc.P99.Nanoseconds()),
			Iterations: int(sc.Requests),
			Metrics:    m,
		}
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote workload results to %s\n", path)
	return nil
}
