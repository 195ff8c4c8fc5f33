package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"repro"
	"repro/internal/datagen"
	"repro/internal/server"
	"repro/internal/workload"
)

// Flag values "atlas replay" refuses instead of guessing what was meant.
var (
	errPacing = errors.New("-pacing must be closed or open")
	errSpeed  = errors.New("-speed must be a positive number")
)

// replaySLO is the declared service objective a replay is scored
// against. The latency bounds are generous on purpose — they catch
// collapse (queueing runaway, lock convoys), not noise — while the
// error bound is exact: a deterministic workload on an ungated server
// must fail nothing.
var replaySLO = workload.SLO{
	P50:           2 * time.Second,
	P99:           10 * time.Second,
	MaxErrRate:    0,
	MaxErrRateSet: true,
}

// runReplay implements the "atlas replay" subcommand: replay a recorded
// workload file (atlasd -record-workload, or GET /api/workload) against
// a server and score it against replaySLO. It replays twice — a
// sequential reference pass and the paced, concurrent scored pass — and
// fails unless every response is byte-identical across the two:
// concurrency must never change an answer, only its timing.
func runReplay(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	target := fs.String("target", "", "base URL of the running atlasd to replay against (default: an in-process census server)")
	pacing := fs.String("pacing", string(workload.ClosedLoop), "closed (back-to-back per session) or open (recorded arrival schedule)")
	speed := fs.Float64("speed", 1, "open-loop speedup over the recorded schedule")
	sloStrict := fs.Bool("slo-strict", false, "fail on SLO violations instead of warning")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("want one workload file after the flags, got %d arguments", fs.NArg())
	}
	pace := workload.Pacing(*pacing)
	if pace != workload.ClosedLoop && pace != workload.OpenLoop {
		return fmt.Errorf("%w, not %q", errPacing, *pacing)
	}
	if !(*speed > 0) {
		return fmt.Errorf("%w, not %v", errSpeed, *speed)
	}

	path := fs.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	w, err := workload.Parse(f)
	f.Close()
	if err != nil {
		return err
	}
	refTarget, scoredTarget := *target, *target
	if *target == "" {
		// No live server given: serve the bundled census table in
		// process, the atlasd default shape — one server per pass, so the
		// reference pass does not warm the scored one's result cache.
		tbl := datagen.Census(100_000, 1)
		ref := httptest.NewServer(server.New(tbl, atlas.DefaultOptions()).Handler())
		defer ref.Close()
		scored := httptest.NewServer(server.New(tbl, atlas.DefaultOptions()).Handler())
		defer scored.Close()
		refTarget, scoredTarget = ref.URL, scored.URL
		fmt.Fprintf(out, "replay: no -target, serving census (100000 rows) in process\n")
	}
	fmt.Fprintf(out, "replay: %s — %d entries, %d sessions, table %q\n",
		path, len(w.Entries), len(w.Sessions()), w.Header.Table)

	ctx := context.Background()
	ref, err := workload.Replay(ctx, w, workload.ReplayOptions{Target: refTarget, Sequential: true})
	if err != nil {
		return fmt.Errorf("reference pass: %w", err)
	}
	got, err := workload.Replay(ctx, w, workload.ReplayOptions{Target: scoredTarget, Pacing: pace, Speed: *speed})
	if err != nil {
		return fmt.Errorf("replay pass: %w", err)
	}
	if err := workload.VerifyIdentical(w, ref, got); err != nil {
		return fmt.Errorf("replay drifted from the sequential reference: %w", err)
	}
	fmt.Fprintf(out, "replay: %s pass byte-identical to the sequential reference\n", pace)

	score := workload.ScoreReplay(got, replaySLO, runtime.NumCPU())
	fmt.Fprintf(out, "replay: %d requests in %v — p50 %v, p99 %v, %.1f qps (%.2f qps/core), %d errors, %d shed, %d 4xx\n",
		score.Requests, score.Wall.Round(time.Millisecond), score.P50.Round(time.Millisecond),
		score.P99.Round(time.Millisecond), score.QPS, score.QPSPerCore, score.Errors, score.Shed, score.Client4xx)
	if !score.Pass {
		if *sloStrict {
			return fmt.Errorf("SLO violated: %v", score.Violations)
		}
		fmt.Fprintf(out, "warning: SLO violated (rerun with -slo-strict to fail): %v\n", score.Violations)
		return nil
	}
	fmt.Fprintf(out, "replay: SLO: pass (p50<=%v p99<=%v err-rate<=%g)\n", replaySLO.P50, replaySLO.P99, replaySLO.MaxErrRate)
	return nil
}
