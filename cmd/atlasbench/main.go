// Command atlasbench has two jobs. It runs the paper's experiments —
// each regenerates a figure or claim of the paper and prints PASS/FAIL
// checks (`-list` names them) — and it replays a captured workload
// against a server, verifying byte-identity against a sequential
// reference pass and scoring the run against an SLO. Performance is
// measured by the pinned benchmark in bench/ (bash bench/run.sh), not
// here.
//
// Usage:
//
//	atlasbench -list
//	atlasbench -exp E1,E4 [-quick]
//	atlasbench -all [-quick]
//	atlasbench -replay workload.jsonl [-target http://localhost:8080] [-pacing open] [-speed 10] [-slo-strict]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/exp"
)

func main() {
	var (
		list  = flag.Bool("list", false, "list available experiments")
		ids   = flag.String("exp", "", "comma-separated experiment ids to run (e.g. E1,E4)")
		all   = flag.Bool("all", false, "run every experiment")
		quick = flag.Bool("quick", false, "reduced input sizes")

		// Workload replay (see README "Workload capture & replay").
		replayF   = flag.String("replay", "", "replay a recorded workload file (atlasd -record-workload / GET /api/workload), verify byte-identity against a sequential reference pass, and score it")
		target    = flag.String("target", "", "base URL of the running atlasd -replay drives (default: an in-process census server)")
		pacing    = flag.String("pacing", "closed", "-replay pacing: closed (back-to-back per session) or open (recorded arrival schedule)")
		speed     = flag.Float64("speed", 1, "-replay open-loop speedup over the recorded schedule")
		sloStrict = flag.Bool("slo-strict", false, "-replay: exit non-zero on SLO violations instead of warning")
	)
	flag.Parse()

	if *replayF != "" {
		cfg := replayConfig{Target: *target, Pacing: *pacing, Speed: *speed, SLOStrict: *sloStrict, SLO: defaultSLO()}
		if err := runReplay(*replayF, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "atlasbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		fmt.Printf("%-5s %-55s %s\n", "id", "title", "paper artifact")
		for _, e := range exp.All() {
			fmt.Printf("%-5s %-55s %s\n", e.ID, e.Title, e.Artifact)
		}
		return
	}

	var todo []exp.Experiment
	switch {
	case *all:
		todo = exp.All()
	case *ids != "":
		for _, id := range strings.Split(*ids, ",") {
			id = strings.TrimSpace(id)
			e, ok := exp.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "atlasbench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			todo = append(todo, e)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	failed := 0
	for _, e := range todo {
		fmt.Printf("\n######## %s — %s (%s) ########\n", e.ID, e.Title, e.Artifact)
		start := time.Now()
		if err := e.Run(os.Stdout, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "atlasbench: %s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		fmt.Printf("(%s completed in %v)\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		os.Exit(1)
	}
}
