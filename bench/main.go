// Command bench is the repository's benchmark: four pinned workloads over
// the ways the program holds a table, end-to-end metrics measured
// untraced, per-layer metrics from a separate traced probe run, and a
// compare tool. See README.md in this directory.
//
// One run of one workload (what BENCHMARK.json's command does):
//
//	bash bench/run.sh --workload lib_explore --seed 1 --seconds 10 --trace 0
//
// Everything, one process per workload, into a report file:
//
//	bash bench/run.sh -workload all -seed 1 -out f.json
//	bash bench/run.sh -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
)

const defaultSeconds = 15

// report is what -out writes: the environment, and per workload the
// untraced and the traced run.
type report struct {
	Schema    string                `json:"schema"`
	Smoke     bool                  `json:"smoke"`
	Env       environment           `json:"env"`
	Workloads map[string]*runReport `json:"workloads"`
}

type runReport struct {
	EndToEnd *result `json:"end_to_end,omitempty"`
	PerLayer *result `json:"per_layer,omitempty"`
}

type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Rows       int     `json:"rows"`
}

const reportSchema = "atlas-bench/1"

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "lib_explore, store_lazy, fabric_remote, serve_zipf, or all")
		seed     = fs.Int64("seed", 1, "seed of the generated data and op streams")
		seconds  = fs.Float64("seconds", defaultSeconds, "length of the measured phase")
		trace    = fs.Int("trace", 0, "0: measured run, end-to-end metrics; 1: traced probe run, per-layer metrics")
		out      = fs.String("out", "", "write the full report here (and the trace to <out>.trace.json)")
		smoke    = fs.Bool("smoke", false, "20k-row scale for tests; the output is marked and -compare refuses it")
		compare  = fs.Bool("compare", false, "compare two report files: -compare old.json new.json")
		goldenTo = fs.String("update-golden", "", "regenerate the -seed 1 digests into this file (bench/golden/seed1.json)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two report files")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	// The environment is pinned: these variables change how stores open
	// and how much they cache behind the benchmark's back.
	for _, v := range []string{"ATLAS_STORE_MODE", "ATLAS_CHUNK_CACHE_BUDGET"} {
		if os.Getenv(v) != "" {
			return fmt.Errorf("%s is set; unset it, the benchmark pins store mode and cache budget itself", v)
		}
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	// Load is sized for a small shared box: C cores, C clients.
	par := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(par)

	tmp, err := os.MkdirTemp(buildDir(), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, sc: fullScale, par: par, tmp: tmp}
	if *smoke {
		cfg.sc = smokeScale
	}
	if *goldenTo != "" {
		return updateGolden(cfg, *goldenTo)
	}
	if *workload == "all" {
		if *out == "" {
			return fmt.Errorf("-workload all needs -out")
		}
		return runAll(cfg, *out)
	}
	if !slices.Contains(workloadNames, *workload) {
		return fmt.Errorf("unknown workload %q (want one of %s, or all)", *workload, strings.Join(workloadNames, ", "))
	}
	cfg.workload = *workload
	if cfg.trace {
		cfg.traceOut = filepath.Join(buildDir(), cfg.workload+".trace.json")
		if *out != "" {
			cfg.traceOut = *out + ".trace.json"
		}
	}
	res, err := runOne(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if *out != "" {
		rr := &runReport{EndToEnd: res}
		if cfg.trace {
			rr = &runReport{PerLayer: res}
		}
		if err := writeReport(*out, &report{Schema: reportSchema, Smoke: cfg.smoke, Env: cfg.environment(), Workloads: map[string]*runReport{cfg.workload: rr}}); err != nil {
			return err
		}
	}
	printHuman(os.Stderr, res)
	// The last line of standard output is the result the driver reads.
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, contractMetrics(res)})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// contractMetrics strips a result to the value and unit of each metric.
func contractMetrics(res *result) map[string]metric {
	out := make(map[string]metric, len(res.Metrics))
	for name, m := range res.Metrics {
		out[name] = metric{Value: m.Value, Unit: m.Unit}
	}
	return out
}

// buildDir is where the benchmark may write inside the checkout: the
// directory run.sh builds into, or the system's temporary directory when
// the binary is run some other way (go run, go test).
func buildDir() string {
	if st, err := os.Stat(".bench_build"); err == nil && st.IsDir() {
		return ".bench_build"
	}
	return os.TempDir()
}

func runOne(cfg config) (*result, error) {
	if spec, ok := exploreSpecs[cfg.workload]; ok {
		if cfg.trace {
			return spec.trace(cfg)
		}
		return spec.run(cfg)
	}
	if cfg.trace {
		return traceServe(cfg)
	}
	return runServe(cfg)
}

func (cfg config) environment() environment {
	env := environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Seed: cfg.seed, Seconds: cfg.seconds, Rows: cfg.sc.rows}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// runAll runs every workload untraced and traced, each in a process of
// its own so that memory numbers are per workload, and merges the
// reports.
func runAll(cfg config, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := &report{Schema: reportSchema, Smoke: cfg.smoke, Env: cfg.environment(), Workloads: map[string]*runReport{}}
	for _, w := range workloadNames {
		rr := &runReport{}
		for _, trace := range []int{0, 1} {
			part := filepath.Join(cfg.tmp, fmt.Sprintf("%s.%d.json", w, trace))
			args := []string{"-workload", w, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds), "-trace", fmt.Sprint(trace), "-out", part}
			if cfg.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr // the child's human-readable table
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s -trace %d: %w", w, trace, err)
			}
			sub, err := readReport(part)
			if err != nil {
				return err
			}
			if trace == 0 {
				rr.EndToEnd = sub.Workloads[w].EndToEnd
			} else {
				rr.PerLayer = sub.Workloads[w].PerLayer
				if err := os.Rename(part+".trace.json", fmt.Sprintf("%s.%s.trace.json", out, w)); err != nil {
					return err
				}
			}
		}
		all.Workloads[w] = rr
	}
	return writeReport(out, all)
}

func writeReport(path string, r *report) error {
	raw, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &report{}
	if err := json.Unmarshal(raw, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, reportSchema)
	}
	return r, nil
}

// printHuman prints every metric by name with its unit.
func printHuman(w *os.File, res *result) {
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", res.Workload, res.Correct, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-34s %14.4f %-7s", n, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d", m.N)
		}
		if m.MAD > 0 {
			fmt.Fprintf(w, " segment-MAD=%.3f", m.MAD)
		}
		fmt.Fprintln(w)
	}
	info := make([]string, 0, len(res.Info))
	for n := range res.Info {
		info = append(info, n)
	}
	sort.Strings(info)
	for _, n := range info {
		fmt.Fprintf(w, "  (%s = %.4f)\n", n, res.Info[n])
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  ! %s\n", n)
	}
}

// updateGolden regenerates the committed digests from the sequential
// in-memory reference: the first goldenOps ops of each explore stream and
// the first goldenSessions sessions of serve_zipf.
func updateGolden(cfg config, path string) error {
	const goldenMixOps, goldenSlideOps, goldenSessions = 600, 3000, 400
	if cfg.seed != goldenSeed || cfg.smoke {
		return fmt.Errorf("the committed digests are for -seed %d at full scale", goldenSeed)
	}
	g := golden{Streams: map[string][]string{}}
	sky := skyTable(cfg.sc.rows, cfg.seed)
	ref, err := serialExplorer(sky)
	if err != nil {
		return err
	}
	for st, n := range map[*stream]int{skyMixStream(cfg.seed): goldenMixOps, skySlideStream(cfg.seed): goldenSlideOps} {
		for i := 0; i < n; i++ {
			r, err := ref.Explore(st.at(i).CQL)
			if err != nil {
				return fmt.Errorf("%s op %d: %w", st.name, i, err)
			}
			g.Streams[st.name] = append(g.Streams[st.name], digestResult(r))
		}
	}
	census := censusTable(cfg.sc.rows, cfg.seed)
	pool := censusPool(cfg.seed)
	post := handlerPoster(newAPIHandler(census))
	for s := 0; s < goldenSessions; s++ {
		var digests []string
		for _, smp := range runSession(post, sessionOps(cfg.seed, s, pool), func() bool { return false }) {
			if smp.why != "" {
				return fmt.Errorf("session %d op %d: %s", s, smp.op, smp.why)
			}
			digests = append(digests, smp.digest)
		}
		g.Sessions = append(g.Sessions, digests)
	}
	raw, err := json.Marshal(g)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
