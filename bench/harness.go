package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	atlas "repro"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64 // length of the measured phase
	trace    bool    // the traced probe run instead of the measured one
	smoke    bool
	sc       scale
	par      int    // C = GOMAXPROCS = min(nproc, 4): clients and Parallelism
	tmp      string // scratch directory of this run, removed on exit
	traceOut string // where the trace file goes ("" = none)
}

// duration is the length of the measured phase.
func (cfg config) duration() time.Duration { return time.Duration(cfg.seconds * float64(time.Second)) }

// metric is one reported number. N is the sample count behind it and MAD
// the spread over the measured phase's five segments, where they apply.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	MAD   float64 `json:"mad,omitempty"`
}

// result is what one run reports.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Info carries numbers printed for the reader only (p99, generator
	// lateness, layer shares); nothing reads them back.
	Info map[string]float64 `json:"info,omitempty"`
	// Notes are failures worth a line: which op mismatched, and why.
	Notes []string `json:"notes,omitempty"`
}

func newResult(workload string) *result {
	return &result{Workload: workload, Metrics: map[string]metric{}, Info: map[string]float64{}}
}

func (r *result) set(name string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

func (r *result) setN(name string, v float64, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unitOf(name), N: n}
}

func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Notes) < 10 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

// failAll records one failed op per entry of bad (op index → what was
// wrong with it), in index order; describe names the op.
func (r *result) failAll(bad map[int]string, describe func(idx int) string) {
	idxs := make([]int, 0, len(bad))
	for i := range bad {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		r.fail("%s: %s", describe(i), bad[i])
	}
}

// sample is one measured op.
type sample struct {
	idx    int           // position in the op stream (or session*opsPerSession+op)
	doneAt time.Duration // completion time since the phase began
	ms     float64       // latency
	digest string        // what the answer hashed to ("" when the op failed)
}

// phase is a measured closed-loop phase: its samples and the process
// counters around it.
type phase struct {
	samples       []sample
	before, after usage
}

// measure runs body between two usage snapshots, after a forced GC so one
// phase does not pay for the garbage of the one before.
func measure(body func() []sample) phase {
	runtime.GC()
	p := phase{before: takeUsage()}
	p.samples = body()
	p.after = takeUsage()
	return p
}

// closedLoop runs one client: op i+1 is sent when op i has answered, until
// the phase has lasted d.
func closedLoop(d time.Duration, do func(i int) (digest string, err error)) []sample {
	var out []sample
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		t0 := time.Now()
		digest, err := do(i)
		lat := time.Since(t0)
		if err != nil {
			digest = ""
		}
		out = append(out, sample{idx: i, doneAt: time.Since(start), ms: ms(lat), digest: digest})
	}
	return out
}

const segments = 5

// endToEnd turns a measured phase into the throughput, latency and cost
// metrics every workload reports.
func (r *result) endToEnd(p phase) {
	n := len(p.samples)
	if n == 0 {
		return
	}
	wall := p.after.wall.Sub(p.before.wall)
	lat := make([]float64, n)
	var last time.Duration
	for i, s := range p.samples {
		lat[i] = s.ms
		last = max(last, s.doneAt)
	}
	sort.Float64s(lat)
	// Throughput over five equal segments of the phase shows how steady
	// the run was; -compare calls a delta unresolved when it is smaller
	// than this spread.
	perSeg := make([]float64, segments)
	segLen := last / segments
	for _, s := range p.samples {
		perSeg[min(int(s.doneAt/max(segLen, 1)), segments-1)]++
	}
	for i := range perSeg {
		perSeg[i] /= segLen.Seconds()
	}
	r.Metrics["ops_per_s"] = metric{Value: float64(n) / last.Seconds(), Unit: unitOf("ops_per_s"), N: n, MAD: mad(perSeg)}
	r.Info["ops_per_s_segment_median"] = median(perSeg)
	r.setN("p50_ms", percentile(lat, 50), n)
	r.setN("p95_ms", percentile(lat, 95), n)
	if n >= 1000 {
		r.Info["p99_ms"] = percentile(lat, 99)
	}
	r.Info["samples_beyond_p95"] = float64(n) * 0.05
	r.setN("cpu_ms_per_op", ms(p.after.cpu-p.before.cpu)/float64(n), n)
	r.setN("alloc_mb_per_op", float64(p.after.alloc-p.before.alloc)/1e6/float64(n), n)
	r.Info["measured_wall_s"] = wall.Seconds()
}

// digestResult hashes an exploration's rendered answer with the elapsed
// time zeroed: equal digests mean byte-identical answers.
func digestResult(res *atlas.Result) string {
	c := *res
	c.Elapsed = 0
	return digestString(atlas.FormatResult(&c))
}

func digestString(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:6])
}

// golden holds the committed per-op digests of -seed 1 at full scale:
// explore streams by name, and serve_zipf's sessions as [session][op].
type golden struct {
	Streams  map[string][]string `json:"streams"`
	Sessions [][]string          `json:"sessions"`
}

//go:embed golden/seed1.json
var goldenFS embed.FS

const goldenSeed = 1

// loadGolden returns the committed digests when the run is one they
// describe (-seed 1, full scale), else nil.
func loadGolden(cfg config) (*golden, error) {
	if cfg.seed != goldenSeed || cfg.smoke {
		return nil, nil
	}
	raw, err := goldenFS.ReadFile("golden/seed1.json")
	if err != nil {
		return nil, err
	}
	g := &golden{}
	if err := json.Unmarshal(raw, g); err != nil {
		return nil, fmt.Errorf("golden/seed1.json: %w", err)
	}
	return g, nil
}

const maxColdCycles = 200

// repeatSetUp sets the workload up reps times, tearing the previous
// set-up down before each next one (the last is kept), and returns the
// median set-up time in seconds. A forced GC before each keeps one set-up
// from paying for the garbage of the one before.
func repeatSetUp(reps int, setUp func(rep int) error, tearDown func()) (float64, error) {
	var took []float64
	for rep := 0; rep < reps; rep++ {
		if rep > 0 {
			tearDown()
		}
		runtime.GC()
		start := time.Now()
		if err := setUp(rep); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, time.Since(start).Seconds())
	}
	return median(took), nil
}

// coldCycles runs cycle (fresh handle → first answer) at least
// sc.coldReps times and then on until sc.coldBudget is spent, so that a cold
// start of a few milliseconds is a median over a hundred cycles and not
// over fifteen. It returns each cycle's time in ms.
func coldCycles(sc scale, cycle func(i int) (closeHandle func(), err error)) ([]float64, error) {
	var took []float64
	begin := time.Now()
	for i := 0; i < sc.coldReps || (time.Since(begin) < sc.coldBudget && i < maxColdCycles); i++ {
		runtime.GC()
		start := time.Now()
		closeHandle, err := cycle(i)
		took = append(took, ms(time.Since(start)))
		if closeHandle != nil {
			closeHandle() // after the clock stopped: the user has the answer
		}
		if err != nil {
			return nil, fmt.Errorf("cold cycle %d: %w", i, err)
		}
	}
	return took, nil
}

// spaced returns up to n indexes spread evenly over 0..total-1.
func spaced(total, n int) []int {
	if total <= n {
		out := make([]int, total)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i * total / n
	}
	return out
}
