package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	atlas "repro"
)

// scale sizes a run. The full scale is what BENCHMARK.json measures; the
// smoke scale exists for the tests and is refused by -compare.
type scale struct {
	rows      int
	chunkRows int // rows per chunk in .atl and shard files
	shards    int
	warmup    int // ops before the first measured one
	setupReps int // whole set-ups per run; setup_s is their median
	coldReps  int // fresh-handle-to-first-answer cycles, at least
	// coldBudget keeps the cold cycles going past coldReps until this much
	// time is spent (see coldCycles).
	coldBudget time.Duration
	probeOps   int // ops in the traced probe pass
	verifyOps  int // measured ops re-run on the reference path
}

var (
	fullScale  = scale{rows: 200_000, chunkRows: 4096, shards: 4, warmup: 8, setupReps: 3, coldReps: 15, coldBudget: 1500 * time.Millisecond, probeOps: 48, verifyOps: 24}
	smokeScale = scale{rows: 20_000, chunkRows: 512, shards: 4, warmup: 4, setupReps: 1, coldReps: 2, probeOps: 8, verifyOps: 4}
)

// skyDecodedBytesPerRow is six float64 columns and one uint32 dictionary
// code: what a fully decoded sky table holds per row.
const skyDecodedBytesPerRow = 6*8 + 4

// chunkCacheBytes is the decoded-chunk cache budget of the lazy
// workloads: 30 % of the decoded table, so a sliding scan evicts and
// re-decodes chunks instead of ending up fully resident.
func (s scale) chunkCacheBytes() int64 {
	return int64(0.3 * float64(s.rows) * skyDecodedBytesPerRow)
}

// skyTable is the sky survey re-ordered by ra: a clustered ingest, so
// zone maps and whole-shard pruning have something to work with. Six
// float columns make CUT's sort the dominant compute cost.
func skyTable(rows int, seed int64) *atlas.Table {
	t := atlas.SkySurveyDataset(rows, seed)
	col, err := t.ColumnByName("ra")
	if err != nil {
		panic(err) // the generator's schema is fixed
	}
	ra := col.(interface{ Values() []float64 }).Values()
	idx := make([]int, rows)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if ra[idx[a]] != ra[idx[b]] {
			return ra[idx[a]] < ra[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return t.Gather("sky", idx)
}

// censusTable is four dictionary columns and one small-range integer:
// scan, partition and count kernels dominate, sorting is negligible.
func censusTable(rows int, seed int64) *atlas.Table { return atlas.CensusDataset(rows, seed) }

// exploreOp is one stateless exploration of a stream.
type exploreOp struct {
	Class string // narrow, medium, wide, full
	CQL   string
}

// classFraction is the share of rows each query class selects.
var classFraction = map[string]float64{"narrow": 0.01, "medium": 0.10, "wide": 0.50}

// stream is an unbounded, seeded sequence of explorations generated a
// block at a time; op i is a function of (kind, seed, i) alone.
type stream struct {
	name  string
	rnd   *rand.Rand
	ops   []exploreOp
	block func(s *stream)
	// perClass counts the ops generated so far in each class: a class
	// alternates between its band columns, so the share of clustered (ra)
	// and scattered (dec) bands is the same whatever the seed.
	perClass map[string]int
}

func (s *stream) at(i int) exploreOp {
	for i >= len(s.ops) {
		s.block(s)
	}
	return s.ops[i]
}

// skyBand is a BETWEEN predicate on a uniformly distributed coordinate
// selecting frac of the rows, placed by u in [0,1).
func skyBand(col string, frac, u float64) string {
	lo, span := 0.0, 360.0
	if col == "dec" {
		lo, span = -90, 180
	}
	w := frac * span
	from := lo + u*(span-w)
	return fmt.Sprintf("EXPLORE sky WHERE %s BETWEEN %.4f AND %.4f", col, from, from+w)
}

// skyMixStream is the class mix of lib_explore and fabric_remote: per
// block of 20 ops, 3 narrow, 5 medium, 10 wide and 2 full, shuffled. The
// weights put p50 inside the wide class (ranks 40–90 %) and p95 inside
// the full class (90–100 %) instead of on a boundary between two
// classes. Within a class the bands alternate between ra (the table is
// sorted by it: a contiguous row range, few chunks) and dec (scattered over
// every chunk). Every predicate is distinct, so a result cache gains
// nothing; only the full class repeats, and it is the class the stat cache
// serves.
func skyMixStream(seed int64) *stream {
	return &stream{name: "sky_mix", rnd: rand.New(rand.NewSource(seed)), perClass: map[string]int{}, block: func(s *stream) {
		classes := []string{"narrow", "narrow", "narrow", "medium", "medium", "medium", "medium", "medium",
			"wide", "wide", "wide", "wide", "wide", "wide", "wide", "wide", "wide", "wide", "full", "full"}
		s.rnd.Shuffle(len(classes), func(a, b int) { classes[a], classes[b] = classes[b], classes[a] })
		for _, class := range classes {
			op := exploreOp{Class: class, CQL: "EXPLORE sky"}
			if class != "full" {
				col := []string{"ra", "dec"}[s.perClass[class]%2]
				s.perClass[class]++
				op.CQL = skyBand(col, classFraction[class], s.rnd.Float64())
			}
			s.ops = append(s.ops, op)
		}
	}}
}

// skySlideStream is store_lazy's steady stream: narrow (70 %) and medium
// (30 %) ra bands whose position slides across the table, so the band
// moves through the shard files and the chunk cache keeps evicting. p50
// falls inside narrow, p95 inside medium.
func skySlideStream(seed int64) *stream {
	return &stream{name: "sky_slide", rnd: rand.New(rand.NewSource(seed)), block: func(s *stream) {
		classes := []string{"narrow", "narrow", "narrow", "narrow", "narrow", "narrow", "narrow", "medium", "medium", "medium"}
		s.rnd.Shuffle(len(classes), func(a, b int) { classes[a], classes[b] = classes[b], classes[a] })
		for _, class := range classes {
			pos := math.Mod(float64(len(s.ops))*0.0137+s.rnd.Float64()*0.01, 1)
			s.ops = append(s.ops, exploreOp{Class: class, CQL: skyBand("ra", classFraction[class], pos)})
		}
	}}
}

// warmupOps touches every class once or twice so the stat cache and the
// code paths are warm before the first measured op.
func warmupOps(seed int64, n int) []exploreOp {
	rnd := rand.New(rand.NewSource(seed ^ 0x5eed))
	classes := []string{"full", "wide", "medium", "narrow", "wide", "medium", "narrow", "full"}
	out := make([]exploreOp, 0, n)
	for i := 0; i < n; i++ {
		class := classes[i%len(classes)]
		op := exploreOp{Class: class, CQL: "EXPLORE sky"}
		if class != "full" {
			op.CQL = skyBand("ra", classFraction[class], rnd.Float64())
		}
		out = append(out, op)
	}
	return out
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
type zipf struct {
	rnd *rand.Rand
	cum []float64
}

func newZipf(rnd *rand.Rand, n int, s float64) *zipf {
	z := &zipf{rnd: rnd, cum: make([]float64, n)}
	total := 0.0
	for i := range z.cum {
		total += 1 / math.Pow(float64(i+1), s)
		z.cum[i] = total
	}
	for i := range z.cum {
		z.cum[i] /= total
	}
	return z
}

func (z *zipf) next() int {
	return min(sort.SearchFloat64s(z.cum, z.rnd.Float64()), len(z.cum)-1)
}

const (
	poolSize      = 24
	zipfS         = 1.1
	opsPerSession = 12
	drillProb     = 0.35
	maxDrillDepth = 3
)

// censusPool is the 24 CQL strings serve_zipf draws from, rank 0 the
// hottest. The shape of each rank (width of its age range, its categorical
// restriction) is fixed, so the cost of the hot queries is the same
// whatever the seed; the seed only slides each range by up to two years.
// Every range is at least 30 years wide and carries at most one
// categorical restriction, so three levels of drill-down below it never
// run out of rows (no op fails).
func censusPool(seed int64) []string {
	rnd := rand.New(rand.NewSource(seed))
	cats := []string{
		"", "",
		" AND education IN ('MSc','BSc')", " AND education IN ('BSc','HS')",
		" AND sex IN ('Male')", " AND sex IN ('Female')",
		" AND eye_color IN ('Blue','Green')", " AND eye_color IN ('Brown','Green')",
	}
	pool := make([]string, poolSize)
	for r := range pool {
		lo := 17 + (r%4)*5 + rnd.Intn(3)
		width := 30 + (r*7)%25 // distinct for every rank below 25
		pool[r] = fmt.Sprintf("EXPLORE census WHERE age BETWEEN %d AND %d%s", lo, min(lo+width, 90), cats[r%len(cats)])
	}
	return pool
}

// sessionOp is one op of an HTTP session: a session-explore of a pooled
// CQL string or a drill into region Region of map 0 of the current node.
type sessionOp struct {
	Drill  bool   `json:"drill,omitempty"`
	Region int    `json:"region,omitempty"`
	CQL    string `json:"cql,omitempty"`
}

// sessionOps is session number `session`'s op stream: an opening explore,
// then drills with probability 0.35 to depth 3, otherwise a fresh
// zipf-drawn explore. It depends on (seed, session) alone, so sessions
// can run in any order on any client.
func sessionOps(seed int64, session int, pool []string) []sessionOp {
	rnd := rand.New(rand.NewSource(seed*1_000_003 + int64(session)))
	z := newZipf(rnd, len(pool), zipfS)
	ops := make([]sessionOp, 0, opsPerSession)
	depth := 0
	for i := 0; i < opsPerSession; i++ {
		if i > 0 && depth < maxDrillDepth && rnd.Float64() < drillProb {
			ops = append(ops, sessionOp{Drill: true, Region: rnd.Intn(2)})
			depth++
			continue
		}
		ops = append(ops, sessionOp{CQL: pool[z.next()]})
		depth = 0
	}
	return ops
}

// statelessOps is the open-loop phase's stream: n zipf-drawn explores.
func statelessOps(seed int64, pool []string, n int) []string {
	rnd := rand.New(rand.NewSource(seed ^ 0x0be7))
	z := newZipf(rnd, len(pool), zipfS)
	out := make([]string, n)
	for i := range out {
		out[i] = pool[z.next()]
	}
	return out
}
