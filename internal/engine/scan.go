package engine

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/obsv"
	"repro/internal/par"
	"repro/internal/query"
	"repro/internal/storage"
)

// ScanStats counts chunk-level scan decisions: it is the scan plane of
// a query's resource ledger (obsv.ScanStats), named here for callers
// that count one pass of their own through ScanOptions.Stats.
type ScanStats = obsv.ScanStats

// ScanOptions tunes one scan.
type ScanOptions struct {
	// Workers shards the scan across the table's chunks; <=1 scans
	// serially. Chunks map to disjoint word ranges
	// of the selection bitmap, so results are byte-identical at any
	// worker count.
	Workers int
	// Stats, when non-nil, accumulates chunk decisions in place of the
	// context's ledger: a pass bills exactly one of the two.
	Stats *ScanStats
	// Ctx rides along into lazy chunk fetches: remote chunk sources pick
	// up its trace span and request ID, so chunk-plane RPCs appear in the
	// query profile. nil is fine (untraced).
	Ctx context.Context
}

// context returns the scan's context, never nil: the one place the
// optional field is normalised, at the top of each scan driver.
func (o ScanOptions) context() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// sink resolves where a pass bills its verdicts and fetches: o.Stats
// when set, otherwise the scan plane of ctx's ledger (nil, billing
// nothing, when the context is unledgered).
func (o ScanOptions) sink(ctx context.Context) *ScanStats {
	if o.Stats != nil {
		return o.Stats
	}
	return obsv.LedgerFrom(ctx).Scan()
}

// EvalAndIntoOpts is EvalAndInto with scan options: zone-map pruning is
// always on; Workers additionally shards the scan.
func EvalAndIntoOpts(t *storage.Table, q query.Query, sel *bitvec.Vector, opts ScanOptions) error {
	if sel.Len() != t.NumRows() {
		return fmt.Errorf("engine: selection length %d != table rows %d", sel.Len(), t.NumRows())
	}
	cps, err := compileQuery(t, q)
	if err != nil {
		return err
	}
	return evalCompiled(t, cps, sel, opts)
}

// EvalBase returns the rows of t that q selects as an exploration's
// base: a bitmap whose window spans only the chunks from the first to
// the last that the plan does not prune, so the base costs that span,
// not the table's length. The chunks outside it are billed as the scan
// bills the chunks it prunes.
func EvalBase(t *storage.Table, q query.Query, opts ScanOptions) (*bitvec.Vector, error) {
	cps, err := compileQuery(t, q)
	if err != nil {
		return nil, err
	}
	ck, rows := t.Chunking(), t.NumRows()
	verdict := chunkVerdict(t)
	sink := opts.sink(opts.context())
	prune := func(k int) bool { return planChunk(cps, verdict, k) == zonePrune }
	n := ck.NumChunks(rows)
	k0, k1 := 0, n
	for k0 < k1 && prune(k0) {
		k0++
	}
	for k1 > k0 && prune(k1-1) {
		k1--
	}
	for range n - (k1 - k0) {
		sink.BillPruned()
	}
	wordsPerChunk := ck.Size / 64
	w1 := min(k1*wordsPerChunk, (rows+63)/64)
	sel := bitvec.NewFullWindow(rows, min(k0*wordsPerChunk, w1), w1)
	return sel, evalCompiled(t, cps, sel, opts)
}

// zoneVerdict is a zone map's answer for one (predicate, chunk) pair.
type zoneVerdict int

const (
	// zoneScan: the chunk may contain both matching and non-matching
	// rows; scan it.
	zoneScan zoneVerdict = iota
	// zonePrune: no row in the chunk can match; clear its bits.
	zonePrune
	// zoneFull: every row in the chunk matches; leave its bits alone.
	zoneFull
)

// compiledPred is one predicate resolved against its column: a run
// matcher plus a zone-map decision function. The matcher reads the run
// the scan fetched for the chunk; chunks the zone map prunes (or proves
// all-match) are never fetched, so zone maps filter I/O, not just CPU.
type compiledPred struct {
	colIdx int
	runs   *storage.Runs
	zone   func(zm storage.ZoneMap, chunkRows int) zoneVerdict
	// and clears, in words, the bits of the rows of run p (whose row 0
	// is the first row of words[0]) that are NULL or fail the predicate.
	and func(p *storage.ChunkPayload, words []uint64)
	// never marks predicates proven unsatisfiable at compile time (an In
	// set with no dictionary hits): the scan clears the selection without
	// visiting rows.
	never bool
}

// zoneNullOnly prunes only all-NULL chunks — the fallback for predicate
// shapes without min/max pruning.
func zoneNullOnly(zm storage.ZoneMap, chunkRows int) zoneVerdict {
	if zm.NullCount == chunkRows {
		return zonePrune
	}
	return zoneScan
}

// zonePruneAlways marks predicates that can never match (e.g. an In set
// with no dictionary hits).
func zonePruneAlways(storage.ZoneMap, int) zoneVerdict { return zonePrune }

// compileQuery resolves every predicate of q against t. All resolution
// errors surface here, before any selection bits are touched.
func compileQuery(t *storage.Table, q query.Query) ([]compiledPred, error) {
	cps := make([]compiledPred, 0, len(q.Preds))
	for _, p := range q.Preds {
		cp, err := compilePred(t, p)
		if err != nil {
			return nil, err
		}
		cps = append(cps, cp)
	}
	return cps, nil
}

func compilePred(t *storage.Table, p query.Predicate) (compiledPred, error) {
	col, err := t.ColumnByName(p.Attr)
	if err != nil {
		return compiledPred{}, err
	}
	ci := t.Schema().Index(p.Attr)
	cp := compiledPred{colIdx: ci, runs: t.Runs(ci)}
	switch col.Type() {
	case storage.Int64, storage.Float64:
		if p.Kind != query.Range {
			return compiledPred{}, kindErr(p, col)
		}
		cp.zone = rangeZone(p)
		m := compileRange(p)
		cp.and = func(pl *storage.ChunkPayload, words []uint64) {
			if pl.Ints != nil {
				andRange(&m, pl.Ints, pl.Nulls, words)
			} else {
				andRange(&m, pl.Floats, pl.Nulls, words)
			}
		}
	case storage.String:
		if p.Kind != query.In {
			return compiledPred{}, kindErr(p, col)
		}
		dict, err := storage.Dictionary(col)
		if err != nil {
			return compiledPred{}, err
		}
		admit := make([]bool, len(dict))
		admitWords := make([]uint64, (len(dict)+63)/64)
		any := false
		for _, v := range p.Values {
			if code := slices.Index(dict, v); code >= 0 {
				admit[code] = true
				admitWords[code/64] |= uint64(1) << uint(code%64)
				any = true
			}
		}
		if !any {
			cp.zone = zonePruneAlways
			cp.never = true
			return cp, nil
		}
		cp.zone = codeSetZone(admitWords)
		cp.and = func(pl *storage.ChunkPayload, words []uint64) {
			codes := pl.Codes
			andRows(pl.Nulls, words, func(l int) bool { return admit[codes[l]] })
		}
	case storage.Bool:
		if p.Kind != query.BoolEq {
			return compiledPred{}, kindErr(p, col)
		}
		cp.zone = zoneNullOnly
		cp.and = func(pl *storage.ChunkPayload, words []uint64) {
			vals := pl.Bools
			andRows(pl.Nulls, words, func(l int) bool { return vals[l] == p.BoolVal })
		}
	default:
		return compiledPred{}, fmt.Errorf("engine: unsupported column type %v", col.Type())
	}
	return cp, nil
}

// codeSetZone builds the categorical pruning rule for an In predicate
// from the bitset of admitted dictionary codes. Chunks whose per-chunk
// code set (when present) is disjoint from the admitted codes are
// pruned; chunks whose codes are a subset of them — and that hold no
// NULLs — match fully without row tests. Both decisions are exactly
// consistent with the row matcher: the code set lists precisely the
// codes occurring in the chunk's non-NULL rows.
func codeSetZone(admitWords []uint64) func(zm storage.ZoneMap, chunkRows int) zoneVerdict {
	return func(zm storage.ZoneMap, chunkRows int) zoneVerdict {
		if zm.NullCount == chunkRows {
			return zonePrune
		}
		if zm.CodeSet == nil {
			return zoneScan
		}
		intersects, subset := false, true
		for wi, w := range zm.CodeSet {
			var aw uint64
			if wi < len(admitWords) {
				aw = admitWords[wi]
			}
			if w&aw != 0 {
				intersects = true
			}
			if w&^aw != 0 {
				subset = false
			}
		}
		if !intersects {
			return zonePrune
		}
		if subset && zm.NullCount == 0 {
			return zoneFull
		}
		return zoneScan
	}
}

// rangeZone builds the min/max pruning rule for a numeric Range
// predicate. Min/Max live in the same comparison space as the row
// matcher (float64, with Int64 values widened), so the three verdicts
// are exactly consistent with scanning.
func rangeZone(p query.Predicate) func(zm storage.ZoneMap, chunkRows int) zoneVerdict {
	return func(zm storage.ZoneMap, chunkRows int) zoneVerdict {
		if zm.NullCount == chunkRows {
			return zonePrune
		}
		if !zm.HasMinMax {
			return zoneScan
		}
		if p.Hi < zm.Min || p.Lo > zm.Max ||
			(p.Hi == zm.Min && !p.HiIncl) || (p.Lo == zm.Max && !p.LoIncl) {
			return zonePrune
		}
		if zm.NullCount == 0 && p.MatchFloat(zm.Min) && p.MatchFloat(zm.Max) {
			return zoneFull
		}
		return zoneScan
	}
}

// evalCompiled narrows sel by every compiled predicate, chunk by chunk,
// optionally sharding chunks across workers. Only the chunks sel's
// window reaches are visited, each on its words of the window. Each
// predicate consults the chunk's zone map first, and its column's run is
// read only when the verdict is "scan": pruned and all-match chunks of
// lazy columns stay undecoded, and fetch failures (corrupt or truncated
// chunks) surface as errors.
func evalCompiled(t *storage.Table, cps []compiledPred, sel *bitvec.Vector, opts ScanOptions) error {
	if len(cps) == 0 {
		return nil
	}
	ctx := opts.context()
	sink := opts.sink(ctx)
	bill := sink.BillFetch
	sw0, words := sel.Window()
	ck := t.Chunking()
	wordsPerChunk := ck.Size / 64
	verdict := chunkVerdict(t)
	// The window reaches chunks [k0, k1); chunk k holds words cw of it,
	// which skip of the chunk's own words precede.
	k0, k1 := 0, 0
	if len(words) > 0 {
		k0, k1 = sw0/wordsPerChunk, (sw0+len(words)-1)/wordsPerChunk+1
	}
	chunkWords := func(k int) (skip int, cw []uint64) {
		a, b := max(k*wordsPerChunk, sw0), min((k+1)*wordsPerChunk, sw0+len(words))
		return a - k*wordsPerChunk, words[a-sw0 : b-sw0]
	}
	// A lazy fetch is preceded by the hint of the window it opens — the
	// chunk, then those this predicate will certainly scan after it — so a
	// remote source that would miss loads them in one round trip instead;
	// pruned, all-match and possibly-emptied chunks are never named.
	certain := certainFetches(cps, verdict, chunkWords, k0, k1)
	scanChunk := func(ci int) error {
		// Chunk-granular cancellation: a dead caller abandons the scan
		// here, before any fetch or row test for this chunk.
		if err := obsv.CheckCtx(ctx, "engine.scan"); err != nil {
			return err
		}
		k := k0 + ci
		skip, cw := chunkWords(k)
		if !anyWords(cw) {
			return nil
		}
		switch planChunk(cps, verdict, k) {
		case zonePrune:
			clear(cw)
			sink.BillPruned()
			return nil
		case zoneFull:
			sink.BillFull()
			return nil
		}
		sink.BillScanned()
		for i := range cps {
			cp := &cps[i]
			// Every verdict is scan or full here; once a predicate's test
			// empties the chunk, later ones have nothing left to test.
			if verdict(cp, k) == zoneFull || !anyWords(cw) {
				continue
			}
			if cp.runs.Fetches() {
				hintFetch(ctx, cp.runs, certain[i], k)
			}
			pl, err := cp.runs.Run(ctx, k, bill)
			if err != nil {
				return err
			}
			cp.and(pl.FromWord(skip), cw)
		}
		return nil
	}
	return par.For(opts.Workers, k1-k0, scanChunk)
}

// planChunk is chunk k's plan under the conjunction cps, judged from
// zone maps alone before any fetch: prune when any predicate prunes it,
// full when every predicate proves a full match, scan otherwise. The
// scan bills it as the chunk's one verdict and fetches only under a
// scan plan, EvalBase trims the base's window by it, the fetch hints
// name only chunks it scans, and EXPLAIN reports it, so all of them
// agree.
func planChunk(cps []compiledPred, verdict func(*compiledPred, int) zoneVerdict, k int) zoneVerdict {
	plan := zoneFull
	for i := range cps {
		switch verdict(&cps[i], k) {
		case zonePrune:
			return zonePrune
		case zoneScan:
			plan = zoneScan
		}
	}
	return plan
}

// chunkVerdict returns the zone-map verdict of a compiled predicate of
// t on chunk k.
func chunkVerdict(t *storage.Table) func(cp *compiledPred, k int) zoneVerdict {
	ck := t.Chunking()
	return func(cp *compiledPred, k int) zoneVerdict {
		return cp.zone(ck.Zones[cp.colIdx][k], min(ck.Size, t.NumRows()-k*ck.Size))
	}
}

// certainFetches lists, per predicate, the chunks among [k0, k1) the
// scan will certainly read for it: chunks holding a selected row at scan
// start whose plan is scan and whose first scan verdict is this
// predicate's — every earlier one is full, so their bits are untouched
// when this predicate's turn comes. Only these may be hinted: a hint
// names chunks the scan reads, never ones an earlier predicate could
// still empty. A scan over resident columns hints nothing, and gets nil.
func certainFetches(cps []compiledPred, verdict func(*compiledPred, int) zoneVerdict, chunkWords func(k int) (int, []uint64), k0, k1 int) [][]int {
	if !slices.ContainsFunc(cps, func(cp compiledPred) bool { return cp.runs.Fetches() }) {
		return nil
	}
	certain := make([][]int, len(cps))
	for k := k0; k < k1; k++ {
		if _, cw := chunkWords(k); !anyWords(cw) || planChunk(cps, verdict, k) != zoneScan {
			continue
		}
		for i := range cps {
			if verdict(&cps[i], k) == zoneScan {
				certain[i] = append(certain[i], k)
				break
			}
		}
	}
	return certain
}

// hintFetch hands runs the hint that precedes a fetch of chunk k for a
// predicate whose certain fetches are certain.
func hintFetch(ctx context.Context, runs *storage.Runs, certain []int, k int) {
	var window [storage.PrefetchWindow]int
	runs.Hint(ctx, fetchWindow(window[:0], certain, k))
}

// fetchWindow appends to dst the hint that precedes a fetch of chunk k
// for a predicate whose certain fetches are certain: k, then the certain
// chunks after it.
func fetchWindow(dst, certain []int, k int) []int {
	dst = append(dst, k)
	ti := sort.SearchInts(certain, k+1)
	return append(dst, certain[ti:min(ti+storage.PrefetchWindow-1, len(certain))]...)
}

// andRange clears, in words, the bits of the rows of a numeric run
// (vals[0] is the first row of words[0]; nulls, nil without NULLs, is
// the run's from there) that are NULL or fall outside m. Zero words cost
// one load each, so the cost of a conjunction shrinks with its
// selectivity; a word's remaining rows are tested without a branch on
// the outcome.
func andRange[T numeric](m *rangeMatcher, vals []T, nulls, words []uint64) {
	for wi, w := range words {
		if w == 0 {
			continue
		}
		if nulls != nil {
			w &^= nulls[wi]
		}
		row := vals[wi*64:]
		var keep uint64
		for m2 := w; m2 != 0; m2 &= m2 - 1 {
			keep |= (m2 & -m2) & -m.admits(float64(row[bits.TrailingZeros64(m2)]))
		}
		words[wi] = keep
	}
}

// andRows clears, in words, the bits of the rows of a run that are NULL
// (per the run's nulls) or fail keep(l), l the row's index in the run
// from the first row of words[0] on.
func andRows(nulls, words []uint64, keep func(l int) bool) {
	for wi, w := range words {
		if w == 0 {
			continue
		}
		if nulls != nil {
			w &^= nulls[wi]
		}
		base := wi * 64
		for m := w; m != 0; m &= m - 1 {
			if bi := bits.TrailingZeros64(m); !keep(base + bi) {
				w &^= uint64(1) << uint(bi)
			}
		}
		words[wi] = w
	}
}

func anyWords(words []uint64) bool {
	for _, w := range words {
		if w != 0 {
			return true
		}
	}
	return false
}
