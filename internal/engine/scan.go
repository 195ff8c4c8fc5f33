package engine

import (
	"context"
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/obsv"
	"repro/internal/par"
	"repro/internal/query"
	"repro/internal/storage"
)

// ScanStats counts chunk-level scan decisions for one evaluation. One
// entry is recorded per (predicate, chunk) pair; tables without chunk
// metadata record nothing. The counters are atomics so chunk-parallel
// scans can share one ScanStats (and a Cartographer can accumulate one
// across explorations).
type ScanStats struct {
	// ChunksScanned counts chunks whose rows were actually tested.
	ChunksScanned atomic.Int64
	// ChunksPruned counts chunks skipped because the zone map proves no
	// row can match (disjoint min/max range or an all-NULL chunk).
	ChunksPruned atomic.Int64
	// ChunksFull counts chunks skipped because the zone map proves every
	// non-pruned row matches (predicate covers [min,max], no NULLs).
	ChunksFull atomic.Int64
	// ChunksDecoded counts lazy chunk payloads decoded for this scan
	// (cache misses on memory-tiered tables); pruned and all-match
	// chunks never decode, which is what makes zone maps an I/O filter.
	ChunksDecoded atomic.Int64
	// ChunkCacheHits counts lazy chunk fetches served without a decode:
	// decoded-cache hits, and zero-copy payloads of already-resident
	// columns (eager shard files behind a lazy combined view).
	ChunkCacheHits atomic.Int64
}

// Snapshot is a plain-value copy of a ScanStats for reporting.
type Snapshot struct {
	ChunksScanned, ChunksPruned, ChunksFull int64
	ChunksDecoded, ChunkCacheHits           int64
}

// Snapshot copies the counters.
func (s *ScanStats) Snapshot() Snapshot {
	return Snapshot{
		ChunksScanned:  s.ChunksScanned.Load(),
		ChunksPruned:   s.ChunksPruned.Load(),
		ChunksFull:     s.ChunksFull.Load(),
		ChunksDecoded:  s.ChunksDecoded.Load(),
		ChunkCacheHits: s.ChunkCacheHits.Load(),
	}
}

// countFetch records a lazy chunk fetch in the stats.
func countFetch(stats *ScanStats, hit bool) {
	if stats == nil {
		return
	}
	if hit {
		stats.ChunkCacheHits.Add(1)
	} else {
		stats.ChunksDecoded.Add(1)
	}
}

// fetchTouched fetches the chunks of lazy column c holding a selected
// row and hands each payload to visit with the word range of selWords
// it covers. Each fetch is preceded by the hint of the window of touched
// chunks it opens — so a remote source that would miss loads them in one
// round trip — and billed to opts.Stats and the context's ledger. With
// workers <= 1 chunks are visited in row order; otherwise concurrently.
func fetchTouched(t *storage.Table, c *storage.LazyColumn, selWords []uint64, workers int, opts ScanOptions, op string, visit func(w0, w1 int, p *storage.ChunkPayload)) error {
	ck := t.Chunking()
	if ck == nil {
		return fmt.Errorf("engine: lazy column pass requires chunk metadata")
	}
	if len(selWords) != (t.NumRows()+63)/64 {
		return fmt.Errorf("engine: selection of %d words over %d table rows", len(selWords), t.NumRows())
	}
	ctx := opts.context()
	led := obsv.LedgerFrom(ctx)
	wordsPerChunk := ck.Size / 64
	touched := storage.TouchedChunks(selWords, wordsPerChunk)
	return par.For(workers, len(touched), func(ti int) error {
		// Chunk-granular cancellation, before any fetch or row visit.
		if err := obsv.CheckCtx(ctx, op); err != nil {
			return err
		}
		k := touched[ti]
		c.PrefetchHint(ctx, storage.HintWindow(touched, ti))
		p, hit, err := c.Chunk(ctx, k)
		if err != nil {
			return err
		}
		countFetch(opts.Stats, hit)
		led.ChunkFetch(hit)
		w0 := k * wordsPerChunk
		visit(w0, min(w0+wordsPerChunk, len(selWords)), p)
		return nil
	})
}

// ScanOptions tunes one scan.
type ScanOptions struct {
	// Workers shards the scan across chunks when the table carries chunk
	// metadata; <=1 scans serially. Chunks map to disjoint word ranges
	// of the selection bitmap, so results are byte-identical at any
	// worker count.
	Workers int
	// Stats, when non-nil, accumulates chunk decisions.
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

// EvalAndIntoOpts is EvalAndInto with scan options: zone-map pruning is
// always on for chunked tables; Workers additionally shards the scan.
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

// compiledPred is one predicate resolved against its column: a per-row
// matcher plus a zone-map decision function. On memory-tiered columns
// the matcher is built per chunk from the fetched payload instead —
// chunks the zone map prunes (or proves all-match) are never fetched,
// so zone maps filter I/O, not just CPU.
type compiledPred struct {
	colIdx int
	match  func(i int) bool
	zone   func(zm storage.ZoneMap, chunkRows int) zoneVerdict
	// lazyCol and mkMatch replace match on lazy columns: the payload of
	// a chunk starting at row lo yields that chunk's row matcher.
	lazyCol *storage.LazyColumn
	mkMatch func(p *storage.ChunkPayload, lo int) func(i int) bool
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
	cp := compiledPred{colIdx: t.Schema().Index(p.Attr)}
	switch c := col.(type) {
	case *storage.Int64Column:
		if p.Kind != query.Range {
			return compiledPred{}, kindErr(p, col)
		}
		vals, m := c.Values(), compileRange(p)
		cp.match = func(i int) bool {
			return m.match(float64(vals[i])) && !c.IsNull(i)
		}
		cp.zone = rangeZone(p)
	case *storage.Float64Column:
		if p.Kind != query.Range {
			return compiledPred{}, kindErr(p, col)
		}
		vals, m := c.Values(), compileRange(p)
		cp.match = func(i int) bool {
			return m.match(vals[i]) && !c.IsNull(i)
		}
		cp.zone = rangeZone(p)
	case *storage.StringColumn:
		if p.Kind != query.In {
			return compiledPred{}, kindErr(p, col)
		}
		admit := make([]bool, c.Cardinality())
		admitWords := make([]uint64, (c.Cardinality()+63)/64)
		any := false
		for _, v := range p.Values {
			if code, ok := c.CodeOf(v); ok {
				admit[code] = true
				admitWords[code/64] |= uint64(1) << uint(code%64)
				any = true
			}
		}
		if !any {
			cp.match = func(int) bool { return false }
			cp.zone = zonePruneAlways
			cp.never = true
			break
		}
		codes := c.Codes()
		// Null check first: null rows may carry placeholder codes.
		cp.match = func(i int) bool {
			return !c.IsNull(i) && admit[codes[i]]
		}
		cp.zone = codeSetZone(admitWords)
	case *storage.BoolColumn:
		if p.Kind != query.BoolEq {
			return compiledPred{}, kindErr(p, col)
		}
		vals := c.Values()
		cp.match = func(i int) bool {
			return vals[i] == p.BoolVal && !c.IsNull(i)
		}
		cp.zone = zoneNullOnly
	case *storage.LazyColumn:
		return compileLazyPred(cp, c, p)
	default:
		return compiledPred{}, fmt.Errorf("engine: unsupported column type %T", col)
	}
	return cp, nil
}

// compileLazyPred resolves a predicate against a memory-tiered column:
// same zone rules as the eager kinds, but the row matcher is built per
// chunk from the fetched payload.
func compileLazyPred(cp compiledPred, c *storage.LazyColumn, p query.Predicate) (compiledPred, error) {
	cp.lazyCol = c
	switch c.Type() {
	case storage.Int64, storage.Float64:
		if p.Kind != query.Range {
			return compiledPred{}, kindErr(p, c)
		}
		cp.zone = rangeZone(p)
		m := compileRange(p)
		cp.mkMatch = func(pl *storage.ChunkPayload, lo int) func(i int) bool {
			return func(i int) bool {
				l := i - lo
				return m.match(pl.Numeric(l)) && !pl.IsNull(l)
			}
		}
	case storage.String:
		if p.Kind != query.In {
			return compiledPred{}, kindErr(p, c)
		}
		dict, err := c.DictValues()
		if err != nil {
			return compiledPred{}, err
		}
		admit := make([]bool, len(dict))
		admitWords := make([]uint64, (len(dict)+63)/64)
		index := make(map[string]uint32, len(dict))
		for code, v := range dict {
			index[v] = uint32(code)
		}
		any := false
		for _, v := range p.Values {
			if code, ok := index[v]; ok {
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
		cp.mkMatch = func(pl *storage.ChunkPayload, lo int) func(i int) bool {
			return func(i int) bool {
				l := i - lo
				// Null check first: null rows may carry placeholder codes.
				return !pl.IsNull(l) && admit[pl.Codes[l]]
			}
		}
	case storage.Bool:
		if p.Kind != query.BoolEq {
			return compiledPred{}, kindErr(p, c)
		}
		cp.zone = zoneNullOnly
		cp.mkMatch = func(pl *storage.ChunkPayload, lo int) func(i int) bool {
			return func(i int) bool {
				l := i - lo
				return pl.Bools[l] == p.BoolVal && !pl.IsNull(l)
			}
		}
	default:
		return compiledPred{}, fmt.Errorf("engine: unsupported lazy column type %v", c.Type())
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

// evalCompiled narrows sel by every compiled predicate. Chunked tables
// go chunk by chunk, consulting zone maps and optionally sharding chunks
// across workers; unchunked tables use the whole-range fused kernel.
// On memory-tiered tables a chunk's payload is fetched only when a
// predicate's verdict is "scan" — pruned and all-match chunks stay
// undecoded — and fetch failures (corrupt or truncated chunks) surface
// as errors.
func evalCompiled(t *storage.Table, cps []compiledPred, sel *bitvec.Vector, opts ScanOptions) error {
	if len(cps) == 0 {
		return nil
	}
	// The context's ledger is billed at exactly the sites opts.Stats is,
	// so a query's ledger delta equals the ScanStats delta it produced.
	ctx := opts.context()
	led := obsv.LedgerFrom(ctx)
	words := sel.Words()
	ck := t.Chunking()
	if ck == nil {
		for i := range cps {
			if err := obsv.CheckCtx(ctx, "engine.scan"); err != nil {
				return err
			}
			if cps[i].never {
				sel.Zero()
				return nil
			}
			if cps[i].lazyCol != nil {
				return fmt.Errorf("engine: lazy column scan requires chunk metadata")
			}
			andWordsRange(words, 0, len(words), cps[i].match)
			if !sel.Any() {
				return nil
			}
		}
		return nil
	}
	numChunks := ck.NumChunks(t.NumRows())
	wordsPerChunk := ck.Size / 64
	lastRows := t.NumRows() - (numChunks-1)*ck.Size
	chunkRowsOf := func(k int) int {
		if k == numChunks-1 {
			return lastRows
		}
		return ck.Size
	}
	// A lazy fetch is preceded by the hint of the window it opens — the
	// chunk, then those this predicate will certainly scan after it — so a
	// remote source that would miss loads them in one round trip instead;
	// pruned, all-match and possibly-emptied chunks are never named.
	certain := certainFetches(cps, ck.Zones, words, wordsPerChunk, numChunks, chunkRowsOf)
	scanChunk := func(k int) error {
		// Chunk-granular cancellation: a dead caller abandons the scan
		// here, before any fetch or row test for this chunk.
		if err := obsv.CheckCtx(ctx, "engine.scan"); err != nil {
			return err
		}
		w0 := k * wordsPerChunk
		w1 := w0 + wordsPerChunk
		if w1 > len(words) {
			w1 = len(words)
		}
		chunkRows := ck.Size
		if k == numChunks-1 {
			chunkRows = lastRows
		}
		for i := range cps {
			if !anyWordsRange(words, w0, w1) {
				return nil
			}
			cp := &cps[i]
			switch cp.zone(ck.Zones[cp.colIdx][k], chunkRows) {
			case zonePrune:
				zeroWordsRange(words, w0, w1)
				if opts.Stats != nil {
					opts.Stats.ChunksPruned.Add(1)
				}
				led.ChunkPruned()
				return nil
			case zoneFull:
				if opts.Stats != nil {
					opts.Stats.ChunksFull.Add(1)
				}
				led.ChunkFull()
			default:
				match := cp.match
				if cp.lazyCol != nil {
					var window [storage.PrefetchWindow]int
					cp.lazyCol.PrefetchHint(ctx, fetchWindow(window[:0], certain[i], k))
					pl, hit, err := cp.lazyCol.Chunk(ctx, k)
					if err != nil {
						return err
					}
					countFetch(opts.Stats, hit)
					led.ChunkFetch(hit)
					match = cp.mkMatch(pl, k*ck.Size)
				}
				andWordsRange(words, w0, w1, match)
				if opts.Stats != nil {
					opts.Stats.ChunksScanned.Add(1)
				}
				led.ChunkScanned()
			}
		}
		return nil
	}
	workers := opts.Workers
	if workers > numChunks {
		workers = numChunks
	}
	if workers <= 1 {
		for k := 0; k < numChunks; k++ {
			if err := scanChunk(k); err != nil {
				return err
			}
		}
		return nil
	}
	return par.For(workers, numChunks, scanChunk)
}

// certainFetches lists, per predicate on a lazy column (nil entries
// otherwise), the chunks the scan will certainly fetch for it: chunks
// holding a selected row at scan start, on which every earlier
// predicate's zone verdict is full — so their bits are untouched when
// this predicate's turn comes — and its own is scan. Only these may be
// hinted: a hint names chunks the scan reads, never ones an earlier
// predicate could still empty.
func certainFetches(cps []compiledPred, zones [][]storage.ZoneMap, words []uint64, wordsPerChunk, numChunks int, chunkRows func(int) int) [][]int {
	certain := make([][]int, len(cps))
	lazy := false
	for i := range cps {
		lazy = lazy || cps[i].lazyCol != nil
	}
	if !lazy {
		return certain
	}
	for k := 0; k < numChunks; k++ {
		w0 := k * wordsPerChunk
		if !anyWordsRange(words, w0, min(w0+wordsPerChunk, len(words))) {
			continue
		}
		for i := range cps {
			v := cps[i].zone(zones[cps[i].colIdx][k], chunkRows(k))
			if v == zoneScan && cps[i].lazyCol != nil {
				certain[i] = append(certain[i], k)
			}
			if v != zoneFull {
				break
			}
		}
	}
	return certain
}

// fetchWindow appends to dst the hint that precedes a fetch of chunk k
// for a predicate whose certain fetches are certain: k, then the certain
// chunks after it.
func fetchWindow(dst, certain []int, k int) []int {
	dst = append(dst, k)
	ti := sort.SearchInts(certain, k+1)
	return append(dst, certain[ti:min(ti+storage.PrefetchWindow-1, len(certain))]...)
}

// andWordsRange clears, in every non-zero word of words[w0:w1], the bits
// whose rows fail match. Zero words are skipped entirely, so the cost of
// a conjunction shrinks with its selectivity.
func andWordsRange(words []uint64, w0, w1 int, match func(i int) bool) {
	for wi := w0; wi < w1; wi++ {
		w := words[wi]
		if w == 0 {
			continue
		}
		keep := w
		for m := w; m != 0; m &= m - 1 {
			bi := bits.TrailingZeros64(m)
			if !match(wi*64 + bi) {
				keep &^= uint64(1) << uint(bi)
			}
		}
		words[wi] = keep
	}
}

func zeroWordsRange(words []uint64, w0, w1 int) {
	for wi := w0; wi < w1; wi++ {
		words[wi] = 0
	}
}

func anyWordsRange(words []uint64, w0, w1 int) bool {
	for wi := w0; wi < w1; wi++ {
		if words[wi] != 0 {
			return true
		}
	}
	return false
}
