package obsv

import (
	"context"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
)

// Ledger is the per-query resource bill: every counter the layers below
// keep for one query (engine scan verdicts, store bytes/decodes, fabric
// RPCs) is charged to the context's Ledger at the code site that does
// the work, so one Explore or drill-down gets an exact, query-scoped
// account. Lifetime views (a server's /api/stats and metrics) are sums
// of query ledgers, never a second counter.
//
// A nil *Ledger is the disabled ledger — every method is a no-op — so
// unledgered paths pay one context lookup and a nil check, mirroring
// the nil-*Span discipline of this package.
//
// Two planes are kept deliberately distinct:
//
//   - the scan plane (ScanStats: chunks scanned/pruned/full, and the
//     decodes and cache hits of the chunks a scan fetched) is billed by
//     the engine, once per verdict and once per fetch;
//   - the store plane (BytesRead/StoreChunksDecoded) mirrors
//     colstore.IOStats (and, for remote shards, the client's per-shard
//     I/O counters): it bills inside the chunk loaders themselves, so
//     it also covers fetches the scan plane never sees (screening,
//     whole-column summaries and partials, prefetched windows).
//
// Phase timings are not kept here: a query's phases are the spans of
// its trace (see PhasesOf).
type Ledger struct {
	scan ScanStats

	// store plane — mirrors colstore.IOStats / remote client I/O.
	bytesRead          atomic.Int64
	storeChunksDecoded atomic.Int64

	// fabric plane — mirrors the remote opener's attempt accounting.
	rpcs      atomic.Int64
	bytesWire atomic.Int64

	// begin/Finish bookends for process-level costs (best effort:
	// process-wide counters, so concurrent queries cross-bill).
	startCPUNs    int64
	startAllocB   uint64
	cpuNs         atomic.Int64
	allocBytes    atomic.Int64
	finalizedOnce sync.Once

	// cancelledAt names the first stage that observed cancellation
	// (empty for queries that ran to completion).
	cancelledAt atomic.Pointer[string]
}

// ScanStats is the scan plane: chunk-level scan decisions, one per chunk
// a conjunctive scan visits, judged for all its predicates at once —
// ChunksScanned (rows tested), ChunksPruned (a zone map proves no row
// matches: disjoint range or all NULL) and ChunksFull (they prove every
// row matches) — and
// the lazy chunk fetches of a pass: ChunksDecoded (cache misses; pruned
// and all-match chunks never decode, which makes zone maps an I/O
// filter) and ChunkCacheHits (decoded-cache hits and zero-copy payloads
// of already-resident columns). The counters are atomics so
// chunk-parallel scans share one ScanStats. A nil *ScanStats bills
// nothing.
type ScanStats struct {
	ChunksScanned, ChunksPruned, ChunksFull atomic.Int64
	ChunksDecoded, ChunkCacheHits           atomic.Int64
}

// ScanSnapshot is a plain-value copy of a ScanStats.
type ScanSnapshot struct {
	ChunksScanned  int64 `json:"chunksScanned"`
	ChunksPruned   int64 `json:"chunksPruned"`
	ChunksFull     int64 `json:"chunksFull"`
	ChunksDecoded  int64 `json:"chunksDecoded"`
	ChunkCacheHits int64 `json:"chunkCacheHits"`
}

// BillScanned bills one chunk whose rows were tested.
func (s *ScanStats) BillScanned() {
	if s != nil {
		s.ChunksScanned.Add(1)
	}
}

// BillPruned bills one zone-map prune verdict.
func (s *ScanStats) BillPruned() {
	if s != nil {
		s.ChunksPruned.Add(1)
	}
}

// BillFull bills one zone-map full-match verdict.
func (s *ScanStats) BillFull() {
	if s != nil {
		s.ChunksFull.Add(1)
	}
}

// BillFetch bills one lazy chunk fetch: a decode on miss, a cache hit
// otherwise.
func (s *ScanStats) BillFetch(hit bool) {
	switch {
	case s == nil:
	case hit:
		s.ChunkCacheHits.Add(1)
	default:
		s.ChunksDecoded.Add(1)
	}
}

// Snapshot copies the counters; a nil ScanStats reads as zero.
func (s *ScanStats) Snapshot() ScanSnapshot {
	if s == nil {
		return ScanSnapshot{}
	}
	return ScanSnapshot{
		ChunksScanned:  s.ChunksScanned.Load(),
		ChunksPruned:   s.ChunksPruned.Load(),
		ChunksFull:     s.ChunksFull.Load(),
		ChunksDecoded:  s.ChunksDecoded.Load(),
		ChunkCacheHits: s.ChunkCacheHits.Load(),
	}
}

func (s *ScanStats) add(d ScanSnapshot) {
	s.ChunksScanned.Add(d.ChunksScanned)
	s.ChunksPruned.Add(d.ChunksPruned)
	s.ChunksFull.Add(d.ChunksFull)
	s.ChunksDecoded.Add(d.ChunksDecoded)
	s.ChunkCacheHits.Add(d.ChunkCacheHits)
}

// PhaseCost is the wall-clock time one pipeline phase spent, read off
// the phase's span.
type PhaseCost struct {
	Name   string `json:"name"`
	WallNs int64  `json:"wallNs"`
}

// NewLedger opens a ledger and captures the process CPU/allocation
// baselines for Finish.
func NewLedger() *Ledger {
	l := &Ledger{}
	l.startCPUNs = processCPUNs()
	l.startAllocB = totalAllocBytes()
	return l
}

// Scan returns the ledger's scan plane, nil for the disabled ledger.
func (l *Ledger) Scan() *ScanStats {
	if l == nil {
		return nil
	}
	return &l.scan
}

// --- store plane ---

// ReadBytes bills n bytes read from a segment file or received over the
// chunk plane.
func (l *Ledger) ReadBytes(n int64) {
	if l != nil {
		l.bytesRead.Add(n)
	}
}

// StoreChunkDecoded bills one chunk payload decoded by a store loader.
func (l *Ledger) StoreChunkDecoded() {
	if l != nil {
		l.storeChunksDecoded.Add(1)
	}
}

// --- fabric plane ---

// RPC bills one remote shard RPC issued on the query's behalf.
func (l *Ledger) RPC() {
	if l != nil {
		l.rpcs.Add(1)
	}
}

// WireBytes bills n response-body bytes received over the fabric.
func (l *Ledger) WireBytes(n int64) {
	if l != nil {
		l.bytesWire.Add(n)
	}
}

// MarkCancelled records the first stage that observed the query's
// cancellation; later marks (deeper layers unwinding the same query)
// are ignored so the snapshot names where the unwind began.
func (l *Ledger) MarkCancelled(stage string) {
	if l == nil || stage == "" {
		return
	}
	l.cancelledAt.CompareAndSwap(nil, &stage)
}

// CancelledAt returns the stage that first observed cancellation, or
// "" for uncancelled queries.
func (l *Ledger) CancelledAt() string {
	if l == nil {
		return ""
	}
	if p := l.cancelledAt.Load(); p != nil {
		return *p
	}
	return ""
}

// --- process costs ---

// Finish closes the CPU/allocation bookends opened by NewLedger. Safe
// to call more than once; only the first call records.
func (l *Ledger) Finish() {
	if l == nil {
		return
	}
	l.finalizedOnce.Do(func() {
		if d := processCPUNs() - l.startCPUNs; d > 0 {
			l.cpuNs.Store(d)
		}
		if d := totalAllocBytes() - l.startAllocB; d < 1<<62 { // guard underflow
			l.allocBytes.Store(int64(d))
		}
	})
}

// LedgerSnapshot is a plain-value copy of a Ledger for DTOs and the
// query log. Phases is filled by whoever holds the query's finished span
// tree (see PhasesOf); a ledger's own Snapshot leaves it empty.
type LedgerSnapshot struct {
	ScanSnapshot
	BytesRead          int64       `json:"bytesRead"`
	StoreChunksDecoded int64       `json:"storeChunksDecoded"`
	RPCs               int64       `json:"rpcs"`
	BytesWire          int64       `json:"bytesWire"`
	CPUNs              int64       `json:"cpuNs,omitempty"`
	AllocBytes         int64       `json:"allocBytes,omitempty"`
	CancelledAt        string      `json:"cancelledAt,omitempty"`
	Phases             []PhaseCost `json:"phases,omitempty"`
}

// Snapshot copies the ledger.
func (l *Ledger) Snapshot() LedgerSnapshot {
	if l == nil {
		return LedgerSnapshot{}
	}
	return LedgerSnapshot{
		ScanSnapshot:       l.scan.Snapshot(),
		BytesRead:          l.bytesRead.Load(),
		StoreChunksDecoded: l.storeChunksDecoded.Load(),
		RPCs:               l.rpcs.Load(),
		BytesWire:          l.bytesWire.Load(),
		CPUNs:              l.cpuNs.Load(),
		AllocBytes:         l.allocBytes.Load(),
		CancelledAt:        l.CancelledAt(),
	}
}

// Add accumulates another query's snapshot into this ledger — the
// server's lifetime totals. Phase entries are not accumulated.
func (l *Ledger) Add(s LedgerSnapshot) {
	if l == nil {
		return
	}
	l.scan.add(s.ScanSnapshot)
	l.bytesRead.Add(s.BytesRead)
	l.storeChunksDecoded.Add(s.StoreChunksDecoded)
	l.rpcs.Add(s.RPCs)
	l.bytesWire.Add(s.BytesWire)
	l.cpuNs.Add(s.CPUNs)
	l.allocBytes.Add(s.AllocBytes)
}

// PhasesOf reads a query's phase timings off its finished span tree:
// one entry per direct child of the root but the one named skip, sorted
// by name so the output is deterministic regardless of phase
// scheduling. A nil tree has no phases.
func PhasesOf(root *SpanJSON, skip string) []PhaseCost {
	if root == nil {
		return nil
	}
	var out []PhaseCost
	for _, c := range root.Children {
		if c.Name != skip {
			out = append(out, PhaseCost{Name: c.Name, WallNs: c.DurNs})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WithLedger returns a context carrying l as the current ledger.
func WithLedger(ctx context.Context, l *Ledger) context.Context {
	return context.WithValue(ctx, ledgerCtxKey, l)
}

// LedgerFrom returns the context's ledger, or nil when the context is
// unledgered (or nil). Values survive context.WithoutCancel, so async
// prefetches spawned on a query's behalf keep billing it.
func LedgerFrom(ctx context.Context) *Ledger {
	if ctx == nil {
		return nil
	}
	l, _ := ctx.Value(ledgerCtxKey).(*Ledger)
	return l
}

// allocSample reads the process-lifetime allocated-bytes counter via
// runtime/metrics (no stop-the-world, unlike runtime.ReadMemStats).
var allocSamplePool = sync.Pool{New: func() any {
	s := make([]metrics.Sample, 1)
	s[0].Name = "/gc/heap/allocs:bytes"
	return &s
}}

func totalAllocBytes() uint64 {
	sp := allocSamplePool.Get().(*[]metrics.Sample)
	metrics.Read(*sp)
	v := (*sp)[0].Value
	allocSamplePool.Put(sp)
	if v.Kind() != metrics.KindUint64 {
		return 0
	}
	return v.Uint64()
}
