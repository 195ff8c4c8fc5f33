package obsv

import (
	"context"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Ledger is the per-query resource bill: every counter the layers below
// already keep (engine scan verdicts, store bytes/decodes, fabric RPCs)
// is additionally charged to the context's Ledger at the same code
// sites, so one Explore or drill-down gets an exact, query-scoped
// account instead of store-lifetime aggregates.
//
// A nil *Ledger is the disabled ledger — every method is a no-op — so
// unledgered paths pay one context lookup and a nil check, mirroring
// the nil-*Span discipline of this package.
//
// Two planes are kept deliberately distinct:
//
//   - the scan plane (ChunksScanned/Pruned/Full/Decoded/CacheHits)
//     mirrors engine.ScanStats: it bills exactly where a scan's
//     ScanOptions.Stats bills, so the ledger delta of one query equals
//     the ScanStats delta the same query produced;
//   - the store plane (BytesRead/StoreChunksDecoded) mirrors
//     colstore.IOStats (and, for remote shards, the client's per-shard
//     I/O counters): it bills inside the chunk loaders themselves, so
//     it also covers fetches the scan plane never sees (screening,
//     whole-column summaries and partials, prefetched windows).
type Ledger struct {
	// scan plane — mirrors engine.ScanStats.
	chunksScanned  atomic.Int64
	chunksPruned   atomic.Int64
	chunksFull     atomic.Int64
	chunksDecoded  atomic.Int64
	chunkCacheHits atomic.Int64

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

	mu     sync.Mutex
	phases []PhaseCost

	// cancelledAt names the first stage that observed cancellation
	// (empty for queries that ran to completion).
	cancelledAt atomic.Pointer[string]
}

// PhaseCost is the wall-clock (and best-effort CPU) time one pipeline
// phase spent, as recorded by the Cartographer's phase hooks.
type PhaseCost struct {
	Name   string `json:"name"`
	WallNs int64  `json:"wallNs"`
	CPUNs  int64  `json:"cpuNs,omitempty"`
}

// NewLedger opens a ledger and captures the process CPU/allocation
// baselines for Finish.
func NewLedger() *Ledger {
	l := &Ledger{}
	l.startCPUNs = processCPUNs()
	l.startAllocB = totalAllocBytes()
	return l
}

// --- scan plane ---

// ChunkScanned bills one (predicate, chunk) pair whose rows were tested.
func (l *Ledger) ChunkScanned() {
	if l != nil {
		l.chunksScanned.Add(1)
	}
}

// ChunkPruned bills one zone-map prune verdict.
func (l *Ledger) ChunkPruned() {
	if l != nil {
		l.chunksPruned.Add(1)
	}
}

// ChunkFull bills one zone-map full-match verdict.
func (l *Ledger) ChunkFull() {
	if l != nil {
		l.chunksFull.Add(1)
	}
}

// ChunkFetch bills one lazy chunk fetch seen by the scan: a decode on
// miss, a cache hit otherwise.
func (l *Ledger) ChunkFetch(hit bool) {
	if l == nil {
		return
	}
	if hit {
		l.chunkCacheHits.Add(1)
	} else {
		l.chunksDecoded.Add(1)
	}
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

// --- process costs and phases ---

// AddPhase records one pipeline phase's wall (and CPU) time.
func (l *Ledger) AddPhase(name string, wallNs, cpuNs int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.phases = append(l.phases, PhaseCost{Name: name, WallNs: wallNs, CPUNs: cpuNs})
	l.mu.Unlock()
}

// StartPhase opens one phase bookend: the returned function records
// the phase's wall-clock (and best-effort process CPU) time under name.
// Nil ledgers return a no-op, so callers bookend unconditionally.
func (l *Ledger) StartPhase(name string) func() {
	if l == nil {
		return func() {}
	}
	wall := time.Now()
	cpu := processCPUNs()
	return func() {
		l.AddPhase(name, time.Since(wall).Nanoseconds(), processCPUNs()-cpu)
	}
}

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
// query log.
type LedgerSnapshot struct {
	ChunksScanned      int64       `json:"chunksScanned"`
	ChunksPruned       int64       `json:"chunksPruned"`
	ChunksFull         int64       `json:"chunksFull"`
	ChunksDecoded      int64       `json:"chunksDecoded"`
	ChunkCacheHits     int64       `json:"chunkCacheHits"`
	BytesRead          int64       `json:"bytesRead"`
	StoreChunksDecoded int64       `json:"storeChunksDecoded"`
	RPCs               int64       `json:"rpcs"`
	BytesWire          int64       `json:"bytesWire"`
	CPUNs              int64       `json:"cpuNs,omitempty"`
	AllocBytes         int64       `json:"allocBytes,omitempty"`
	CancelledAt        string      `json:"cancelledAt,omitempty"`
	Phases             []PhaseCost `json:"phases,omitempty"`
}

// Snapshot copies the ledger. Phases come back sorted by name so the
// output is deterministic regardless of phase scheduling.
func (l *Ledger) Snapshot() LedgerSnapshot {
	if l == nil {
		return LedgerSnapshot{}
	}
	l.mu.Lock()
	phases := append([]PhaseCost(nil), l.phases...)
	l.mu.Unlock()
	sort.Slice(phases, func(i, j int) bool { return phases[i].Name < phases[j].Name })
	return LedgerSnapshot{
		ChunksScanned:      l.chunksScanned.Load(),
		ChunksPruned:       l.chunksPruned.Load(),
		ChunksFull:         l.chunksFull.Load(),
		ChunksDecoded:      l.chunksDecoded.Load(),
		ChunkCacheHits:     l.chunkCacheHits.Load(),
		BytesRead:          l.bytesRead.Load(),
		StoreChunksDecoded: l.storeChunksDecoded.Load(),
		RPCs:               l.rpcs.Load(),
		BytesWire:          l.bytesWire.Load(),
		CPUNs:              l.cpuNs.Load(),
		AllocBytes:         l.allocBytes.Load(),
		CancelledAt:        l.CancelledAt(),
		Phases:             phases,
	}
}

// Add accumulates another query's snapshot into this ledger — the
// server's lifetime totals. Phase entries are not accumulated.
func (l *Ledger) Add(s LedgerSnapshot) {
	if l == nil {
		return
	}
	l.chunksScanned.Add(s.ChunksScanned)
	l.chunksPruned.Add(s.ChunksPruned)
	l.chunksFull.Add(s.ChunksFull)
	l.chunksDecoded.Add(s.ChunksDecoded)
	l.chunkCacheHits.Add(s.ChunkCacheHits)
	l.bytesRead.Add(s.BytesRead)
	l.storeChunksDecoded.Add(s.StoreChunksDecoded)
	l.rpcs.Add(s.RPCs)
	l.bytesWire.Add(s.BytesWire)
	l.cpuNs.Add(s.CPUNs)
	l.allocBytes.Add(s.AllocBytes)
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
