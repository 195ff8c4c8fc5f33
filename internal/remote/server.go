// Package remote implements the shard fabric: serving one .atl shard
// from its own process (atlasd -serve-shard) and consuming such shards
// from a coordinator that opens a manifest whose shard locations are
// http(s):// URLs. It is the scale-out seam of the atlas — the same
// manifest, zone maps, mergeable partial statistics and decoded-chunk
// cache as the local sharded store, with HTTP between the coordinator
// and each shard's data.
//
// # Two RPC planes
//
// The statistics plane answers per-shard aggregate questions where the
// data lives — values in row order, category and boolean counts,
// mergeable ColumnPartial bundles (fixed-edge histograms, GK sketches),
// per-predicate bitmap counts — so a sharded exploration's column
// statistics fan out as N small requests and reduce through the
// existing merge layer (internal/shard/partial.go), byte-identical to
// the local computation.
//
// The chunk plane serves raw encoded chunk payloads by (column, chunk):
// the coordinator's storage.ChunkSource for that shard, feeding the
// shared decoded-chunk cache. The wire format IS the .atl chunk
// encoding, so v3 per-chunk CRCs travel along and are re-verified on
// the client; zone-map pruning and manifest-level shard pruning
// (ShardMayMatch, deferred opens) skip whole requests the way they skip
// file reads locally.
//
// # Endpoints (all under /shard/v1/)
//
//	GET  meta                         shard identity (rows, chunk size, schema)
//	GET  zones                        per-(column, chunk) zone maps
//	GET  dict?col=N                   string column dictionary
//	GET  chunk?col=N&chunk=K          raw encoded chunk bytes + CRC header
//	GET  values?attr=A                non-NULL numeric values, row order (binary)
//	GET  catcounts?attr=A             per-code counts, local dictionary
//	GET  boolcounts?attr=A            (false, true) tallies
//	POST batchstats                   every listed attribute's stats, one trip
//	POST partials                     mergeable ColumnPartial per requested column
//	POST predcount                    rows matching one predicate (+ its bitmap
//	                                  when the request sets wantBits)
//	GET  health                       liveness probe
//
// Shard tables are immutable, so the server memoizes each attribute's
// statistics the first time any stats endpoint asks for them; repeat
// RPCs — and the batchstats fan-in — answer from that cache instead of
// rescanning the column.
package remote

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitvec"
	"repro/internal/colstore"
	"repro/internal/engine"
	"repro/internal/obsv"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/storage"
)

// Server serves one opened .atl shard over the fabric protocol. It is
// safe for concurrent use (the store and engine entry points are).
type Server struct {
	st  *colstore.Store
	tbl *storage.Table

	// statCache memoizes per-attribute statistics (the table is
	// immutable, so a column's sorted run never changes); statComputes
	// counts actual column scans, so tests can prove repeat RPCs hit
	// the cache.
	statMu       sync.Mutex
	statCache    map[string]*statEntry
	statComputes atomic.Int64

	requests    atomic.Int64
	bytesOut    atomic.Int64
	chunkServes atomic.Int64

	// draining flips when the process received SIGTERM: health answers
	// not-OK with 503 so coordinators rotate away, while data-plane
	// endpoints keep serving until the listener drains.
	draining atomic.Bool

	// SlowThreshold, when positive, logs fabric requests that took at
	// least this long through SlowLog (set both before serving).
	SlowThreshold time.Duration
	// SlowLog receives slow-request lines; nil disables logging.
	SlowLog func(format string, args ...any)
}

// NewServer wraps an opened shard store. The store stays owned by the
// caller (Close it after the HTTP server stops).
func NewServer(st *colstore.Store) *Server {
	return &Server{st: st, tbl: st.Table(), statCache: make(map[string]*statEntry)}
}

// ServerStats counts what a shard server has sent.
type ServerStats struct {
	// Requests counts fabric requests served (including errors).
	Requests int64
	// BytesOut counts response body bytes of successful answers.
	BytesOut int64
	// StatComputes counts per-attribute statistics actually computed
	// (cache misses); repeat stats RPCs do not move it.
	StatComputes int64
	// ChunkServes counts chunk-plane payloads served.
	ChunkServes int64
}

// SetDraining flips the server's drain state: a draining shard answers
// health probes with 503 / OK=false (so replica rotation and load
// balancers stop sending new work here) while in-flight data-plane
// requests finish normally.
func (s *Server) SetDraining(on bool) { s.draining.Store(on) }

// Draining reports the drain state.
func (s *Server) Draining() bool { return s.draining.Load() }

// Stats snapshots the server's counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Requests:     s.requests.Load(),
		BytesOut:     s.bytesOut.Load(),
		StatComputes: s.statComputes.Load(),
		ChunkServes:  s.chunkServes.Load(),
	}
}

// statEntry is one attribute's memoized statistics: exactly one of the
// three shapes is populated, by the attribute's type.
type statEntry struct {
	mu   sync.Mutex
	done bool

	enc    []byte // numeric: the encoded row-order value stream
	count  int    // numeric: value count
	dict   []string
	counts []int
	falses int
	trues  int
}

// statFor computes (once) and returns attr's statistics. Concurrent
// first touches of one attribute single-flight behind its entry lock;
// different attributes compute concurrently. Failures are NOT cached —
// a lazy store's transient read error must not poison the attribute
// until restart.
func (s *Server) statFor(ctx context.Context, attr string) (*statEntry, error) {
	s.statMu.Lock()
	e := s.statCache[attr]
	if e == nil {
		e = &statEntry{}
		s.statCache[attr] = e
	}
	s.statMu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		if sp := obsv.SpanFrom(ctx); sp != nil {
			sp.SetAttr("statCached", true)
		}
		return e, nil
	}
	_, sp := obsv.StartSpan(ctx, "statcompute "+attr)
	defer sp.End()
	var f *storage.Field
	for _, fd := range s.tbl.Schema().Fields() {
		if fd.Name == attr {
			fd := fd
			f = &fd
			break
		}
	}
	if f == nil {
		return nil, fmt.Errorf("unknown attribute %q", attr)
	}
	full := bitvec.NewFull(s.tbl.NumRows())
	var err error
	// The caller's context (deadline header included) rides into the
	// column scan, so statcompute work whose caller already gave up is
	// abandoned at chunk granularity instead of run to completion.
	switch {
	case f.Type.IsNumeric():
		var vals []float64
		if vals, err = engine.NumericValuesUnderCtx(ctx, s.tbl, attr, full); err == nil {
			e.enc, e.count = encodeFloats(vals), len(vals)
		}
	case f.Type == storage.String:
		e.dict, e.counts, err = engine.CategoryCountsUnderCtx(ctx, s.tbl, attr, full)
	default:
		e.falses, e.trues, err = engine.BoolCountsUnderCtx(ctx, s.tbl, attr, full)
	}
	if err != nil {
		s.statMu.Lock()
		delete(s.statCache, attr)
		s.statMu.Unlock()
		return nil, err
	}
	e.done = true
	s.statComputes.Add(1)
	return e, nil
}

// Handler returns the fabric routing. Mount it at the server root (the
// paths carry the /shard/v1/ prefix).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /shard/v1/meta", s.wrap("meta", s.handleMeta))
	mux.HandleFunc("GET /shard/v1/zones", s.wrap("zones", s.handleZones))
	mux.HandleFunc("GET /shard/v1/dict", s.wrap("dict", s.handleDict))
	mux.HandleFunc("GET /shard/v1/chunk", s.wrap("chunk", s.handleChunk))
	mux.HandleFunc("GET /shard/v1/values", s.wrap("values", s.handleValues))
	mux.HandleFunc("GET /shard/v1/catcounts", s.wrap("catcounts", s.handleCatCounts))
	mux.HandleFunc("GET /shard/v1/boolcounts", s.wrap("boolcounts", s.handleBoolCounts))
	mux.HandleFunc("POST /shard/v1/batchstats", s.wrap("batchstats", s.handleBatchStats))
	mux.HandleFunc("POST /shard/v1/partials", s.wrap("partials", s.handlePartials))
	mux.HandleFunc("POST /shard/v1/predcount", s.wrap("predcount", s.handlePredCount))
	mux.HandleFunc("GET /shard/v1/health", s.wrap("health", s.handleHealth))
	mux.HandleFunc("GET /shard/v1/stats", s.wrap("stats", s.handleStats))
	return mux
}

// wrap is the per-endpoint middleware: request counting, slow-request
// logging, and — only when the coordinator sent a trace header — a
// server-side span tree returned in the response headers. Traced
// responses are buffered so the span tree is complete before any byte
// (or the Content-Length header) goes out; untraced requests write
// straight through and pay nothing.
func (s *Server) wrap(op string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		began := time.Now()
		rid := r.Header.Get(headerRequestID)
		// The coordinator's remaining deadline budget bounds this
		// request's context, so statcompute and chunk work the caller
		// will never read is abandoned server-side too.
		rctx := r.Context()
		if hv := r.Header.Get(headerDeadline); hv != "" {
			if ms, err := strconv.ParseInt(hv, 10, 64); err == nil && ms > 0 {
				var cancel context.CancelFunc
				rctx, cancel = context.WithTimeout(rctx, time.Duration(ms)*time.Millisecond)
				defer cancel()
			}
		}
		traceID, _, traced := obsv.ParseTraceHeader(r.Header.Get(headerTrace))
		if !traced {
			h(w, r.WithContext(rctx))
			s.logSlow(op, rid, time.Since(began))
			return
		}
		tr, root := obsv.NewTraceWithID(traceID, "shard "+op)
		ctx := obsv.WithSpan(rctx, root)
		if rid != "" {
			ctx = obsv.WithRequestID(ctx, rid)
		}
		rec := newBufferedResponse()
		h(rec, r.WithContext(ctx))
		root.End()
		if enc, err := obsv.EncodeSpanTree(tr.Tree()); err == nil {
			rec.hdr.Set(headerSpans, enc)
		}
		rec.flush(w)
		s.logSlow(op, rid, time.Since(began))
	}
}

// logSlow emits one slow-request line when the server is configured for
// it. The request id (when the coordinator sent one) joins this line
// with the client-side ShardError and the coordinator's own slow-query
// log.
func (s *Server) logSlow(op, rid string, dur time.Duration) {
	if s.SlowThreshold <= 0 || dur < s.SlowThreshold || s.SlowLog == nil {
		return
	}
	if rid == "" {
		rid = "-"
	}
	s.SlowLog("slow shard request: op=%s rid=%s dur=%s", op, rid, dur)
}

// bufferedResponse holds a traced response until its span tree is
// attached. Handlers fully materialize bodies anyway (writeBody), so
// buffering adds one copy, only on traced requests.
type bufferedResponse struct {
	hdr    http.Header
	status int
	body   []byte
}

func newBufferedResponse() *bufferedResponse {
	return &bufferedResponse{hdr: make(http.Header)}
}

func (b *bufferedResponse) Header() http.Header { return b.hdr }

func (b *bufferedResponse) WriteHeader(status int) {
	if b.status == 0 {
		b.status = status
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	b.body = append(b.body, p...)
	return len(p), nil
}

func (b *bufferedResponse) flush(w http.ResponseWriter) {
	for k, vs := range b.hdr {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	if b.status == 0 {
		b.status = http.StatusOK
	}
	w.WriteHeader(b.status)
	_, _ = w.Write(b.body)
}

// writeBody writes a fully-materialized binary body with its length
// declared, so clients detect truncation.
func (s *Server) writeBody(w http.ResponseWriter, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
	s.bytesOut.Add(int64(len(body)))
}

func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeBody(w, "application/json", data)
}

func httpError(w http.ResponseWriter, status int, err error) {
	http.Error(w, err.Error(), status)
}

func (s *Server) handleMeta(w http.ResponseWriter, _ *http.Request) {
	dto := metaDTO{
		Table:     s.tbl.Name(),
		Rows:      s.tbl.NumRows(),
		ChunkSize: s.st.ChunkSize,
		Version:   int(s.st.WireVersion()),
	}
	for _, f := range s.tbl.Schema().Fields() {
		dto.Columns = append(dto.Columns, colDTO{Name: f.Name, Type: typeName(f.Type)})
	}
	s.writeJSON(w, dto)
}

func (s *Server) handleZones(w http.ResponseWriter, _ *http.Request) {
	ck := s.tbl.Chunking()
	if ck == nil {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("shard table has no chunk metadata"))
		return
	}
	dto := zonesDTO{Zones: make([][]zoneDTO, len(ck.Zones))}
	for ci, zones := range ck.Zones {
		out := make([]zoneDTO, len(zones))
		for k, zm := range zones {
			out[k] = zoneToDTO(zm)
		}
		dto.Zones[ci] = out
	}
	s.writeJSON(w, dto)
}

// colParam parses and bounds-checks a column index parameter.
func (s *Server) colParam(r *http.Request) (int, error) {
	ci, err := strconv.Atoi(r.URL.Query().Get("col"))
	if err != nil || ci < 0 || ci >= s.tbl.NumCols() {
		return 0, fmt.Errorf("bad column %q", r.URL.Query().Get("col"))
	}
	return ci, nil
}

func (s *Server) handleDict(w http.ResponseWriter, r *http.Request) {
	ci, err := s.colParam(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if s.tbl.Schema().Field(ci).Type != storage.String {
		httpError(w, http.StatusBadRequest, fmt.Errorf("column %d is not a string column", ci))
		return
	}
	var dict []string
	switch c := s.tbl.Column(ci).(type) {
	case *storage.StringColumn:
		dict = c.Dict()
	case *storage.LazyColumn:
		dict, err = c.DictValues()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
	default:
		httpError(w, http.StatusInternalServerError, fmt.Errorf("column %d is %T", ci, s.tbl.Column(ci)))
		return
	}
	s.writeJSON(w, dictDTO{Values: dict})
}

func (s *Server) handleChunk(w http.ResponseWriter, r *http.Request) {
	ci, err := s.colParam(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	k, err := strconv.Atoi(r.URL.Query().Get("chunk"))
	if err != nil || k < 0 || k >= s.st.NumChunks() {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad chunk %q", r.URL.Query().Get("chunk")))
		return
	}
	raw, crc, err := s.st.RawChunk(ci, k)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set(headerChunkCRC, fmt.Sprintf("%08x", crc))
	w.Header().Set(headerChunkLen, strconv.Itoa(len(raw)))
	s.chunkServes.Add(1)
	s.writeBody(w, "application/octet-stream", raw)
}

// attrStatus classifies an attr parameter: 400 when the request itself
// is wrong (unknown attribute, wrong type family — retrying cannot
// help), leaving later compute failures to surface as 500 so the
// client's transient-failure retry applies to them.
func (s *Server) attrStatus(attr string, want func(storage.DataType) bool) error {
	for _, f := range s.tbl.Schema().Fields() {
		if f.Name == attr {
			if !want(f.Type) {
				return fmt.Errorf("attribute %q has the wrong type for this endpoint", attr)
			}
			return nil
		}
	}
	return fmt.Errorf("unknown attribute %q", attr)
}

func (s *Server) handleValues(w http.ResponseWriter, r *http.Request) {
	attr := r.URL.Query().Get("attr")
	if err := s.attrStatus(attr, storage.DataType.IsNumeric); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	e, err := s.statFor(r.Context(), attr)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set(headerCount, strconv.Itoa(e.count))
	s.writeBody(w, "application/octet-stream", e.enc)
}

func (s *Server) handleCatCounts(w http.ResponseWriter, r *http.Request) {
	attr := r.URL.Query().Get("attr")
	if err := s.attrStatus(attr, func(t storage.DataType) bool { return t == storage.String }); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	e, err := s.statFor(r.Context(), attr)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, catCountsDTO{Dict: e.dict, Counts: e.counts})
}

func (s *Server) handleBoolCounts(w http.ResponseWriter, r *http.Request) {
	attr := r.URL.Query().Get("attr")
	if err := s.attrStatus(attr, func(t storage.DataType) bool { return t == storage.Bool }); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	e, err := s.statFor(r.Context(), attr)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, boolCountsDTO{Falses: e.falses, Trues: e.trues})
}

// handleBatchStats answers every listed attribute's statistics in one
// response: a JSON header locating each numeric attribute's float
// stream in the binary blob that follows (see encodeBatch). All
// answers come from the same memoized entries the per-attribute
// endpoints use.
func (s *Server) handleBatchStats(w http.ResponseWriter, r *http.Request) {
	var req batchReqDTO
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return
	}
	schema := s.tbl.Schema()
	hdr := batchHeaderDTO{Stats: make([]batchStatDTO, 0, len(req.Attrs))}
	var blob []byte
	for _, attr := range req.Attrs {
		if err := s.attrStatus(attr, func(storage.DataType) bool { return true }); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		var typ storage.DataType
		for _, f := range schema.Fields() {
			if f.Name == attr {
				typ = f.Type
				break
			}
		}
		e, err := s.statFor(r.Context(), attr)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		switch {
		case typ.IsNumeric():
			hdr.Stats = append(hdr.Stats, batchStatDTO{Attr: attr, Kind: "numeric", Off: len(blob), Count: e.count})
			blob = append(blob, e.enc...)
		case typ == storage.String:
			hdr.Stats = append(hdr.Stats, batchStatDTO{Attr: attr, Kind: "cat", Dict: e.dict, Counts: e.counts})
		default:
			hdr.Stats = append(hdr.Stats, batchStatDTO{Attr: attr, Kind: "bool", Falses: e.falses, Trues: e.trues})
		}
	}
	body, err := encodeBatch(hdr, blob)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeBody(w, "application/octet-stream", body)
}

func (s *Server) handlePartials(w http.ResponseWriter, r *http.Request) {
	var req partialsReqDTO
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return
	}
	ctx, psp := obsv.StartSpan(r.Context(), "partials compute")
	defer psp.End()
	out := make([]partialDTO, len(req.Specs))
	for i, spec := range req.Specs {
		var lo, hi float64
		var err error
		if spec.Lo != "" {
			if lo, err = parseFbits(spec.Lo); err != nil {
				httpError(w, http.StatusBadRequest, err)
				return
			}
		}
		if spec.Hi != "" {
			if hi, err = parseFbits(spec.Hi); err != nil {
				httpError(w, http.StatusBadRequest, err)
				return
			}
		}
		if spec.Col < 0 || spec.Col >= s.tbl.NumCols() {
			httpError(w, http.StatusBadRequest, fmt.Errorf("column %d out of range", spec.Col))
			return
		}
		p, err := shard.ComputeColumnPartial(ctx, s.tbl, spec.Col, lo, hi, spec.UseHist)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		out[i] = partialToDTO(p)
	}
	s.writeJSON(w, out)
}

func (s *Server) handlePredCount(w http.ResponseWriter, r *http.Request) {
	var dto predDTO
	if err := json.NewDecoder(r.Body).Decode(&dto); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return
	}
	p, err := predFromDTO(dto)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.attrStatus(p.Attr, func(storage.DataType) bool { return true }); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	_, psp := obsv.StartSpan(r.Context(), "predicate eval")
	defer psp.End()
	if dto.WantBits {
		// The caller wants the selection bitmap itself, so session base
		// assembly can skip the chunk plane even for non-empty answers.
		sel, err := engine.EvalPredicate(s.tbl, p)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		s.writeJSON(w, countDTO{Count: sel.Count(), Bits: encodeWords(sel.Words())})
		return
	}
	n, err := engine.Count(s.tbl, query.New(s.tbl.Name(), p))
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, countDTO{Count: n})
}

// handleStats answers GET /shard/v1/stats: the server's own counters
// in one RPC — request/byte tallies, statistics-cache and chunk-plane
// activity, drain state, store I/O (for the cache hit rate) and build
// identity — so a coordinator can roll the whole fleet into one
// Prometheus scrape without asking N endpoints per shard. Stats stay
// served while draining: a draining shard should still be observable.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	io := s.st.IOStats()
	s.writeJSON(w, shardStatsDTO{
		Table:         s.tbl.Name(),
		Rows:          s.tbl.NumRows(),
		Requests:      s.requests.Load(),
		BytesOut:      s.bytesOut.Load(),
		StatComputes:  s.statComputes.Load(),
		ChunkServes:   s.chunkServes.Load(),
		Draining:      s.draining.Load(),
		BytesRead:     io.BytesRead,
		ChunksDecoded: io.ChunksDecoded,
		CacheHits:     io.CacheHits,
		CacheBytes:    io.CacheBytes,
		Version:       obsv.Version,
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		// 503 so clients treat the probe as a failure and rotate away;
		// the body still says who is drained.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		data, _ := json.Marshal(healthDTO{OK: false, Table: s.tbl.Name(), Rows: s.tbl.NumRows()})
		_, _ = w.Write(data)
		return
	}
	s.writeJSON(w, healthDTO{OK: true, Table: s.tbl.Name(), Rows: s.tbl.NumRows()})
}
