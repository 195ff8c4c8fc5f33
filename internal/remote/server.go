// Package remote implements the shard fabric: serving one .atl shard
// from its own process (atlasd -serve-shard) and consuming such shards
// from a coordinator that opens a manifest whose shard locations are
// http(s):// URLs. It is the scale-out seam of the atlas — the same
// manifest, zone maps, mergeable statistics and decoded-chunk cache as
// the local sharded store, with HTTP between the coordinator
// and each shard's data.
//
// # Two RPC planes
//
// The statistics plane answers per-shard questions where the data
// lives, in one call: cut (one CUT read under the shard's slice of a
// selection — a numeric column's selected values with their rows and
// summary, category or boolean counts, the partition of the selected
// rows by a cut's predicates, or any columns' summaries with fixed-edge
// bin counts; no slice means every row) — so a sharded exploration's
// cuts fan out as small requests to the shards holding selected rows,
// and reduce in shard order (internal/shard/provider.go), byte-identical
// to the local computation; a set's column table (Set.Partials) is two
// summary rounds over every row.
//
// The chunk plane serves raw encoded chunk payloads: the coordinator's
// storage.ChunkSource for that shard, feeding the shared decoded-chunk
// cache. One POST names a column and an ascending list of chunks — a
// scan's window, or a single missed chunk — and the answer is one body
// of frames (k, len, crc, bytes). The wire format IS the .atl chunk
// encoding, so the directory's per-chunk CRCs travel in the frames and
// are re-verified on the client; zone-map pruning (the manifest's zone
// maps, on deferred sets before the shard connects) keeps chunks out of
// the request the way it skips file reads locally.
//
// # Endpoints (all under /shard/v1/)
//
//	GET  meta                         open snapshot: identity, schema, zone maps, dictionaries
//	POST chunk                        one column's listed chunks, one CRC'd frame each
//	POST cut                          one CUT read or summary under a selection slice
//	GET  health                       liveness probe
//	GET  stats                        the server's own counters
package remote

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/colstore"
	"repro/internal/obsv"
	"repro/internal/shard"
	"repro/internal/storage"
)

// Server serves one opened .atl shard over the fabric protocol. It is
// safe for concurrent use (the store and engine entry points are).
type Server struct {
	st  *colstore.Store
	tbl *storage.Table

	// statComputes counts the cut answers computed.
	statComputes atomic.Int64

	requests    atomic.Int64
	bytesOut    atomic.Int64
	chunkServes atomic.Int64

	// bufs recycles the framed chunk and cut answers.
	bufs *bufPool
	// answers recycles the cut answers the frames are encoded from.
	answers sync.Pool

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
	return &Server{st: st, tbl: st.Table(), bufs: newBufPool(),
		answers: sync.Pool{New: func() any { return new(shard.CutAnswer) }}}
}

// ServerStats counts what a shard server has sent.
type ServerStats struct {
	// Requests counts fabric requests served (including errors).
	Requests int64
	// BytesOut counts response body bytes of successful answers.
	BytesOut int64
	// StatComputes counts the cut answers computed.
	StatComputes int64
	// ChunkServes counts chunk-plane payloads served.
	ChunkServes int64
}

// SetDraining flips the server's drain state: a draining shard answers
// health probes with 503 / OK=false (so replica rotation and load
// balancers stop sending new work here) while in-flight data-plane
// requests finish normally.
func (s *Server) SetDraining(on bool) { s.draining.Store(on) }

// Stats snapshots the server's counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Requests:     s.requests.Load(),
		BytesOut:     s.bytesOut.Load(),
		StatComputes: s.statComputes.Load(),
		ChunkServes:  s.chunkServes.Load(),
	}
}

// Handler returns the fabric routing. Mount it at the server root (the
// paths carry the /shard/v1/ prefix).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /shard/v1/meta", s.wrap("meta", s.handleMeta))
	mux.HandleFunc("POST /shard/v1/chunk", s.wrap("chunk", s.handleChunk))
	mux.HandleFunc("POST /shard/v1/cut", s.wrap("cut", s.handleCut))
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

// handleMeta answers GET /shard/v1/meta: the shard's whole open
// snapshot in one body.
func (s *Server) handleMeta(w http.ResponseWriter, _ *http.Request) {
	dto := metaDTO{
		Table:     s.tbl.Name(),
		Rows:      s.tbl.NumRows(),
		ChunkSize: s.st.ChunkSize,
		Version:   int(s.st.WireVersion()),
	}
	zones := s.tbl.Chunking().Zones
	for ci, f := range s.tbl.Schema().Fields() {
		col := colDTO{Name: f.Name, Type: typeName(f.Type), Zones: colstore.EncodeZones(zones[ci])}
		if f.Type == storage.String {
			dict, err := storage.Dictionary(s.tbl.Column(ci))
			if err != nil {
				httpError(w, http.StatusInternalServerError, err)
				return
			}
			col.Dict = dict
		}
		dto.Columns = append(dto.Columns, col)
	}
	s.writeJSON(w, dto)
}

// handleChunk answers POST /shard/v1/chunk: one frame per requested
// chunk (see chunkReqDTO), each chunk's stored bytes appended straight
// into one recycled buffer with its directory CRC — no per-chunk copy,
// header or allocation.
func (s *Server) handleChunk(w http.ResponseWriter, r *http.Request) {
	var req chunkReqDTO
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return
	}
	if req.Col < 0 || req.Col >= s.tbl.NumCols() {
		httpError(w, http.StatusBadRequest, fmt.Errorf("column %d out of range", req.Col))
		return
	}
	if len(req.Chunks) == 0 || len(req.Chunks) > storage.PrefetchWindow {
		httpError(w, http.StatusBadRequest, fmt.Errorf("%d chunks requested, want 1 to %d", len(req.Chunks), storage.PrefetchWindow))
		return
	}
	for i, k := range req.Chunks {
		if k < 0 || k >= s.st.NumChunks() || i > 0 && k <= req.Chunks[i-1] {
			httpError(w, http.StatusBadRequest, fmt.Errorf("chunk list %v is not distinct, ascending chunks of %d", req.Chunks, s.st.NumChunks()))
			return
		}
	}
	buf := s.bufs.get(0)
	defer func() { s.bufs.put(buf) }()
	for _, k := range req.Chunks {
		at := len(buf)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(k))
		buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // len and crc, known once appended
		var crc uint32
		var err error
		if buf, crc, err = s.st.AppendRawChunk(buf, req.Col, k); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		binary.LittleEndian.PutUint32(buf[at+4:], uint32(len(buf)-at-frameHeaderLen))
		binary.LittleEndian.PutUint32(buf[at+8:], crc)
	}
	s.chunkServes.Add(int64(len(req.Chunks)))
	s.writeBody(w, "application/octet-stream", buf)
}

// handleCut answers POST /shard/v1/cut: one CUT read of the shard
// under the request's slice of the selection (see cutwire.go), computed
// by shard.ComputeCut and framed into a recycled buffer under its CRC.
// A malformed request is a 400; a failed computation a 500, which the
// client retries.
func (s *Server) handleCut(w http.ResponseWriter, r *http.Request) {
	// The largest well-formed request: a selection of every word, plus
	// the predicates of a partition.
	limit := int64(14 + 8*s.st.NumChunks()*s.st.ChunkSize/64 + 1<<20)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("reading cut request: %w", err))
		return
	}
	req, err := parseCutRequest(body, s.tbl.Schema(), s.tbl.NumRows())
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("invalid cut request: %w", err))
		return
	}
	// The caller's context (deadline header included) rides into the
	// column pass, so a cut whose caller already gave up is abandoned
	// at chunk granularity instead of run to completion.
	names := make([]string, len(req.Cols))
	for i, ci := range req.Cols {
		names[i] = s.tbl.Schema().Field(ci).Name
	}
	ctx, sp := obsv.StartSpan(r.Context(), "cut "+strings.Join(names, ","))
	defer sp.End()
	a := s.answers.Get().(*shard.CutAnswer)
	defer s.answers.Put(a)
	buf := s.bufs.get(0)
	defer func() { s.bufs.put(buf) }()
	buf = append(buf, 0, 0, 0, 0)
	// A values answer is computed and encoded a column at a time, so it
	// holds one column's values, not every column's.
	one := req
	for c := range req.Cols {
		if req.Kind == shard.CutValues {
			one.Cols = req.Cols[c : c+1]
		} else if c > 0 {
			break
		}
		if err := shard.ComputeCut(ctx, s.tbl, one, a); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		buf = appendCutPayload(buf, one, s.tbl.Schema(), a)
	}
	buf = sealCutAnswer(buf, 0)
	s.statComputes.Add(1)
	s.writeBody(w, "application/octet-stream", buf)
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
