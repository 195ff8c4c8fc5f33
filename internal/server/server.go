// Package server exposes the mapping engine over HTTP/JSON — the back
// end of the paper's third architecture layer (the Web GUI, Figure 6).
// It serves stateless explorations and stateful drill-down sessions.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/obsv"
	"repro/internal/par"
	"repro/internal/remote"
	"repro/internal/session"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Server holds one explorable table and its sessions. All requests that
// run with the server's default options share a single Cartographer —
// safe for concurrent use — so its column-stat cache warms once and
// serves every session and stateless exploration — and every request
// shares one result cache, so a map is computed once however many
// sessions, prefetches and stateless explorations ask for it.
type Server struct {
	table *storage.Table
	opts  core.Options
	cart  *core.Cartographer // shared; nil only when opts fail validation
	// set is non-nil when serving a sharded table: sessions assemble
	// selections per shard, the stat cache fills from merged per-shard
	// partials, and /api/shards reports the layout.
	set *shard.Set
	// store is non-nil when serving a single-file store; with set it
	// feeds the lazy-I/O counters of /api/stats.
	store *colstore.Store
	// closeStore releases what NewFromStoreWith opened (see Close); nil
	// when the caller owns the table or set.
	closeStore func() error
	// partialsOnce guards the merged per-column partials behind
	// /api/shards: tables are immutable, so the per-shard scans run once
	// and every later request serves the cached reduction.
	partialsOnce sync.Once
	partials     []*shard.ColumnPartial
	partialsErr  error

	// sessions is the bounded session registry (see sessions.go).
	sessions *sessionTable
	// results is the single-flight result cache shared by stateless
	// explorations, session explorations, drill-downs and prefetches.
	results *session.ResultCache

	// Observability (see obsv.go): the lazily-built metric registry
	// behind GET /metrics, the fabric opener's traffic counters when
	// remote shards are served, the store I/O sampler, and the
	// slow-query log configuration.
	regOnce sync.Once
	reg     *obsv.Registry
	metrics *serverMetrics
	fabric  fabricStats
	ioStats func() colstore.IOStats

	slowMu        sync.Mutex
	slowThreshold time.Duration
	slowLog       func(format string, args ...any)

	// Query insights (see insights.go): the bounded query-log ring and
	// the lifetime ledger totals accumulated from every query's bill.
	qlog   *obsv.QueryLog
	totals *obsv.Ledger

	// wrec captures the query stream as a bounded, replayable workload
	// (see workload.go in this package): always on in memory, exported
	// by GET /api/workload, streamed to disk by atlasd -record-workload.
	wrec *workload.Recorder

	// fleet polls remote shard servers' own counters and rolls them up
	// into atlas_fabric_shard_* metric families and the fabric section
	// of /api/stats (see fleet.go); nil for unsharded servers.
	fleet *fleetPoller

	// Admission (see admission.go): the bounded concurrency gate and
	// drain switch every query handler passes through.
	gate *admissionGate
}

// New creates a server over a table with the given pipeline defaults.
func New(table *storage.Table, opts core.Options) *Server {
	s := &Server{table: table, opts: opts, sessions: newSessionTable(), results: session.NewResultCache(),
		qlog: obsv.NewQueryLog(obsv.DefaultQueryLogDepth), totals: &obsv.Ledger{},
		gate: newAdmissionGate(),
		wrec: workload.NewRecorder(table.Name(), workload.RecorderOptions{MaxEntries: workloadCaptureDepth})}
	if cart, err := core.NewCartographer(table, opts); err == nil {
		s.cart = cart
	}
	return s
}

// NewSharded creates a server over an opened shard set: explorations run
// on the combined table with column statistics reduced from per-shard
// partials, and sessions keep their predicate-bitmap LRU keyed per
// shard.
func NewSharded(set *shard.Set, opts core.Options) *Server {
	s := &Server{table: set.Table(), opts: opts, set: set, sessions: newSessionTable(), results: session.NewResultCache(),
		qlog: obsv.NewQueryLog(obsv.DefaultQueryLogDepth), totals: &obsv.Ledger{},
		gate: newAdmissionGate(),
		wrec: workload.NewRecorder(set.Table().Name(), workload.RecorderOptions{MaxEntries: workloadCaptureDepth})}
	if cart, err := core.NewCartographerWith(s.table, opts, set.Provider(opts.Parallelism)); err == nil {
		s.cart = cart
	}
	s.ioStats = set.IOStats
	s.fleet = newFleetPoller(set)
	return s
}

// NewFromStore opens an on-disk store and serves its table directly: no
// CSV re-parse on start, and every exploration scans with zone-map
// pruning and chunk-parallel sharding. path may be a single ".atl"
// segment store (see internal/colstore) or a shard manifest (see
// internal/shard) — manifests open every shard and serve the sharded
// table with fan-out explorations.
func NewFromStore(path string, opts core.Options) (*Server, error) {
	return NewFromStoreWith(path, opts, StoreConfig{})
}

// StoreConfig carries the memory-tier knobs of a store-backed server.
type StoreConfig struct {
	// Store is passed to every file open (residency mode, cache budget).
	Store colstore.Options
	// Defer postpones opening shard files until first touch (sharded
	// stores with a v2 manifest only).
	Defer bool
	// Remote opens http(s):// shard locations; nil uses a default
	// internal/remote opener, so remote manifests serve out of the box.
	Remote shard.RemoteOpener
}

// NewFromStoreWith is NewFromStore with explicit memory-tier options.
func NewFromStoreWith(path string, opts core.Options, sc StoreConfig) (*Server, error) {
	if shard.IsManifest(path) {
		opener := sc.Remote
		var own *remote.Opener
		if opener == nil {
			own = remote.NewOpener(remote.Options{})
			opener = own
		}
		set, err := shard.OpenWith(path, shard.Options{Store: sc.Store, Defer: sc.Defer, Remote: opener})
		if err != nil {
			return nil, err
		}
		srv := NewSharded(set, opts)
		if f, ok := opener.(fabricStats); ok {
			srv.fabric = f
		}
		srv.closeStore = func() error {
			err := set.Close()
			if own != nil {
				own.Close()
			}
			return err
		}
		return srv, nil
	}
	st, err := colstore.OpenWith(path, sc.Store)
	if err != nil {
		return nil, err
	}
	s := New(st.Table(), opts)
	s.store = st
	s.ioStats = st.IOStats
	s.closeStore = st.Close
	return s, nil
}

// Close releases what NewFromStoreWith opened: the store or shard set
// and, when the server built its own remote opener, that opener's idle
// connections (an opener passed in StoreConfig.Remote stays the
// caller's to close). Call it once the HTTP side has stopped serving.
// A server built by New or NewSharded owns nothing; Close is a no-op.
func (s *Server) Close() error {
	if s.closeStore == nil {
		return nil
	}
	return s.closeStore()
}

// Table returns the served table.
func (s *Server) Table() *storage.Table { return s.table }

// cartFor returns the shared Cartographer when the effective options
// match the server defaults, and builds a throwaway one otherwise (WITH
// overrides change the pipeline configuration).
func (s *Server) cartFor(opts core.Options) (*core.Cartographer, error) {
	if s.cart != nil && opts == s.opts {
		return s.cart, nil
	}
	if s.set != nil {
		return core.NewCartographerWith(s.table, opts, s.set.Provider(opts.Parallelism))
	}
	return core.NewCartographer(s.table, opts)
}

// newSession builds a session on the shared Cartographer and the shared
// result cache, sharded when the server serves a shard set.
func (s *Server) newSession(cart *core.Cartographer) *session.Session {
	if s.set != nil {
		return session.NewWithCache(cart, s.set, s.results)
	}
	return session.NewWithCache(cart, nil, s.results)
}

// Handler returns the HTTP routing for the API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/schema", s.handleSchema)
	mux.HandleFunc("POST /api/explore", s.handleExplore)
	mux.HandleFunc("POST /api/sessions", s.handleNewSession)
	mux.HandleFunc("GET /api/sessions/{id}", s.withSession(s.handleCurrent))
	mux.HandleFunc("GET /api/sessions/{id}/history", s.withSession(s.handleHistory))
	mux.HandleFunc("POST /api/sessions/{id}/explore", s.withSession(s.handleSessionExplore))
	mux.HandleFunc("POST /api/sessions/{id}/drill", s.withSession(s.handleDrill))
	mux.HandleFunc("POST /api/sessions/{id}/back", s.withSession(s.handleBack))
	mux.HandleFunc("POST /api/sessions/{id}/describe", s.withSession(s.handleDescribe))
	mux.HandleFunc("GET /api/sessions/{id}/personalized", s.withSession(s.handlePersonalized))
	mux.HandleFunc("GET /api/shards", s.handleShards)
	mux.HandleFunc("POST /api/explain", s.handleExplain)
	mux.HandleFunc("GET /api/querylog", s.handleQueryLog)
	mux.HandleFunc("GET /api/workload", s.handleWorkload)
	mux.HandleFunc("GET /api/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.Registry().Handler())
	return s.withObservability(mux)
}

// ---- DTOs ----

// FieldDTO describes one schema field.
type FieldDTO struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// SchemaDTO describes the served table.
type SchemaDTO struct {
	Table  string     `json:"table"`
	Rows   int        `json:"rows"`
	Fields []FieldDTO `json:"fields"`
}

// RegionDTO is one region of a map.
type RegionDTO struct {
	Query string  `json:"query"`
	Count int     `json:"count"`
	Cover float64 `json:"cover"`
}

// MapDTO is one ranked data map.
type MapDTO struct {
	Attrs   []string    `json:"attrs"`
	Entropy float64     `json:"entropy"`
	Regions []RegionDTO `json:"regions"`
}

// ResultDTO is the answer to one exploration.
type ResultDTO struct {
	Input     string   `json:"input"`
	TotalRows int      `json:"totalRows"`
	BaseCount int      `json:"baseCount"`
	ElapsedMs float64  `json:"elapsedMs"`
	Maps      []MapDTO `json:"maps"`
	Flagged   []string `json:"flagged,omitempty"`
	// Profile is the exploration's span tree, present when the request
	// asked for one (?profile=1). Offsets are nanoseconds from the
	// trace start; remote (shard-server) subtrees are flagged.
	Profile *obsv.SpanJSON `json:"profile,omitempty"`
	// ProfilePerfetto is the same trace as Chrome trace-event JSON
	// (?profile=perfetto) — save it to a file and open it in Perfetto.
	ProfilePerfetto json.RawMessage `json:"profilePerfetto,omitempty"`
	// Ledger is the query's resource bill — always present: every query
	// runs with a ledger threaded through its context.
	Ledger *obsv.LedgerSnapshot `json:"ledger,omitempty"`
}

// NodeDTO is one session node.
type NodeDTO struct {
	ID       int       `json:"id"`
	Parent   int       `json:"parent"`
	Children []int     `json:"children"`
	Result   ResultDTO `json:"result"`
}

func toResultDTO(r *core.Result) ResultDTO {
	out := ResultDTO{
		Input:     r.Input.String(),
		TotalRows: r.TotalRows,
		BaseCount: r.BaseCount,
		ElapsedMs: float64(r.Elapsed.Microseconds()) / 1000.0,
	}
	for _, m := range r.Maps {
		md := MapDTO{Attrs: m.Attrs, Entropy: m.Entropy}
		for _, reg := range m.Regions {
			md.Regions = append(md.Regions, RegionDTO{
				Query: reg.Query.String(),
				Count: reg.Count,
				Cover: reg.Cover,
			})
		}
		out.Maps = append(out.Maps, md)
	}
	for _, f := range r.Flagged {
		out.Flagged = append(out.Flagged, fmt.Sprintf("%s (%s)", f.Attr, f.Reason))
	}
	return out
}

func toNodeDTO(n *session.Node) NodeDTO {
	return NodeDTO{
		ID:       n.ID,
		Parent:   n.Parent,
		Children: append([]int(nil), n.Children...),
		Result:   toResultDTO(n.Result),
	}
}

// ---- handlers ----

type exploreRequest struct {
	CQL string `json:"cql"`
}

type drillRequest struct {
	Map    int `json:"map"`
	Region int `json:"region"`
}

func (s *Server) handleSchema(w http.ResponseWriter, _ *http.Request) {
	dto := SchemaDTO{Table: s.table.Name(), Rows: s.table.NumRows()}
	for _, f := range s.table.Schema().Fields() {
		dto.Fields = append(dto.Fields, FieldDTO{Name: f.Name, Type: f.Type.String()})
	}
	writeJSON(w, http.StatusOK, dto)
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	var req exploreRequest
	if !readJSON(w, r, &req) {
		return
	}
	release, err := s.admit(r, "explore", req.CQL, workload.StatelessSession)
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()
	qr := s.startQuery(r, "explore")
	res, cached, err := s.runCQL(qr.ctx, req.CQL)
	qr.cached = cached
	tree := qr.finish(s, "explore", req.CQL, workload.StatelessSession, err)
	if err != nil {
		writeError(w, err)
		return
	}
	dto := toResultDTO(res)
	qr.attach(w, &dto, tree)
	writeJSON(w, http.StatusOK, dto)
}

// runCQL parses, binds and executes a stateless CQL exploration,
// honoring its WITH options, through the shared result cache: WITH
// overrides that change the pipeline options are cached under their own
// key. cached reports that no pipeline ran for this call. A trace span
// in ctx profiles the run.
func (s *Server) runCQL(ctx context.Context, input string) (res *core.Result, cached bool, err error) {
	q, opts, err := cql.ParseAndBind(input, s.table)
	if err != nil {
		return nil, false, &badRequest{err}
	}
	effective, err := cql.ApplyOptions(s.opts, opts)
	if err != nil {
		return nil, false, &badRequest{err}
	}
	return s.results.Get(ctx, effective, q, func() (*core.Result, error) {
		cart, err := s.cartFor(effective)
		if err != nil {
			return nil, err
		}
		return cart.ExploreCtx(ctx, q)
	})
}

func (s *Server) handleNewSession(w http.ResponseWriter, _ *http.Request) {
	cart, err := s.cartFor(s.opts)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int{"id": s.sessions.add(s.newSession(cart))})
}

func (s *Server) handleSessionExplore(w http.ResponseWriter, r *http.Request, sess *session.Session, sid int) {
	var req exploreRequest
	if !readJSON(w, r, &req) {
		return
	}
	q, _, err := cql.ParseAndBind(req.CQL, s.table)
	if err != nil {
		writeError(w, &badRequest{err})
		return
	}
	release, err := s.admit(r, "session-explore", req.CQL, sid)
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()
	qr := s.startQuery(r, "session-explore")
	node, err := sess.ExploreCtx(qr.ctx, q)
	qr.cached = err == nil && node.Cached
	tree := qr.finish(s, "session-explore", req.CQL, sid, err)
	if err != nil {
		writeError(w, err)
		return
	}
	sess.Prefetch(4) // anticipative computation, Section 5.1
	dto := toNodeDTO(node)
	qr.attach(w, &dto.Result, tree)
	writeJSON(w, http.StatusOK, dto)
}

func (s *Server) handleDrill(w http.ResponseWriter, r *http.Request, sess *session.Session, sid int) {
	var req drillRequest
	if !readJSON(w, r, &req) {
		return
	}
	input := fmt.Sprintf("drill map=%d region=%d", req.Map, req.Region)
	release, err := s.admit(r, "drill", input, sid)
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()
	qr := s.startQuery(r, "drill")
	node, err := sess.DrillDownCtx(qr.ctx, req.Map, req.Region)
	qr.cached = err == nil && node.Cached
	tree := qr.finish(s, "drill", input, sid, err)
	if err != nil {
		// Cancellations and deadlines are the caller's lifecycle, not a
		// bad request — let writeError pick their status.
		if obsv.IsCancellation(err) {
			writeError(w, err)
		} else {
			writeError(w, &badRequest{err})
		}
		return
	}
	sess.Prefetch(4)
	dto := toNodeDTO(node)
	qr.attach(w, &dto.Result, tree)
	writeJSON(w, http.StatusOK, dto)
}

func (s *Server) handleBack(w http.ResponseWriter, r *http.Request, sess *session.Session, _ int) {
	node, err := sess.Back()
	if err != nil {
		writeError(w, &badRequest{err})
		return
	}
	writeJSON(w, http.StatusOK, toNodeDTO(node))
}

func (s *Server) handleCurrent(w http.ResponseWriter, r *http.Request, sess *session.Session, _ int) {
	node, err := sess.Current()
	if err != nil {
		writeError(w, &notFound{err})
		return
	}
	writeJSON(w, http.StatusOK, toNodeDTO(node))
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request, sess *session.Session, _ int) {
	var out []NodeDTO
	for _, n := range sess.History() {
		out = append(out, toNodeDTO(n))
	}
	writeJSON(w, http.StatusOK, out)
}

// ProfileDTO is one attribute explanation for a region.
type ProfileDTO struct {
	Attr     string  `json:"attr"`
	Interest float64 `json:"interest"`
	Summary  string  `json:"summary"`
}

// handleDescribe explains one region of the current node's maps: the
// Section 5.2 "why is this region interesting" view.
func (s *Server) handleDescribe(w http.ResponseWriter, r *http.Request, sess *session.Session, _ int) {
	var req drillRequest
	if !readJSON(w, r, &req) {
		return
	}
	cur, err := sess.Current()
	if err != nil {
		writeError(w, &badRequest{err})
		return
	}
	if req.Map < 0 || req.Map >= len(cur.Result.Maps) {
		writeError(w, &badRequest{fmt.Errorf("map index %d out of range", req.Map)})
		return
	}
	m := cur.Result.Maps[req.Map]
	if req.Region < 0 || req.Region >= len(m.Regions) {
		writeError(w, &badRequest{fmt.Errorf("region index %d out of range", req.Region)})
		return
	}
	profiles, err := core.DescribeRegion(s.table, m.Regions[req.Region].Query)
	if err != nil {
		writeError(w, err)
		return
	}
	out := make([]ProfileDTO, 0, len(profiles))
	for _, p := range profiles {
		out = append(out, ProfileDTO{Attr: p.Attr, Interest: p.Interest, Summary: p.String()})
	}
	writeJSON(w, http.StatusOK, out)
}

// handlePersonalized returns the current node's maps re-ranked by the
// session's learned attribute interests (Section 5.2 personalization).
func (s *Server) handlePersonalized(w http.ResponseWriter, r *http.Request, sess *session.Session, _ int) {
	cur, err := sess.Current()
	if err != nil {
		writeError(w, &notFound{err})
		return
	}
	maps := sess.PersonalizedMaps(cur.Result)
	var out []MapDTO
	for _, m := range maps {
		md := MapDTO{Attrs: m.Attrs, Entropy: m.Entropy}
		for _, reg := range m.Regions {
			md.Regions = append(md.Regions, RegionDTO{
				Query: reg.Query.String(),
				Count: reg.Count,
				Cover: reg.Cover,
			})
		}
		out = append(out, md)
	}
	writeJSON(w, http.StatusOK, out)
}

// ShardDTO describes one shard of a sharded table. Remote shards
// (served over the fabric by their own atlasd) additionally report the
// outcome and latency of a liveness probe.
type ShardDTO struct {
	File   string `json:"file"`
	Rows   int    `json:"rows"`
	Offset int    `json:"offset"`
	// Remote reports whether the shard is served over the fabric.
	Remote bool `json:"remote,omitempty"`
	// Opened reports whether the shard's backend has been opened
	// (deferred sets leave untouched shards unopened).
	Opened bool `json:"opened"`
	// Healthy is the probe outcome; omitted for local shards.
	Healthy *bool `json:"healthy,omitempty"`
	// LatencyMs is the probe round trip (remote shards only).
	LatencyMs float64 `json:"latencyMs,omitempty"`
	// Error carries the probe failure, if any.
	Error string `json:"error,omitempty"`
	// Replicas is the per-replica circuit-breaker state of a replicated
	// remote shard.
	Replicas []ReplicaDTO `json:"replicas,omitempty"`
}

// ReplicaDTO is one replica's breaker snapshot on GET /api/shards.
type ReplicaDTO struct {
	URL string `json:"url"`
	// State is "healthy", "tripped" (cooling down) or "probing"
	// (cooldown lapsed, next touch probes half-open).
	State string `json:"state"`
	// Fails is the current consecutive-failure count.
	Fails int `json:"fails,omitempty"`
	// LatencyMs is the last successful round trip.
	LatencyMs float64 `json:"latencyMs,omitempty"`
	// Error is the last failure seen, if any.
	Error string `json:"error,omitempty"`
}

// ShardsDTO describes the sharded layout behind the served table, plus
// merged per-column aggregates reduced from per-shard partials.
type ShardsDTO struct {
	Sharded      bool           `json:"sharded"`
	Partitioning string         `json:"partitioning,omitempty"`
	Key          string         `json:"key,omitempty"`
	ChunkSize    int            `json:"chunkSize,omitempty"`
	Rows         int            `json:"rows"`
	Shards       []ShardDTO     `json:"shards,omitempty"`
	Columns      []ShardColsDTO `json:"columns,omitempty"`
}

// ShardColsDTO is one column's merged aggregate: exact counts plus
// approximate quantiles from the merged per-shard sketches.
type ShardColsDTO struct {
	Name   string    `json:"name"`
	Rows   int       `json:"rows"`
	Nulls  int       `json:"nulls"`
	Min    float64   `json:"min,omitempty"`
	Max    float64   `json:"max,omitempty"`
	Mean   float64   `json:"mean,omitempty"`
	Median float64   `json:"median,omitempty"`
	Hist   []int     `json:"hist,omitempty"`
	Edges  []float64 `json:"histEdges,omitempty"`
}

// handleShards reports the shard layout and the merged partial
// statistics of the served table; unsharded servers report
// {"sharded": false}.
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	if s.set == nil {
		writeJSON(w, http.StatusOK, ShardsDTO{Sharded: false, Rows: s.table.NumRows()})
		return
	}
	m := s.set.Manifest()
	dto := ShardsDTO{
		Sharded:      true,
		Partitioning: string(m.Partitioning),
		Key:          m.Key,
		ChunkSize:    m.ChunkSize,
		Rows:         m.Rows,
	}
	// Probe shards concurrently: one slow or down remote shard costs one
	// probe's latency, not the sum over shards. The probes run under the
	// request's context, so a caller that disconnects stops them.
	healths := make([]shard.ShardHealthInfo, len(m.Shards))
	_ = par.For(len(m.Shards), len(m.Shards), func(i int) error {
		healths[i] = s.set.ShardHealth(r.Context(), i)
		return nil
	})
	if err := obsv.CheckCtx(r.Context(), "server.shards"); err != nil {
		writeError(w, err) // skip the partials pass nobody will read
		return
	}
	for i, sf := range m.Shards {
		sd := ShardDTO{File: sf.File, Rows: sf.Rows, Offset: s.set.ShardOffset(i)}
		h := healths[i]
		sd.Remote, sd.Opened = h.Remote, h.Opened
		if h.Remote {
			healthy := h.Healthy
			sd.Healthy = &healthy
			sd.LatencyMs = float64(h.Latency.Microseconds()) / 1000.0
		}
		if h.Err != nil {
			sd.Error = h.Err.Error()
		}
		for _, r := range h.Replicas {
			rd := ReplicaDTO{
				URL:       r.URL,
				State:     r.State,
				Fails:     r.Fails,
				LatencyMs: float64(r.Latency.Microseconds()) / 1000.0,
			}
			if r.Err != nil {
				rd.Error = r.Err.Error()
			}
			sd.Replicas = append(sd.Replicas, rd)
		}
		dto.Shards = append(dto.Shards, sd)
	}
	s.partialsOnce.Do(func() {
		s.partials, s.partialsErr = s.set.Partials(s.opts.Parallelism)
	})
	if s.partialsErr != nil {
		writeError(w, s.partialsErr)
		return
	}
	for ci, p := range s.partials {
		col := ShardColsDTO{Name: s.table.Schema().Field(ci).Name, Rows: p.Rows, Nulls: p.Nulls}
		if p.HasMinMax {
			col.Min, col.Max = p.Min, p.Max
			if p.Count > 0 {
				col.Mean = p.Sum / float64(p.Count)
			}
			if p.Quantiles != nil && p.Quantiles.Count() > 0 {
				col.Median = p.Quantiles.Median()
			}
			if p.Hist != nil {
				col.Hist = p.Hist.Counts
				col.Edges = p.Hist.Edges
			}
		}
		dto.Columns = append(dto.Columns, col)
	}
	writeJSON(w, http.StatusOK, dto)
}

// ScanStatsDTO reports the shared Cartographer's cumulative chunk-level
// scan decisions — the pruning-efficacy view of production traffic.
type ScanStatsDTO struct {
	ChunksPruned   int64 `json:"chunksPruned"`
	ChunksFull     int64 `json:"chunksFull"`
	ChunksScanned  int64 `json:"chunksScanned"`
	ChunksDecoded  int64 `json:"chunksDecoded"`
	ChunkCacheHits int64 `json:"chunkCacheHits"`
}

// StoreStatsDTO reports a memory-tiered store's I/O counters.
type StoreStatsDTO struct {
	Lazy           bool  `json:"lazy"`
	BytesRead      int64 `json:"bytesRead"`
	ChunksDecoded  int64 `json:"chunksDecoded"`
	CacheHits      int64 `json:"cacheHits"`
	CacheEvictions int64 `json:"cacheEvictions"`
	CacheBytes     int64 `json:"cacheBytes"`
	OpenedShards   int   `json:"openedShards,omitempty"`
}

// FabricStatsDTO reports the remote opener's aggregate traffic plus,
// for coordinators, the fleet rollup: each remote shard server's own
// counters polled over GET /shard/v1/stats (see fleet.go).
type FabricStatsDTO struct {
	RPCs         int64 `json:"rpcs"`
	BytesIn      int64 `json:"bytesIn"`
	ChunkFetches int64 `json:"chunkFetches"`
	Retries      int64 `json:"retries"`
	Failovers    int64 `json:"failovers"`
	BreakerTrips int64 `json:"breakerTrips"`
	// Shards is the per-shard-server rollup; ShardsHealthy counts the
	// members that answered the last poll and are not draining.
	Shards        []FabricShardDTO `json:"shards,omitempty"`
	ShardsHealthy int              `json:"shardsHealthy,omitempty"`
}

// OpLatencyDTO is one operation's latency summary on /api/stats.
type OpLatencyDTO struct {
	Count int64   `json:"count"`
	P50s  float64 `json:"p50s"`
	P99s  float64 `json:"p99s"`
}

// ServerStatsDTO reports the HTTP layer's own counters, with latency
// quantiles estimated from the explore histogram — across every
// operation kind, and broken out per op (explore, session-explore,
// drill) so drill-downs and session explores report their own tails.
type ServerStatsDTO struct {
	Requests    int64   `json:"requests"`
	Errors      int64   `json:"errors"`
	Explores    int64   `json:"explores"`
	SlowQueries int64   `json:"slowQueries"`
	ExploreP50s float64 `json:"exploreP50s"`
	ExploreP99s float64 `json:"exploreP99s"`
	// Ops holds per-operation latency summaries.
	Ops map[string]OpLatencyDTO `json:"ops,omitempty"`
	// QueryLogDepth / QueriesLogged describe the query-log ring.
	QueryLogDepth int    `json:"queryLogDepth"`
	QueriesLogged uint64 `json:"queriesLogged"`
	// LedgerTotals accumulates every query's resource bill since start.
	LedgerTotals *obsv.LedgerSnapshot `json:"ledgerTotals,omitempty"`
}

// StatsDTO is the /api/stats answer.
type StatsDTO struct {
	Scan      ScanStatsDTO       `json:"scan"`
	Store     *StoreStatsDTO     `json:"store,omitempty"`
	Fabric    *FabricStatsDTO    `json:"fabric,omitempty"`
	Server    *ServerStatsDTO    `json:"server,omitempty"`
	Admission *AdmissionStatsDTO `json:"admission,omitempty"`
	// ResultCache reports the shared result cache: only its misses ran
	// the pipeline.
	ResultCache *session.ResultCacheStats `json:"resultCache,omitempty"`
}

// handleStats reports scan-level pruning counters and, for store-backed
// servers, the lazy I/O counters — how many chunks production traffic
// actually decoded versus pruned.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	dto := StatsDTO{}
	if s.cart != nil {
		sn := s.cart.ScanStats()
		dto.Scan = ScanStatsDTO{
			ChunksPruned:   sn.ChunksPruned,
			ChunksFull:     sn.ChunksFull,
			ChunksScanned:  sn.ChunksScanned,
			ChunksDecoded:  sn.ChunksDecoded,
			ChunkCacheHits: sn.ChunkCacheHits,
		}
	}
	switch {
	case s.set != nil:
		io := s.set.IOStats()
		dto.Store = &StoreStatsDTO{
			Lazy:           s.set.LazyViews(),
			BytesRead:      io.BytesRead,
			ChunksDecoded:  io.ChunksDecoded,
			CacheHits:      io.CacheHits,
			CacheEvictions: io.CacheEvictions,
			CacheBytes:     io.CacheBytes,
			OpenedShards:   s.set.OpenedShards(),
		}
	case s.store != nil:
		io := s.store.IOStats()
		dto.Store = &StoreStatsDTO{
			Lazy:           s.store.Lazy(),
			BytesRead:      io.BytesRead,
			ChunksDecoded:  io.ChunksDecoded,
			CacheHits:      io.CacheHits,
			CacheEvictions: io.CacheEvictions,
			CacheBytes:     io.CacheBytes,
		}
	}
	if s.fabric != nil {
		fs := s.fabric.Stats()
		dto.Fabric = &FabricStatsDTO{
			RPCs:         fs.RPCs,
			BytesIn:      fs.BytesIn,
			ChunkFetches: fs.ChunkFetches,
			Retries:      fs.Retries,
			Failovers:    fs.Failovers,
			BreakerTrips: fs.BreakerTrips,
		}
	}
	if shards := s.fleetStats(); shards != nil {
		if dto.Fabric == nil {
			dto.Fabric = &FabricStatsDTO{}
		}
		dto.Fabric.Shards = shards
		for _, sh := range shards {
			if sh.OK && !sh.Draining {
				dto.Fabric.ShardsHealthy++
			}
		}
	}
	s.Registry()
	totals := s.totals.Snapshot()
	dto.Server = &ServerStatsDTO{
		Requests:      s.metrics.httpRequests.Value(),
		Errors:        s.metrics.httpErrors.Value(),
		Explores:      s.metrics.explores.Value(),
		SlowQueries:   s.metrics.slowQueries.Value(),
		ExploreP50s:   s.metrics.exploreHist.Quantile(0.5),
		ExploreP99s:   s.metrics.exploreHist.Quantile(0.99),
		Ops:           s.metrics.opLatencies(),
		QueryLogDepth: s.qlog.Depth(),
		QueriesLogged: s.qlog.Total(),
		LedgerTotals:  &totals,
	}
	dto.Admission = s.admissionStats()
	rc := s.results.Stats()
	dto.ResultCache = &rc
	writeJSON(w, http.StatusOK, dto)
}

// ---- plumbing ----

type badRequest struct{ error }

func (b *badRequest) Unwrap() error { return b.error }

type notFound struct{ error }

func (n *notFound) Unwrap() error { return n.error }

func readJSON(w http.ResponseWriter, r *http.Request, into any) bool {
	defer r.Body.Close()
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		writeError(w, &badRequest{fmt.Errorf("invalid request body: %w", err)})
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var br *badRequest
	var nf *notFound
	var oe *overloadError
	switch {
	case errors.As(err, &oe):
		// Admission refusal: tell well-behaved clients when to retry.
		w.Header().Set("Retry-After", strconv.Itoa(int(max(1, int64(oe.retryAfter/time.Second)))))
		status = oe.status
	case obsv.IsDeadline(err):
		// The query's wall-clock budget expired server-side.
		status = http.StatusGatewayTimeout
	case obsv.IsCancellation(err):
		// The caller went away; 499 per the de-facto convention. Nothing
		// is usually listening, but proxies and logs see the status.
		status = 499
	case errors.As(err, &br):
		status = http.StatusBadRequest
	case errors.As(err, &nf):
		status = http.StatusNotFound
	case strings.Contains(err.Error(), "cql:"):
		status = http.StatusBadRequest
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
