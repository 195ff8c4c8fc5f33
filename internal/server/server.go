// Package server exposes the mapping engine over HTTP/JSON — the back
// end of the paper's third architecture layer (the Web GUI, Figure 6).
// It serves stateless explorations and stateful drill-down sessions.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/obsv"
	"repro/internal/par"
	"repro/internal/query"
	"repro/internal/remote"
	"repro/internal/session"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Server holds one explorable table and its sessions. Every request
// runs on a single Cartographer — safe for concurrent use; WITH
// overrides on a view of it — so its full-selection cut memo warms once
// and serves every session and stateless exploration, and every request
// shares one result cache, so a map is computed once however many
// sessions, prefetches and stateless explorations ask for it.
type Server struct {
	table *storage.Table
	opts  core.Options
	// cart is shared by every exploration; nil when opts fail
	// validation, which cartErr then says, and every exploration answers.
	cart    *core.Cartographer
	cartErr error
	// set is non-nil when serving a sharded table: sessions assemble
	// selections per shard, the cut memo fills from per-shard statistics,
	// and /api/shards reports the layout.
	set *shard.Set
	// store is non-nil when serving a single-file store; with set it
	// feeds the lazy-I/O counters of /api/stats.
	store *colstore.Store
	// closeStore releases what NewFromStoreWith opened (see Close); nil
	// when the caller owns the table or set.
	closeStore func() error
	// partials is the merged column table behind /api/shards, under
	// partialsMu: tables are immutable, so once computed every later
	// request serves it. A failure is not kept — remote shards heal, and
	// the next request computes it again.
	partialsMu sync.Mutex
	partials   []*shard.ColumnPartial

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
	s := newServer(table, opts)
	s.cart, s.cartErr = core.NewCartographer(table, opts)
	return s
}

func newServer(table *storage.Table, opts core.Options) *Server {
	return &Server{table: table, opts: opts, sessions: newSessionTable(), results: session.NewResultCache(),
		qlog: obsv.NewQueryLog(obsv.DefaultQueryLogDepth), totals: &obsv.Ledger{},
		gate: newAdmissionGate(),
		wrec: workload.NewRecorder(table.Name(), workload.RecorderOptions{MaxEntries: workloadCaptureDepth})}
}

// NewSharded creates a server over an opened shard set: explorations —
// stateless and session ones alike — run on the combined table with
// column statistics reduced from per-shard statistics.
func NewSharded(set *shard.Set, opts core.Options) *Server {
	s := newServer(set.Table(), opts)
	s.set = set
	s.cart, s.cartErr = core.NewCartographerWith(s.table, opts, set.Provider(opts.Parallelism))
	s.ioStats = set.IOStats
	s.fleet = newFleetPoller(set)
	return s
}

// StoreConfig carries the memory-tier knobs of a store-backed server.
type StoreConfig struct {
	// Store is passed to every file open (residency mode, cache budget).
	Store colstore.Options
	// Defer postpones opening shard files until first touch (sharded
	// stores only).
	Defer bool
	// Remote opens http(s):// shard locations; nil uses a default
	// internal/remote opener, so remote manifests serve out of the box.
	Remote shard.RemoteOpener
}

// NewFromStoreWith opens an on-disk store and serves its table
// directly: no CSV re-parse on start, and every exploration scans with
// zone-map pruning and chunk-parallel sharding. path may be a single
// ".atl" segment store (see internal/colstore) or a shard manifest (see
// internal/shard) — manifests open every shard and serve the sharded
// table with fan-out explorations. sc carries the memory-tier options.
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

// ResultDTO is the answer to one exploration. The fields up to Flagged
// depend on the result alone: renderResult renders them once per
// result. The embedded requestFields belong to the request that asked.
type ResultDTO struct {
	Input     string   `json:"input"`
	TotalRows int      `json:"totalRows"`
	BaseCount int      `json:"baseCount"`
	ElapsedMs float64  `json:"elapsedMs"`
	Maps      []MapDTO `json:"maps"`
	Flagged   []string `json:"flagged,omitempty"`
	requestFields
}

// requestFields are the fields of a result body that belong to the
// request, not to the result: a cache hit answers with the result's
// once-rendered body and these spliced in.
type requestFields struct {
	// Profile is the exploration's span tree, present when the request
	// asked for one (?profile=1). Offsets are nanoseconds from the
	// trace start; remote (shard-server) subtrees are flagged.
	Profile *obsv.SpanJSON `json:"profile,omitempty"`
	// ProfilePerfetto is the same trace as Chrome trace-event JSON
	// (?profile=perfetto) — save it to a file and open it in Perfetto.
	ProfilePerfetto json.RawMessage `json:"profilePerfetto,omitempty"`
	// Ledger is the query's resource bill — always present on a route
	// that ran a query: every query runs with a ledger threaded through
	// its context.
	Ledger *obsv.LedgerSnapshot `json:"ledger,omitempty"`
}

// resultRenders counts the result bodies renderResult produced; tests
// read it.
var resultRenders atomic.Int64

// renderResult renders the request-independent fields of a result's
// body as one JSON object, through encoding/json like every other
// body. Results keep it (core.Result.Rendered), so a cached result is
// rendered by its first reader only. Its input is empty: statements
// that share a result echo their own (see appendResult). It returns nil
// for a result the encoder refuses.
func renderResult(r *core.Result) []byte {
	resultRenders.Add(1)
	dto := ResultDTO{
		TotalRows: r.TotalRows,
		BaseCount: r.BaseCount,
		ElapsedMs: float64(r.Elapsed.Microseconds()) / 1000.0,
		Maps:      mapDTOs(r.Maps),
	}
	for _, f := range r.Flagged {
		dto.Flagged = append(dto.Flagged, fmt.Sprintf("%s (%s)", f.Attr, f.Reason))
	}
	b, err := json.Marshal(dto)
	if err != nil {
		return nil
	}
	return b
}

// mapDTOs converts maps for a response; region queries are the maps'
// memoized texts.
func mapDTOs(maps []*core.Map) []MapDTO {
	var out []MapDTO
	for _, m := range maps {
		md := MapDTO{Attrs: m.Attrs, Entropy: m.Entropy}
		for ri, reg := range m.Regions {
			md.Regions = append(md.Regions, RegionDTO{Query: m.RegionText(ri), Count: reg.Count, Cover: reg.Cover})
		}
		out = append(out, md)
	}
	return out
}

// appendResult appends a result's body: input, the text of the
// statement the request asked, then the result's once-rendered fields,
// then the request's own (rf, nil on routes that ran no query). It
// returns nil for a body the encoder refuses.
func appendResult(b []byte, input string, res *core.Result, rf *requestFields) []byte {
	body := res.Rendered(renderResult)
	if body == nil {
		return nil
	}
	in, _ := json.Marshal(input) // a string always encodes
	// body begins with the empty input renderResult gives it.
	const emptyInput = `{"input":""`
	b = slices.Grow(b, len(body)+len(in)+512)
	b = append(b, `{"input":`...)
	b = append(b, in...)
	b = append(b, body[len(emptyInput):len(body)-1]...)
	if rf != nil {
		own, err := json.Marshal(rf)
		if err != nil {
			return nil
		}
		if len(own) > len("{}") {
			b = append(b, ',')
			b = append(b, own[1:len(own)-1]...)
		}
	}
	return append(b, '}')
}

// appendNode appends a session node's body,
// {"id":…,"parent":…,"children":[…]|null,"result":{…}}, or returns nil
// as appendResult does.
func appendNode(b []byte, n *session.Node, rf *requestFields) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, int64(n.ID), 10)
	b = append(b, `,"parent":`...)
	b = strconv.AppendInt(b, int64(n.Parent), 10)
	b = append(b, `,"children":`...)
	if len(n.Children) == 0 {
		b = append(b, "null"...)
	} else {
		for i, c := range n.Children {
			if i == 0 {
				b = append(b, '[')
			} else {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(c), 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"result":`...)
	if b = appendResult(b, n.Result.Input.String(), n.Result, rf); b == nil {
		return nil
	}
	return append(b, '}')
}

// writeResult writes the body of every result-bearing route — session
// explore, drill, back, current, history and stateless explore — with
// the headers and trailing newline of writeJSON. A nil body, one that
// failed to render, answers 500 with an error body, as writeJSON does.
func writeResult(w http.ResponseWriter, body []byte) {
	if body == nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "result cannot be encoded as JSON"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(append(body, '\n'))
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
	qr := s.startQuery(r, "explore", req.CQL, workload.StatelessSession)
	st, res, cached, err := s.runCQL(qr.ctx, req.CQL)
	qr.cached = cached
	qr.finish(s, err)
	if err != nil {
		writeError(w, err)
		return
	}
	writeResult(w, appendResult(nil, st.String(), res, qr.attach(w)))
}

// runCQL parses, binds and runs a stateless CQL statement, WITH clause
// and all, through the shared result cache under the statement's key
// (cql.Statement.Key): a WITH option that changes the pipeline, or a
// sample, is cached under its own key, and one that restates the
// server's options shares the plain query's entry. cached reports that
// no pipeline ran for this call. A trace span in ctx profiles the run.
func (s *Server) runCQL(ctx context.Context, input string) (st cql.Statement, res *core.Result, cached bool, err error) {
	if st, err = cql.Parse(input, s.table); err != nil {
		return st, nil, false, &badRequest{err}
	}
	if s.cart == nil {
		return st, nil, false, s.cartErr
	}
	res, cached, err = s.results.Get(ctx, st.Key(s.cart.Options()), func() (*core.Result, error) {
		return cql.Explore(ctx, s.cart, st)
	})
	return st, res, cached, err
}

// plainQuery parses and binds a statement for a route that runs its
// query under the server's options (a session explore, a plan): a WITH
// clause, like any other CQL error, is a bad request.
func (s *Server) plainQuery(input string) (query.Query, error) {
	st, err := cql.Parse(input, s.table)
	if err == nil {
		st.Query, err = st.Plain()
	}
	if err != nil {
		return query.Query{}, &badRequest{err}
	}
	return st.Query, nil
}

func (s *Server) handleNewSession(w http.ResponseWriter, _ *http.Request) {
	if s.cart == nil {
		writeError(w, s.cartErr)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int{"id": s.sessions.add(session.NewWithCache(s.cart, s.results, s.totals))})
}

func (s *Server) handleSessionExplore(w http.ResponseWriter, r *http.Request, sess *session.Session, sid int) {
	var req exploreRequest
	if !readJSON(w, r, &req) {
		return
	}
	q, err := s.plainQuery(req.CQL)
	if err != nil {
		writeError(w, err)
		return
	}
	release, err := s.admit(r, "session-explore", req.CQL, sid)
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()
	qr := s.startQuery(r, "session-explore", req.CQL, sid)
	node, err := sess.ExploreCtx(qr.ctx, q)
	qr.cached = err == nil && node.Cached
	qr.finish(s, err)
	if err != nil {
		writeError(w, err)
		return
	}
	sess.Prefetch(4) // anticipative computation, Section 5.1
	writeResult(w, appendNode(nil, node, qr.attach(w)))
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
	qr := s.startQuery(r, "drill", input, sid)
	node, err := sess.DrillDownCtx(qr.ctx, req.Map, req.Region)
	qr.cached = err == nil && node.Cached
	qr.finish(s, err)
	if err != nil {
		// Only a drill the session cannot take is the client's fault; a
		// failed pipeline answers as it would on /explore.
		if errors.Is(err, session.ErrBadDrill) {
			err = &badRequest{err}
		}
		writeError(w, err)
		return
	}
	sess.Prefetch(4)
	writeResult(w, appendNode(nil, node, qr.attach(w)))
}

func (s *Server) handleBack(w http.ResponseWriter, r *http.Request, sess *session.Session, _ int) {
	node, err := sess.Back()
	if err != nil {
		writeError(w, &badRequest{err})
		return
	}
	writeResult(w, appendNode(nil, node, nil))
}

func (s *Server) handleCurrent(w http.ResponseWriter, r *http.Request, sess *session.Session, _ int) {
	node, err := sess.Current()
	if err != nil {
		writeError(w, &notFound{err})
		return
	}
	writeResult(w, appendNode(nil, node, nil))
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request, sess *session.Session, _ int) {
	nodes := sess.History()
	if len(nodes) == 0 {
		writeResult(w, []byte("null"))
		return
	}
	b := []byte{'['}
	for i, n := range nodes {
		if i > 0 {
			b = append(b, ',')
		}
		if b = appendNode(b, n, nil); b == nil {
			writeResult(w, nil)
			return
		}
	}
	writeResult(w, append(b, ']'))
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
	writeJSON(w, http.StatusOK, mapDTOs(sess.PersonalizedMaps(cur.Result)))
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
// merged per-column aggregates reduced from per-shard summaries.
type ShardsDTO struct {
	Sharded      bool           `json:"sharded"`
	Partitioning string         `json:"partitioning,omitempty"`
	ChunkSize    int            `json:"chunkSize,omitempty"`
	Rows         int            `json:"rows"`
	Shards       []ShardDTO     `json:"shards,omitempty"`
	Columns      []ShardColsDTO `json:"columns,omitempty"`
}

// ShardColsDTO is one column's merged aggregate: exact counts, extremes
// and mean plus the merged fixed-edge histogram.
type ShardColsDTO struct {
	Name  string    `json:"name"`
	Rows  int       `json:"rows"`
	Nulls int       `json:"nulls"`
	Min   JSONFloat `json:"min,omitempty"`
	Max   JSONFloat `json:"max,omitempty"`
	Mean  JSONFloat `json:"mean,omitempty"`
	// NegInf and PosInf count −Inf and +Inf values, which the histogram
	// of the finite values leaves out.
	NegInf int         `json:"negInf,omitempty"`
	PosInf int         `json:"posInf,omitempty"`
	Hist   []int       `json:"hist,omitempty"`
	Edges  []JSONFloat `json:"histEdges,omitempty"`
}

// JSONFloat is a statistic that may not be finite — the mean of values
// that include NaN, the extremes of values that include ±Inf. JSON
// numbers cannot carry those, so a non-finite value encodes as null.
type JSONFloat float64

// MarshalJSON implements json.Marshaler.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// handleShards reports the shard layout and the merged column
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
		writeError(w, err) // skip the statistics pass nobody will read
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
	partials, err := s.shardPartials()
	if err != nil {
		writeError(w, err)
		return
	}
	for ci, p := range partials {
		col := ShardColsDTO{Name: s.table.Schema().Field(ci).Name, Rows: p.Rows, Nulls: p.Nulls, NegInf: p.NegInf, PosInf: p.PosInf}
		if p.HasMinMax {
			col.Min, col.Max = JSONFloat(p.Min), JSONFloat(p.Max)
			if p.Count > 0 {
				col.Mean = JSONFloat(p.Sum / float64(p.Count))
			}
			if p.Hist != nil {
				col.Hist = p.Hist.Counts
				col.Edges = make([]JSONFloat, len(p.Hist.Edges))
				for i, e := range p.Hist.Edges {
					col.Edges[i] = JSONFloat(e)
				}
			}
		}
		dto.Columns = append(dto.Columns, col)
	}
	writeJSON(w, http.StatusOK, dto)
}

// shardPartials returns the set's merged column table, computing it
// when no earlier request has.
func (s *Server) shardPartials() ([]*shard.ColumnPartial, error) {
	s.partialsMu.Lock()
	defer s.partialsMu.Unlock()
	if s.partials == nil {
		p, err := s.set.Partials(s.opts.Parallelism)
		if err != nil {
			return nil, err
		}
		s.partials = p
	}
	return s.partials, nil
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
	// Scan is the chunk-level scan decisions of every query the server
	// ran — the scan plane of LedgerTotals, prefetches and WITH
	// overrides included: the pruning-efficacy view of production
	// traffic.
	Scan      obsv.ScanSnapshot  `json:"scan"`
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
	totals := s.totals.Snapshot()
	dto := StatsDTO{Scan: totals.ScanSnapshot}
	if s.ioStats != nil {
		io := s.ioStats()
		dto.Store = &StoreStatsDTO{BytesRead: io.BytesRead, ChunksDecoded: io.ChunksDecoded, CacheHits: io.CacheHits,
			CacheEvictions: io.CacheEvictions, CacheBytes: io.CacheBytes}
		if s.set != nil {
			dto.Store.Lazy, dto.Store.OpenedShards = true, s.set.OpenedShards()
		} else {
			dto.Store.Lazy = s.store.Lazy()
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
	dto.Server = &ServerStatsDTO{
		Requests:      s.metrics.httpRequests.Value(),
		Errors:        s.metrics.httpErrors.Value(),
		Explores:      s.metrics.exploreHist.Count(),
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

// writeJSON encodes v before it writes the status, so a value JSON
// cannot carry answers 500 with an error body, not a 200 with none.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(map[string]string{"error": err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n'))
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
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
