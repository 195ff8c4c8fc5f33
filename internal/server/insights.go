package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/cql"
	"repro/internal/engine"
	"repro/internal/obsv"
	"repro/internal/shard"
	"repro/internal/workload"
)

// This file is the query-insights surface: the per-query resource
// ledger and always-on tracing every exploration runs under, the
// EXPLAIN endpoint that dry-runs a query against manifest statistics
// and zone maps before any chunk I/O, and the bounded query log behind
// GET /api/querylog.

// profileMode reads the request's ?profile= parameter: "" (no profile
// in the response — the query is still traced for the query log),
// "tree" (the span-tree JSON of previous releases, profile=1|true) or
// "perfetto" (Chrome trace-event JSON, profile=perfetto).
func profileMode(r *http.Request) string {
	switch r.URL.Query().Get("profile") {
	case "1", "true", "tree":
		return "tree"
	case "perfetto":
		return "perfetto"
	default:
		return ""
	}
}

// queryRun bundles the per-query instrumentation every explore, session
// explore and drill-down runs under: a trace (always on — slow and
// failed queries keep their span tree in the query log), a resource
// ledger threaded through the context, and the wall clock.
type queryRun struct {
	ctx    context.Context
	cancel context.CancelFunc
	tr     *obsv.Trace
	root   *obsv.Span
	led    *obsv.Ledger
	mode   string
	start  time.Time
	// cached is set by the handler when the result cache answered the
	// query (a hit, or a joined in-flight computation): no pipeline ran.
	cached bool
}

// startQuery opens the instrumentation for one query named op. When
// the server (or the request, via X-Atlas-Query-Timeout) sets a query
// budget, the context carries the wall-clock deadline: every layer
// below — scans, cuts, fabric RPCs, chunk loads — unwinds at it.
func (s *Server) startQuery(r *http.Request, op string) *queryRun {
	tr, root := obsv.NewTrace(op)
	led := obsv.NewLedger()
	rctx := r.Context()
	cancel := context.CancelFunc(func() {})
	if d := s.queryBudget(r); d > 0 {
		rctx, cancel = context.WithTimeout(rctx, d)
	}
	ctx := obsv.WithLedger(obsv.WithSpan(rctx, root), led)
	return &queryRun{ctx: ctx, cancel: cancel, tr: tr, root: root, led: led, mode: profileMode(r), start: time.Now()}
}

// finish closes the trace and the ledger, feeds the metrics, the slow
// log, the query log and the workload recorder, and returns the
// finished span tree. sess is the drill-down session the query ran in
// (workload.StatelessSession for stateless explores).
func (qr *queryRun) finish(s *Server, op, input string, sess int, qerr error) *obsv.SpanJSON {
	qr.cancel()
	qr.root.End()
	qr.led.Finish()
	tree := qr.tr.Tree()
	s.observeQuery(op, obsv.RequestIDFrom(qr.ctx), input, sess, time.Since(qr.start), qerr, qr.mode != "", qr.cached, qr.led, tree)
	return tree
}

// headerResultCache reports on every answered query whether the result
// cache supplied it ("hit") or the pipeline ran ("miss"). It is a
// header, not a body field: answers stay byte-identical either way.
const headerResultCache = "X-Atlas-Result-Cache"

// attach copies the run's bill (and, when asked for, its profile) onto
// the response DTO, and the cache verdict onto the response headers.
func (qr *queryRun) attach(w http.ResponseWriter, dto *ResultDTO, tree *obsv.SpanJSON) {
	if qr.cached {
		w.Header().Set(headerResultCache, "hit")
	} else {
		w.Header().Set(headerResultCache, "miss")
	}
	snap := qr.led.Snapshot()
	dto.Ledger = &snap
	switch qr.mode {
	case "tree":
		dto.Profile = tree
	case "perfetto":
		if b, err := obsv.PerfettoTrace(tree); err == nil {
			dto.ProfilePerfetto = b
		}
	}
}

// ---- EXPLAIN ----

// ExplainShardDTO is one shard's routing decision and dry-run verdicts.
type ExplainShardDTO struct {
	Shard int    `json:"shard"`
	File  string `json:"file"`
	Rows  int    `json:"rows"`
	// Remote reports whether the shard is served over the fabric.
	Remote bool `json:"remote,omitempty"`
	// Plane is where the verdict was decided: "manifest" (per-shard
	// statistics proved the shard disjoint — no backend was touched),
	// "stat" (a remote shard: predicates route over the statistics
	// plane, chunks stream only for scan-verdict chunks) or "chunk" (a
	// local shard judged by its zone maps).
	Plane string `json:"plane"`
	// Verdict summarizes the shard: "prune" (no chunk can match),
	// "full" (zone maps answer every chunk — no chunk I/O) or "scan"
	// (at least one chunk needs its rows).
	Verdict string `json:"verdict"`
	// Explain carries the per-chunk dry run; nil for manifest-pruned
	// shards, which are never probed.
	Explain *engine.QueryExplain `json:"explain,omitempty"`
}

// ExplainDTO is the POST /api/explain answer: the plan of a query,
// computed from manifest statistics and zone maps before any chunk is
// decoded.
type ExplainDTO struct {
	Input   string `json:"input"`
	Sharded bool   `json:"sharded"`
	// Combined is the dry run against the combined table — the verdicts
	// the actual base scan would produce.
	Combined *engine.QueryExplain `json:"combined"`
	// Shards holds one entry per shard of a sharded table.
	Shards []ExplainShardDTO `json:"shards,omitempty"`
	// ShardsPruned counts shards dismissed on the manifest plane.
	ShardsPruned int `json:"shardsPruned,omitempty"`
	// EstChunkFetches / EstBytesDecoded total the combined dry run's
	// cold-cache I/O estimate.
	EstChunkFetches int   `json:"estChunkFetches"`
	EstBytesDecoded int64 `json:"estBytesDecoded"`
}

// shardVerdict folds a shard's dry run into one word: "scan" when any
// chunk needs its rows, otherwise "prune" when no chunk can match,
// otherwise "full" (every surviving chunk answered by its zone map).
func shardVerdict(ex *engine.QueryExplain) string {
	switch {
	case ex.Unchunked || ex.ChunksScanned > 0:
		return string(engine.VerdictScan)
	case ex.ChunksFull == 0:
		return string(engine.VerdictPrune)
	default:
		return string(engine.VerdictFull)
	}
}

// handleExplain dry-runs a CQL query: predicates are compiled and
// judged against manifest statistics and zone maps only, so the plan —
// per-shard routing, per-chunk verdicts, estimated bytes — comes back
// without decoding a single chunk.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req exploreRequest
	if !readJSON(w, r, &req) {
		return
	}
	q, _, err := cql.ParseAndBind(req.CQL, s.table)
	if err != nil {
		writeError(w, &badRequest{err})
		return
	}
	combined, err := engine.ExplainQuery(s.table, q)
	if err != nil {
		writeError(w, err)
		return
	}
	dto := ExplainDTO{
		Input:           q.String(),
		Sharded:         s.set != nil,
		Combined:        combined,
		EstChunkFetches: combined.EstChunkFetches,
		EstBytesDecoded: combined.EstBytesDecoded,
	}
	if s.set != nil {
		m := s.set.Manifest()
		for i, sf := range m.Shards {
			sd := ExplainShardDTO{Shard: i, File: sf.File, Rows: sf.Rows, Remote: shard.IsRemoteLocation(sf.File)}
			pruned := false
			for _, p := range q.Preds {
				if !s.set.ShardMayMatch(i, p) {
					pruned = true
					break
				}
			}
			if pruned {
				sd.Plane, sd.Verdict = "manifest", string(engine.VerdictPrune)
				dto.ShardsPruned++
				dto.Shards = append(dto.Shards, sd)
				continue
			}
			if sd.Remote {
				sd.Plane = "stat"
			} else {
				sd.Plane = "chunk"
			}
			ex, err := engine.ExplainQuery(s.set.ShardTable(i), q)
			if err != nil {
				writeError(w, err)
				return
			}
			sd.Explain, sd.Verdict = ex, shardVerdict(ex)
			dto.Shards = append(dto.Shards, sd)
		}
	}
	writeJSON(w, http.StatusOK, dto)
}

// ---- query log ----

// QueryLogDTO is the GET /api/querylog answer, newest first.
type QueryLogDTO struct {
	// Total is the lifetime number of queries logged; Depth how many the
	// ring currently holds.
	Total   uint64                `json:"total"`
	Depth   int                   `json:"depth"`
	Entries []*obsv.QueryLogEntry `json:"entries"`
}

// handleQueryLog serves the bounded query log. ?slow=1 keeps only
// entries at or over the slow-query threshold, ?errors=1 only failed
// queries, ?op=explore|session-explore|drill one operation kind,
// ?since=<seq> only entries strictly newer than a previously seen
// sequence number (incremental tailing: pass the highest seq you have),
// ?n= caps the count after filtering.
func (s *Server) handleQueryLog(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	slowOnly := q.Get("slow") == "1" || q.Get("slow") == "true"
	errOnly := q.Get("errors") == "1" || q.Get("errors") == "true"
	opOnly := q.Get("op")
	since, haveSince := uint64(0), false
	if sv := q.Get("since"); sv != "" {
		if parsed, err := strconv.ParseUint(sv, 10, 64); err == nil {
			since, haveSince = parsed, true
		} else {
			writeError(w, &badRequest{fmt.Errorf("invalid since %q", sv)})
			return
		}
	}
	n, _ := strconv.Atoi(q.Get("n"))
	entries := s.qlog.Entries()
	if slowOnly || errOnly || opOnly != "" || haveSince {
		kept := entries[:0]
		for _, e := range entries {
			if slowOnly && !e.Slow {
				continue
			}
			if errOnly && e.Err == "" {
				continue
			}
			if opOnly != "" && e.Op != opOnly {
				continue
			}
			if haveSince && e.Seq <= since {
				continue
			}
			kept = append(kept, e)
		}
		entries = kept
	}
	if n > 0 && len(entries) > n {
		entries = entries[:n]
	}
	if entries == nil {
		entries = []*obsv.QueryLogEntry{}
	}
	writeJSON(w, http.StatusOK, QueryLogDTO{Total: s.qlog.Total(), Depth: s.qlog.Depth(), Entries: entries})
}

// observeQuery records one finished query: the explore counters and
// per-op latency histogram, the lifetime ledger totals, the slow-query
// log, the query-log ring (slow and failed entries keep their span
// tree; fast successes drop it to bound memory) and the workload
// recorder. Inputs are capped at the workload byte budget before any
// of them, so a pathological CQL string can't bloat the ring or a
// recorded workload.
func (s *Server) observeQuery(op, rid, input string, sess int, dur time.Duration, qerr error, profiled, cached bool, led *obsv.Ledger, tree *obsv.SpanJSON) {
	s.Registry() // ensure metrics exist
	input = workload.CapInput(input, 0)
	s.metrics.explores.Inc()
	s.metrics.exploreHist.ObserveDuration(dur)
	s.metrics.opHistogram(op).ObserveDuration(dur)
	if profiled {
		s.metrics.profiled.Inc()
	}
	snap := led.Snapshot()
	s.totals.Add(snap)
	threshold, logf := s.slowConfig()
	slow := threshold > 0 && dur >= threshold
	if slow && logf != nil {
		s.metrics.slowQueries.Inc()
		lrid := rid
		if lrid == "" {
			lrid = "-"
		}
		logf("slow query: rid=%s dur=%s cql=%q", lrid, dur, input)
	}
	entry := &obsv.QueryLogEntry{
		Time:      time.Now(),
		RequestID: rid,
		Op:        op,
		Input:     input,
		DurNs:     dur.Nanoseconds(),
		Slow:      slow,
		Cached:    cached,
		Ledger:    &snap,
	}
	if qerr != nil {
		entry.Err = qerr.Error()
	}
	// Classify the ending: deadline expiries and caller cancellations
	// are lifecycle outcomes, not ordinary errors — the log and the
	// counters keep them apart so overload shows up as itself.
	switch {
	case qerr == nil:
	case obsv.IsDeadline(qerr):
		entry.Outcome = "deadline"
		s.metrics.deadlineQueries.Inc()
	case obsv.IsCancellation(qerr):
		entry.Outcome = "cancelled"
		s.metrics.cancelledQueries.Inc()
	default:
		entry.Outcome = "error"
	}
	if slow || qerr != nil {
		entry.Profile = tree
	}
	s.qlog.Add(entry)
	s.wrec.Observe(op, input, sess, entry.Outcome, dur, &snap)
}
