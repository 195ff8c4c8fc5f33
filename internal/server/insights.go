package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/engine"
	"repro/internal/obsv"
	"repro/internal/shard"
	"repro/internal/workload"
)

// This file is the query-insights surface: the per-query resource
// ledger and always-on tracing every exploration runs under, the
// EXPLAIN endpoint that dry-runs a query against zone maps (a shard
// set's are its manifest's) before any chunk I/O, and the bounded query
// log behind
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
// explore and drill-down runs under: a trace (always on — its spans are
// the query's phase clock, and slow and failed queries keep the tree in
// the query log), a resource ledger threaded through the context, the
// wall clock, and the query's one record.
type queryRun struct {
	ctx    context.Context
	cancel context.CancelFunc
	tr     *obsv.Trace
	root   *obsv.Span
	led    *obsv.Ledger
	mode   string
	start  time.Time
	// entry is the query's record, filled in by finish; sess is the
	// drill-down session it ran in (workload.StatelessSession for none).
	entry *obsv.QueryLogEntry
	sess  int
	// cached is set by the handler when the result cache answered the
	// query (a hit, or a joined in-flight computation): no pipeline ran.
	cached bool
	// tree is the finished span tree, set by finish.
	tree *obsv.SpanJSON
}

// startQuery opens the instrumentation for one query. When the server
// (or the request, via X-Atlas-Query-Timeout) sets a query budget, the
// context carries the wall-clock deadline: every layer below — scans,
// cuts, fabric RPCs, chunk loads — unwinds at it.
func (s *Server) startQuery(r *http.Request, op, input string, sess int) *queryRun {
	tr, root := obsv.NewTrace(op)
	led := obsv.NewLedger()
	rctx := r.Context()
	cancel := context.CancelFunc(func() {})
	if d := s.queryBudget(r); d > 0 {
		rctx, cancel = context.WithTimeout(rctx, d)
	}
	ctx := obsv.WithLedger(obsv.WithSpan(rctx, root), led)
	return &queryRun{ctx: ctx, cancel: cancel, tr: tr, root: root, led: led, mode: profileMode(r), start: time.Now(),
		entry: newEntry(r, op, input), sess: sess}
}

// finish closes the trace and the ledger and completes the query's
// record: the ledger snapshot once, with the phases read off the span
// tree. The record feeds the latency metrics, the lifetime totals, the
// slow log, the query log and the workload capture, and attach copies
// its bill onto the response.
func (qr *queryRun) finish(s *Server, qerr error) {
	qr.cancel()
	qr.root.End()
	qr.led.Finish()
	qr.tree = qr.tr.Tree()
	dur := time.Since(qr.start)
	snap := qr.led.Snapshot()
	snap.Phases = obsv.PhasesOf(qr.tree, core.BaseSpan)
	e := qr.entry
	e.DurNs, e.Cached, e.Ledger = dur.Nanoseconds(), qr.cached, &snap

	s.metrics.exploreHist.ObserveDuration(dur)
	s.metrics.opHistogram(e.Op).ObserveDuration(dur)
	if qr.mode != "" {
		s.metrics.profiled.Inc()
	}
	s.totals.Add(snap)
	threshold, logf := s.slowConfig()
	e.Slow = threshold > 0 && dur >= threshold
	if e.Slow && logf != nil {
		s.metrics.slowQueries.Inc()
		rid := e.RequestID
		if rid == "" {
			rid = "-"
		}
		logf("slow query: rid=%s dur=%s cql=%q", rid, dur, e.Input)
	}
	// Fast successes drop the span tree to bound the log's memory.
	if e.Slow || qerr != nil {
		e.Profile = qr.tree
	}
	s.record(e, qr.sess, qerr)
}

// headerResultCache reports on every answered query whether the result
// cache supplied it ("hit") or the pipeline ran ("miss"). It is a
// header, not a body field: answers stay byte-identical either way.
const headerResultCache = "X-Atlas-Result-Cache"

// attach sets the cache verdict on the response headers and returns the
// run's own body fields: its bill and, when asked for, its profile.
func (qr *queryRun) attach(w http.ResponseWriter) *requestFields {
	if qr.cached {
		w.Header().Set(headerResultCache, "hit")
	} else {
		w.Header().Set(headerResultCache, "miss")
	}
	rf := &requestFields{Ledger: qr.entry.Ledger}
	switch qr.mode {
	case "tree":
		rf.Profile = qr.tree
	case "perfetto":
		if b, err := obsv.PerfettoTrace(qr.tree); err == nil {
			rf.ProfilePerfetto = b
		}
	}
	return rf
}

// ---- EXPLAIN ----

// ExplainShardDTO is one shard's routing decision and dry-run verdicts.
type ExplainShardDTO struct {
	Shard int    `json:"shard"`
	File  string `json:"file"`
	Rows  int    `json:"rows"`
	// Remote reports whether the shard is served over the fabric.
	Remote bool `json:"remote,omitempty"`
	// Plane is where the verdict was decided: "manifest" (the manifest's
	// zone maps prune every chunk of the shard, so a query never opens
	// it), "stat" (a remote shard: predicates route over the statistics
	// plane, chunks stream only for scan-verdict chunks) or "chunk" (a
	// local shard whose chunks need reading).
	Plane string `json:"plane"`
	// Verdict summarizes the shard: "prune" (no chunk can match),
	// "full" (zone maps answer every chunk — no chunk I/O) or "scan"
	// (at least one chunk needs its rows).
	Verdict string `json:"verdict"`
	// Explain carries the per-chunk dry run over the shard's zone maps,
	// the manifest's: planning a shard never opens it.
	Explain *engine.QueryExplain `json:"explain,omitempty"`
}

// ExplainDTO is the POST /api/explain answer: the plan of a query,
// computed from zone maps before any chunk is decoded or any shard
// opened.
type ExplainDTO struct {
	Input   string `json:"input"`
	Sharded bool   `json:"sharded"`
	// Combined is the dry run against the combined table — the verdicts
	// the actual base scan would produce.
	Combined *engine.QueryExplain `json:"combined"`
	// Shards holds one entry per shard of a sharded table.
	Shards []ExplainShardDTO `json:"shards,omitempty"`
	// ShardsPruned counts shards every chunk of which the manifest's zone
	// maps prune.
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
	case ex.ChunksScanned > 0:
		return string(engine.VerdictScan)
	case ex.ChunksFull == 0:
		return string(engine.VerdictPrune)
	default:
		return string(engine.VerdictFull)
	}
}

// handleExplain dry-runs a CQL query: predicates are compiled and
// judged against zone maps only (a shard set's are its manifest's), so
// the plan — per-shard routing, per-chunk verdicts, estimated bytes —
// comes back without decoding a single chunk. Under WITH SAMPLE f each
// plan counts only the chunks holding a sampled row; any other WITH
// option is a bad request (cql.ErrWithClause), since it does not shape
// the scan.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req exploreRequest
	if !readJSON(w, r, &req) {
		return
	}
	st, err := cql.Parse(req.CQL, s.table)
	if err != nil {
		writeError(w, &badRequest{err})
		return
	}
	q, sample, err := st.Scan(s.table.NumRows())
	if err != nil {
		writeError(w, &badRequest{err})
		return
	}
	combined, err := engine.ExplainQuery(s.table, q, sample)
	if err != nil {
		writeError(w, err)
		return
	}
	dto := ExplainDTO{
		Input:           st.String(),
		Sharded:         s.set != nil,
		Combined:        combined,
		EstChunkFetches: combined.EstChunkFetches,
		EstBytesDecoded: combined.EstBytesDecoded,
	}
	if s.set != nil {
		m := s.set.Manifest()
		for i, sf := range m.Shards {
			sd := ExplainShardDTO{Shard: i, File: sf.File, Rows: sf.Rows, Remote: shard.IsRemoteLocation(sf.File)}
			var shardSample *bitvec.Vector
			if sample != nil {
				off := s.set.ShardOffset(i)
				shardSample = sample.Slice(off, off+s.set.ShardTable(i).NumRows())
			}
			ex, err := engine.ExplainQuery(s.set.ShardTable(i), q, shardSample)
			if err != nil {
				writeError(w, err)
				return
			}
			sd.Explain, sd.Verdict = ex, shardVerdict(ex)
			switch {
			case sd.Verdict == string(engine.VerdictPrune):
				sd.Plane = "manifest"
				dto.ShardsPruned++
			case sd.Remote:
				sd.Plane = "stat"
			default:
				sd.Plane = "chunk"
			}
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
	n := 0
	if nv := q.Get("n"); nv != "" {
		parsed, err := strconv.Atoi(nv)
		if err != nil || parsed < 0 {
			writeError(w, &badRequest{fmt.Errorf("invalid n %q", nv)})
			return
		}
		n = parsed
	}
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

// newEntry starts the record of one request: what it asks for. The
// input is capped at the workload byte budget, so a pathological CQL
// string can't bloat the query log or a recorded workload.
func newEntry(r *http.Request, op, input string) *obsv.QueryLogEntry {
	return &obsv.QueryLogEntry{RequestID: obsv.RequestIDFrom(r.Context()), Op: op, Input: workload.CapInput(input, 0)}
}

// record files one request's record — every request leaves exactly
// one, whether it ran or not: its ending is stamped on the entry, and
// the outcome counters, the query-log ring and the workload capture all
// read that same entry. sess is the drill-down session the request
// targeted (workload.StatelessSession for none).
func (s *Server) record(e *obsv.QueryLogEntry, sess int, err error) {
	e.Time = time.Now()
	if err != nil {
		e.Err = err.Error()
		// Deadline expiries, caller cancellations and admission refusals
		// are lifecycle outcomes, not ordinary errors: the log and the
		// counters keep them apart so overload shows up as itself.
		var oe *overloadError
		switch {
		case errors.As(err, &oe):
			e.Outcome = "shed"
		case obsv.IsDeadline(err):
			e.Outcome = "deadline"
			s.metrics.deadlineQueries.Inc()
		case obsv.IsCancellation(err):
			e.Outcome = "cancelled"
			s.metrics.cancelledQueries.Inc()
		default:
			e.Outcome = "error"
		}
	}
	s.qlog.Add(e)
	s.wrec.Record(e, sess)
}
