package server

import (
	"io"
	"net/http"
	"strconv"

	"repro/internal/workload"
)

// This file is the server's workload-capture surface: every finished
// query (observeQuery) and every shed request (recordShed) lands in a
// bounded in-memory workload recorder, exported as versioned JSONL by
// GET /api/workload and optionally streamed to disk via atlasd
// -record-workload. Replay it with atlas replay.

// workloadCaptureDepth bounds the in-memory capture: past it entries
// are dropped (counted, and still streamed to a configured sink), so an
// always-on recorder can never grow without bound.
const workloadCaptureDepth = 4096

// RecordWorkloadTo streams the capture through w as JSONL (header
// first, then one line per query as it finishes) in addition to the
// in-memory ring. Call before serving.
func (s *Server) RecordWorkloadTo(w io.Writer) { s.wrec.SetSink(w) }

// WorkloadSnapshot returns the capture so far.
func (s *Server) WorkloadSnapshot() *workload.Workload { return s.wrec.Snapshot() }

// handleWorkload serves GET /api/workload: the captured workload as
// JSONL (the same format -record-workload writes and -replay reads).
func (s *Server) handleWorkload(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	if dropped := s.wrec.Dropped(); dropped > 0 {
		w.Header().Set("X-Atlas-Workload-Dropped", strconv.FormatInt(dropped, 10))
	}
	_ = s.wrec.Export(w)
}
