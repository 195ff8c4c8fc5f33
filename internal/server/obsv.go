package server

import (
	"log"
	"net/http"
	"sync"
	"time"

	"repro/internal/colstore"
	"repro/internal/obsv"
	"repro/internal/remote"
)

// This file is the coordinator's observability surface: the process
// metric registry behind GET /metrics, the request middleware (request
// ids, error counting, the slow-query log) and the latency histograms
// /api/stats summarizes. Everything here samples counters the other
// layers already keep — scrapes never take the server's locks beyond
// the registry's own.

// fabricStats is the slice of a remote opener the metrics need;
// *remote.Opener implements it.
type fabricStats interface {
	Stats() remote.Stats
}

// serverMetrics are the owned (non-sampled) metrics of the HTTP layer.
type serverMetrics struct {
	reg          *obsv.Registry
	httpRequests *obsv.Counter
	httpErrors   *obsv.Counter
	explores     *obsv.Counter
	exploreHist  *obsv.Histogram
	slowQueries  *obsv.Counter
	profiled     *obsv.Counter

	// Lifecycle outcomes: queries stopped at their wall-clock deadline
	// and queries abandoned by their caller.
	cancelledQueries *obsv.Counter
	deadlineQueries  *obsv.Counter

	// opMu guards the per-operation latency histograms, one
	// atlas_query_duration_seconds{op=...} series per op kind.
	opMu    sync.Mutex
	opHists map[string]*obsv.Histogram
}

// opHistogram returns (registering on first use) the latency histogram
// of one operation kind — explore, session-explore, drill.
func (m *serverMetrics) opHistogram(op string) *obsv.Histogram {
	m.opMu.Lock()
	defer m.opMu.Unlock()
	if h, ok := m.opHists[op]; ok {
		return h
	}
	h := m.reg.NewHistogram("atlas_query_duration_seconds", "query latency by operation kind",
		map[string]string{"op": op}, nil)
	m.opHists[op] = h
	return h
}

// opLatencies summarizes every per-op histogram for /api/stats.
func (m *serverMetrics) opLatencies() map[string]OpLatencyDTO {
	m.opMu.Lock()
	defer m.opMu.Unlock()
	if len(m.opHists) == 0 {
		return nil
	}
	out := make(map[string]OpLatencyDTO, len(m.opHists))
	for op, h := range m.opHists {
		out[op] = OpLatencyDTO{Count: h.Count(), P50s: h.Quantile(0.5), P99s: h.Quantile(0.99)}
	}
	return out
}

// Registry lazily builds and returns the server's metric registry. The
// first call wires every layer's counters in: engine scan verdicts from
// the shared Cartographer, store/cache I/O from the shard set or single
// store, fabric traffic from the remote opener (when one is serving),
// and the HTTP layer's own counters and explore-latency histogram.
func (s *Server) Registry() *obsv.Registry {
	s.regOnce.Do(func() {
		r := obsv.NewRegistry()
		s.metrics = &serverMetrics{
			reg:          r,
			opHists:      map[string]*obsv.Histogram{},
			httpRequests: r.NewCounter("atlas_http_requests_total", "API requests served", nil),
			httpErrors:   r.NewCounter("atlas_http_errors_total", "API requests answered with status >= 400", nil),
			explores:     r.NewCounter("atlas_explores_total", "explorations executed (stateless and session)", nil),
			exploreHist:  r.NewHistogram("atlas_explore_duration_seconds", "end-to-end exploration latency", nil, nil),
			slowQueries:  r.NewCounter("atlas_slow_queries_total", "explorations at or above the slow-query threshold", nil),
			profiled:     r.NewCounter("atlas_profiled_explores_total", "explorations run with profile=1", nil),

			cancelledQueries: r.NewCounter("atlas_queries_cancelled_total", "queries abandoned by caller cancellation", nil),
			deadlineQueries:  r.NewCounter("atlas_queries_deadline_total", "queries stopped at their wall-clock deadline", nil),
		}
		// Admission gate: the overload view. Gauges sample the gate's
		// own state; the shed counter moves on every 429/503 refusal.
		gate := s.gate
		r.GaugeFunc("atlas_admission_inflight", "queries currently holding an admission slot", nil, func() float64 {
			return float64(gate.inflight())
		})
		r.GaugeFunc("atlas_admission_queued", "queries waiting for an admission slot", nil, func() float64 {
			return float64(gate.queued())
		})
		r.CounterFunc("atlas_admission_admitted_total", "queries admitted past the gate", nil, func() float64 {
			return float64(gate.admitted.Load())
		})
		r.CounterFunc("atlas_admission_shed_total", "queries refused by the admission gate (429/503)", nil, func() float64 {
			return float64(gate.shed.Load())
		})
		r.CounterFunc("atlas_admission_queue_timeouts_total", "queued queries shed at the queue timeout", nil, func() float64 {
			return float64(gate.queueTimeouts.Load())
		})
		r.GaugeFunc("atlas_draining", "1 while the server refuses new queries to drain", nil, func() float64 {
			if gate.isDraining() {
				return 1
			}
			return 0
		})
		r.GaugeFunc("atlas_sessions_open", "live drill-down sessions", nil, func() float64 {
			return float64(s.sessions.len())
		})
		// Result cache: how much pipeline work sharing saved. hits +
		// coalesced + misses = lookups; only misses ran the pipeline.
		r.CounterFunc("atlas_result_cache_hits_total", "explorations answered by a cached result", nil, func() float64 {
			return float64(s.results.Stats().Hits)
		})
		r.CounterFunc("atlas_result_cache_misses_total", "explorations that ran the pipeline", nil, func() float64 {
			return float64(s.results.Stats().Misses)
		})
		r.CounterFunc("atlas_result_cache_coalesced_total", "explorations that joined an identical one in flight", nil, func() float64 {
			return float64(s.results.Stats().Coalesced)
		})
		r.CounterFunc("atlas_result_cache_evictions_total", "cached results dropped to honor the byte budget", nil, func() float64 {
			return float64(s.results.Stats().Evictions)
		})
		r.GaugeFunc("atlas_result_cache_bytes", "estimated bytes of cached results", nil, func() float64 {
			return float64(s.results.Stats().Bytes)
		})
		if s.cart != nil {
			lbl := map[string]string{"layer": "engine"}
			r.CounterFunc("atlas_engine_chunks_pruned_total", "chunks skipped by zone-map verdicts", lbl, func() float64 {
				return float64(s.cart.ScanStats().ChunksPruned)
			})
			r.CounterFunc("atlas_engine_chunks_full_total", "chunks answered entirely by zone maps", lbl, func() float64 {
				return float64(s.cart.ScanStats().ChunksFull)
			})
			r.CounterFunc("atlas_engine_chunks_scanned_total", "chunks scanned row by row", lbl, func() float64 {
				return float64(s.cart.ScanStats().ChunksScanned)
			})
			r.CounterFunc("atlas_engine_chunks_decoded_total", "lazy chunk payloads decoded for scans", lbl, func() float64 {
				return float64(s.cart.ScanStats().ChunksDecoded)
			})
			r.CounterFunc("atlas_engine_chunk_cache_hits_total", "scan chunk demands served from cache", lbl, func() float64 {
				return float64(s.cart.ScanStats().ChunkCacheHits)
			})
		}
		ioStats := s.ioStats
		if ioStats != nil {
			lbl := map[string]string{"layer": "store"}
			r.CounterFunc("atlas_store_bytes_read_total", "bytes read from segment files or the wire", lbl, func() float64 {
				return float64(ioStats().BytesRead)
			})
			r.CounterFunc("atlas_store_chunks_decoded_total", "chunk payloads decoded from storage", lbl, func() float64 {
				return float64(ioStats().ChunksDecoded)
			})
			r.CounterFunc("atlas_store_cache_hits_total", "decoded-chunk cache hits", lbl, func() float64 {
				return float64(ioStats().CacheHits)
			})
			r.CounterFunc("atlas_store_cache_evictions_total", "decoded-chunk cache evictions", lbl, func() float64 {
				return float64(ioStats().CacheEvictions)
			})
			r.GaugeFunc("atlas_store_cache_bytes", "decoded-chunk cache residency", lbl, func() float64 {
				return float64(ioStats().CacheBytes)
			})
		}
		if s.set != nil {
			r.GaugeFunc("atlas_store_opened_shards", "shard backends opened", map[string]string{"layer": "store"}, func() float64 {
				return float64(s.set.OpenedShards())
			})
		}
		if s.fabric != nil {
			lbl := map[string]string{"layer": "fabric"}
			r.CounterFunc("atlas_fabric_rpcs_total", "fabric requests sent (per attempt)", lbl, func() float64 {
				return float64(s.fabric.Stats().RPCs)
			})
			r.CounterFunc("atlas_fabric_bytes_in_total", "fabric response bytes received", lbl, func() float64 {
				return float64(s.fabric.Stats().BytesIn)
			})
			r.CounterFunc("atlas_fabric_chunk_fetches_total", "chunk payloads fetched over the wire", lbl, func() float64 {
				return float64(s.fabric.Stats().ChunkFetches)
			})
			r.CounterFunc("atlas_fabric_retries_total", "extra attempts after transient failures", lbl, func() float64 {
				return float64(s.fabric.Stats().Retries)
			})
			r.CounterFunc("atlas_fabric_failovers_total", "retries that rotated to a different replica", lbl, func() float64 {
				return float64(s.fabric.Stats().Failovers)
			})
			r.CounterFunc("atlas_fabric_breaker_trips_total", "circuit breakers newly tripped", lbl, func() float64 {
				return float64(s.fabric.Stats().BreakerTrips)
			})
		}
		if s.fleet != nil {
			s.fleet.register(r)
		}
		obsv.RegisterBuildInfo(r, int(colstore.Version))
		obsv.RegisterGoRuntime(r)
		s.reg = r
	})
	return s.reg
}

// SetSlowQueryLog configures the slow-query log: explorations taking at
// least threshold are logged (request id, CQL, duration) through logf.
// A nil logf uses the standard logger; a non-positive threshold
// disables the log.
func (s *Server) SetSlowQueryLog(threshold time.Duration, logf func(format string, args ...any)) {
	if logf == nil {
		logf = log.Printf
	}
	s.slowMu.Lock()
	s.slowThreshold, s.slowLog = threshold, logf
	s.slowMu.Unlock()
}

func (s *Server) slowConfig() (time.Duration, func(format string, args ...any)) {
	s.slowMu.Lock()
	defer s.slowMu.Unlock()
	return s.slowThreshold, s.slowLog
}

// statusWriter records the response status for error counting.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(status int) {
	if sw.status == 0 {
		sw.status = status
	}
	sw.ResponseWriter.WriteHeader(status)
}

// withObservability is the outer API middleware: every request gets a
// request id in its context (echoed as X-Atlas-Request-Id, propagated
// to shard servers by the fabric client), the request counters move,
// and error responses are tallied.
func (s *Server) withObservability(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.Registry()
		s.metrics.httpRequests.Inc()
		rid := r.Header.Get("X-Atlas-Request-Id")
		if rid == "" {
			rid = obsv.NewRequestID()
		}
		w.Header().Set("X-Atlas-Request-Id", rid)
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r.WithContext(obsv.WithRequestID(r.Context(), rid)))
		if sw.status >= 400 {
			s.metrics.httpErrors.Inc()
		}
	})
}

var _ fabricStats = (*remote.Opener)(nil)
