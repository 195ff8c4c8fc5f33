package server

import (
	"container/list"
	"context"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
)

// This file is the overload-safety surface of the HTTP layer: a bounded
// admission gate in front of every query handler (concurrency cap +
// FIFO wait queue + queue timeout), the per-query wall-clock deadline,
// and the drain switch atlasd flips on SIGTERM. Everything past the
// gate runs under a context the rest of the pipeline cancels on at
// chunk granularity, so a refused or expired query releases its
// resources instead of wedging a worker.

// headerQueryTimeout lets one request shorten the server's query
// deadline: integer milliseconds. A request can never extend past the
// server's configured -query-timeout.
const headerQueryTimeout = "X-Atlas-Query-Timeout"

// AdmissionConfig carries the overload knobs of the query admission
// gate (atlasd flags of the same names).
type AdmissionConfig struct {
	// MaxConcurrent caps queries executing at once; <= 0 disables the
	// cap (every query is admitted immediately).
	MaxConcurrent int
	// QueueDepth bounds how many queries may wait for a slot once
	// MaxConcurrent are running; excess requests are shed with 429.
	QueueDepth int
	// QueueTimeout bounds one query's wait in the queue; expiry sheds
	// it with 429. <= 0 waits until admitted or the client goes away.
	QueueTimeout time.Duration
	// QueryTimeout is the per-query wall-clock deadline applied at
	// admission; <= 0 runs without a deadline.
	QueryTimeout time.Duration
}

// overloadError is an admission refusal: 429 when the gate shed the
// request over capacity, 503 when the server is draining. writeError
// adds a Retry-After header so well-behaved clients back off.
type overloadError struct {
	status     int
	retryAfter time.Duration
	msg        string
}

func (e *overloadError) Error() string { return e.msg }

// waiter is one queued admission request. granted/refused are written
// under the gate mutex before ch closes, so the woken goroutine reads
// them race-free.
type waiter struct {
	ch      chan struct{}
	granted bool // a finishing query handed its slot over
	refused bool // drain flushed the queue
}

// admissionGate is the bounded concurrency gate. Slots release in FIFO
// queue order: a finishing query hands its slot to the longest waiter
// instead of decrementing, so arrival order is preserved under load.
type admissionGate struct {
	mu    sync.Mutex
	cfg   AdmissionConfig
	infl  int        // queries holding a slot
	queue *list.List // of *waiter, front = longest waiting

	draining atomic.Bool

	admitted      atomic.Int64
	shed          atomic.Int64
	queueTimeouts atomic.Int64
}

func newAdmissionGate() *admissionGate {
	return &admissionGate{queue: list.New()}
}

func (g *admissionGate) configure(cfg AdmissionConfig) {
	g.mu.Lock()
	g.cfg = cfg
	g.mu.Unlock()
}

func (g *admissionGate) config() AdmissionConfig {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cfg
}

// setDraining flips the drain switch. Turning it on refuses every
// later acquire and flushes queued waiters with 503: drain wants the
// in-flight set to shrink, not churn.
func (g *admissionGate) setDraining(on bool) {
	g.draining.Store(on)
	if !on {
		return
	}
	g.mu.Lock()
	for el := g.queue.Front(); el != nil; el = g.queue.Front() {
		g.queue.Remove(el)
		w := el.Value.(*waiter)
		w.refused = true
		close(w.ch)
	}
	g.mu.Unlock()
}

func (g *admissionGate) isDraining() bool { return g.draining.Load() }

// acquire admits one query or refuses it with an *overloadError /
// cancellation. On nil return the caller MUST release() exactly once.
func (g *admissionGate) acquire(ctx context.Context) error {
	g.mu.Lock()
	if g.draining.Load() {
		g.mu.Unlock()
		g.shed.Add(1)
		return &overloadError{status: http.StatusServiceUnavailable, retryAfter: time.Second, msg: "server is draining"}
	}
	cfg := g.cfg
	if cfg.MaxConcurrent <= 0 || g.infl < cfg.MaxConcurrent {
		g.infl++
		g.mu.Unlock()
		g.admitted.Add(1)
		return nil
	}
	if g.queue.Len() >= cfg.QueueDepth {
		g.mu.Unlock()
		g.shed.Add(1)
		return &overloadError{status: http.StatusTooManyRequests, retryAfter: retryAfterHint(cfg), msg: "server at capacity"}
	}
	w := &waiter{ch: make(chan struct{})}
	el := g.queue.PushBack(w)
	g.mu.Unlock()

	var expire <-chan time.Time
	if cfg.QueueTimeout > 0 {
		t := time.NewTimer(cfg.QueueTimeout)
		defer t.Stop()
		expire = t.C
	}
	select {
	case <-w.ch:
		if w.refused {
			g.shed.Add(1)
			return &overloadError{status: http.StatusServiceUnavailable, retryAfter: time.Second, msg: "server is draining"}
		}
		g.admitted.Add(1)
		return nil
	case <-expire:
		if g.abandon(el) {
			g.queueTimeouts.Add(1)
			g.shed.Add(1)
			return &overloadError{status: http.StatusTooManyRequests, retryAfter: retryAfterHint(cfg), msg: "queue wait exceeded " + cfg.QueueTimeout.String()}
		}
		// A slot was handed over in the same instant — keep it.
		g.admitted.Add(1)
		return nil
	case <-ctx.Done():
		if !g.abandon(el) {
			g.release() // slot granted concurrently, but the caller is gone
		}
		return obsv.Cancelled(ctx, "server.admit")
	}
}

// abandon removes a waiter that stopped waiting; false means a slot
// was already handed to it and the caller now owns one.
func (g *admissionGate) abandon(el *list.Element) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	w := el.Value.(*waiter)
	if w.granted || w.refused {
		return false
	}
	g.queue.Remove(el)
	return true
}

// release returns one slot: to the longest waiter when there is one,
// to the pool otherwise.
func (g *admissionGate) release() {
	g.mu.Lock()
	if el := g.queue.Front(); el != nil {
		g.queue.Remove(el)
		w := el.Value.(*waiter)
		w.granted = true
		close(w.ch) // slot changes hands; infl is unchanged
		g.mu.Unlock()
		return
	}
	g.infl--
	g.mu.Unlock()
}

func (g *admissionGate) inflight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.infl
}

func (g *admissionGate) queued() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.queue.Len()
}

// retryAfterHint suggests how long a shed client should back off: the
// queue timeout when one is set (the bound on how stale the load
// signal can be), one second otherwise.
func retryAfterHint(cfg AdmissionConfig) time.Duration {
	if cfg.QueueTimeout > 0 {
		return cfg.QueueTimeout
	}
	return time.Second
}

// ---- server wiring ----

// SetAdmission configures the admission gate and per-query deadline.
// Call before serving; the zero config admits everything with no
// deadline.
func (s *Server) SetAdmission(cfg AdmissionConfig) {
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	s.gate.configure(cfg)
}

// SetDraining flips the server's drain state: health checks fail, new
// queries are refused with 503, queued waiters flush. In-flight
// queries keep running (their deadline still applies).
func (s *Server) SetDraining(on bool) { s.gate.setDraining(on) }

// admit passes one query through the gate. A request that never runs
// — refused by the gate ("shed"), or abandoned by its caller while
// queued ("cancelled") — still leaves its one record, in the outcome
// counters, the query log and the workload recorder (shed requests are
// offered load), before the error returns. It starts no trace or
// ledger: the point of shedding is to not spend on it. On nil error the
// caller must call the returned release exactly once. sess is the
// drill-down session the query targeted (workload.StatelessSession for
// stateless explores).
func (s *Server) admit(r *http.Request, op, input string, sess int) (release func(), err error) {
	if err := s.gate.acquire(r.Context()); err != nil {
		s.record(newEntry(r, op, input), sess, err)
		return nil, err
	}
	return s.gate.release, nil
}

// queryBudget resolves the effective wall-clock budget of one request:
// the server's -query-timeout, shortened (never extended) by the
// request's X-Atlas-Query-Timeout header (integer milliseconds).
func (s *Server) queryBudget(r *http.Request) time.Duration {
	d := s.gate.config().QueryTimeout
	if hv := r.Header.Get(headerQueryTimeout); hv != "" {
		if ms, err := strconv.ParseInt(hv, 10, 64); err == nil && ms > 0 {
			if hd := time.Duration(ms) * time.Millisecond; d <= 0 || hd < d {
				d = hd
			}
		}
	}
	return d
}

// handleHealthz is the coordinator's liveness probe: 200 while
// serving, 503 once draining — load balancers rotate away before the
// listener closes.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.gate.isDraining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ok": false, "draining": true})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// AdmissionStatsDTO reports the gate on /api/stats.
type AdmissionStatsDTO struct {
	MaxConcurrent int   `json:"maxConcurrent"`
	QueueDepth    int   `json:"queueDepth"`
	QueueTimeout  int64 `json:"queueTimeoutMs,omitempty"`
	QueryTimeout  int64 `json:"queryTimeoutMs,omitempty"`
	Inflight      int   `json:"inflight"`
	Queued        int   `json:"queued"`
	Admitted      int64 `json:"admitted"`
	Shed          int64 `json:"shed"`
	QueueTimeouts int64 `json:"queueTimeouts"`
	Cancelled     int64 `json:"cancelled"`
	Deadline      int64 `json:"deadlineExceeded"`
	Draining      bool  `json:"draining"`
}

func (s *Server) admissionStats() *AdmissionStatsDTO {
	s.Registry()
	cfg := s.gate.config()
	return &AdmissionStatsDTO{
		MaxConcurrent: cfg.MaxConcurrent,
		QueueDepth:    cfg.QueueDepth,
		QueueTimeout:  cfg.QueueTimeout.Milliseconds(),
		QueryTimeout:  cfg.QueryTimeout.Milliseconds(),
		Inflight:      s.gate.inflight(),
		Queued:        s.gate.queued(),
		Admitted:      s.gate.admitted.Load(),
		Shed:          s.gate.shed.Load(),
		QueueTimeouts: s.gate.queueTimeouts.Load(),
		Cancelled:     s.metrics.cancelledQueries.Value(),
		Deadline:      s.metrics.deadlineQueries.Value(),
		Draining:      s.gate.isDraining(),
	}
}
