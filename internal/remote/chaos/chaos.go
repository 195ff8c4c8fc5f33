// Package chaos is the fabric's fault-injection proxy: an http.Handler
// that fronts a shard server and misbehaves on command. Tests wrap each
// replica of an in-process fabric in an Injector, then script the
// failures a production fleet actually sees — a peer that dies mid-run,
// a slow link, a truncated or bit-flipped body, an overloaded server
// answering 500s — and assert that explorations survive them
// byte-identically.
//
// The injector is deliberately dumb: no goroutines, no schedules, just
// a mutable fault plan consulted per request. Faults are flipped at
// runtime (SetFault, KillAfter) so a test can break a replica at an
// exact point in an exploration's request stream.
package chaos

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Fault names one way to misbehave.
type Fault int

const (
	// None serves requests faithfully.
	None Fault = iota
	// Delay sleeps before serving (a slow peer; pair with a client
	// timeout shorter than the delay to simulate a hang). A request
	// whose caller hangs up during the sleep is dropped unanswered.
	Delay
	// Truncate serves only the first half of the response body while
	// keeping the original headers — the declared length and CRC no
	// longer match what arrives.
	Truncate
	// Corrupt flips one bit of the response body, headers untouched —
	// the CRC check on the client must catch it.
	Corrupt
	// Error5xx answers 500 without consulting the inner handler.
	Error5xx
	// Kill aborts the connection without writing a response — what a
	// killed process looks like from the coordinator.
	Kill
)

// Injector wraps a shard server handler with a scriptable fault plan.
// Safe for concurrent use.
type Injector struct {
	inner http.Handler

	mu        sync.Mutex
	fault     Fault
	delay     time.Duration
	killAfter int64 // with killAfter >= 0: healthy until that many requests served, then Kill
	match     func(*http.Request) bool

	requests atomic.Int64
	injected atomic.Int64
}

// Wrap fronts inner with a (initially faultless) injector.
func Wrap(inner http.Handler) *Injector {
	return &Injector{inner: inner, killAfter: -1}
}

// SetFault replaces the fault plan.
func (in *Injector) SetFault(f Fault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.fault = f
	in.killAfter = -1
}

// SetDelay sets the sleep used by the Delay fault.
func (in *Injector) SetDelay(d time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.delay = d
}

// KillAfter arms a deterministic mid-run death: the next n requests
// are served faithfully, every request after them aborts. n=0 kills
// immediately. A killed "process" does not discriminate by path, so
// KillAfter ignores any Match filter.
func (in *Injector) KillAfter(n int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.fault = None
	in.killAfter = in.requests.Load() + n
}

// Heal restores faithful service.
func (in *Injector) Heal() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.fault = None
	in.killAfter = -1
}

// Match restricts path-scoped faults (Delay, Truncate, Corrupt,
// Error5xx) to requests fn accepts; nil (the default) matches all.
func (in *Injector) Match(fn func(*http.Request) bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.match = fn
}

// Requests counts requests that reached the injector.
func (in *Injector) Requests() int64 { return in.requests.Load() }

// Injected counts requests a fault was applied to.
func (in *Injector) Injected() int64 { return in.injected.Load() }

// ServeHTTP implements http.Handler.
func (in *Injector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := in.requests.Add(1)
	in.mu.Lock()
	fault := in.fault
	delay := in.delay
	killed := in.killAfter >= 0 && n > in.killAfter
	matches := in.match == nil || in.match(r)
	in.mu.Unlock()

	if killed {
		in.injected.Add(1)
		panic(http.ErrAbortHandler) // abort the connection, no response
	}
	if fault == None || !matches {
		in.inner.ServeHTTP(w, r)
		return
	}
	in.injected.Add(1)
	switch fault {
	case Delay:
		// Reading the body to its end lets the server notice a caller
		// that hangs up during the sleep.
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-t.C:
			in.inner.ServeHTTP(w, r)
		case <-r.Context().Done():
			// The caller gave up: nobody is left to answer, so the
			// handler ends instead of outliving the request.
		}
	case Error5xx:
		http.Error(w, "chaos: injected server error", http.StatusInternalServerError)
	case Kill:
		panic(http.ErrAbortHandler)
	case Truncate, Corrupt:
		rec := &recording{header: make(http.Header)}
		in.inner.ServeHTTP(rec, r)
		body := rec.body.Bytes()
		if fault == Truncate {
			body = body[:len(body)/2]
		} else if len(body) > 0 {
			body = append([]byte(nil), body...)
			body[len(body)/2] ^= 0x40
		}
		h := w.Header()
		for k, vs := range rec.header {
			h[k] = vs
		}
		status := rec.status
		if status == 0 {
			status = http.StatusOK
		}
		w.WriteHeader(status)
		_, _ = w.Write(body)
	default:
		in.inner.ServeHTTP(w, r)
	}
}

// recording captures the inner handler's response for tampering.
type recording struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (r *recording) Header() http.Header { return r.header }

func (r *recording) Write(p []byte) (int, error) { return r.body.Write(p) }

func (r *recording) WriteHeader(status int) { r.status = status }
