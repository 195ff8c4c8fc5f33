package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/obsv"
	"repro/internal/workload"
)

// Admission-gate semantics: capacity refusals with 429 + Retry-After,
// FIFO slot hand-off, queue timeouts, drain behavior, and the
// per-query wall-clock deadline surfacing as a clean 504 with the
// query log and counters marking the outcome.

func gateWith(cfg AdmissionConfig) *admissionGate {
	g := newAdmissionGate()
	g.configure(cfg)
	return g
}

func TestGateShedsPastQueueDepth(t *testing.T) {
	g := gateWith(AdmissionConfig{MaxConcurrent: 1, QueueDepth: 0})
	if err := g.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	err := g.acquire(context.Background())
	var oe *overloadError
	if !errors.As(err, &oe) || oe.status != http.StatusTooManyRequests {
		t.Fatalf("over-capacity acquire returned %v, want a 429 overload error", err)
	}
	if got := g.shed.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	g.release()
	if err := g.acquire(context.Background()); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
}

func TestGateHandsSlotsFIFO(t *testing.T) {
	g := gateWith(AdmissionConfig{MaxConcurrent: 1, QueueDepth: 3})
	if err := g.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	order := make(chan int, 3)
	ready := make(chan struct{}, 3)
	for i := 1; i <= 3; i++ {
		go func(i int) {
			ready <- struct{}{}
			if err := g.acquire(context.Background()); err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			order <- i
		}(i)
		<-ready
		// Enqueue one at a time so queue order is deterministic.
		for g.queued() < i {
			time.Sleep(time.Millisecond)
		}
	}
	for want := 1; want <= 3; want++ {
		g.release()
		if got := <-order; got != want {
			t.Fatalf("slot handed to waiter %d, want %d (FIFO)", got, want)
		}
	}
}

func TestGateQueueTimeoutSheds(t *testing.T) {
	g := gateWith(AdmissionConfig{MaxConcurrent: 1, QueueDepth: 1, QueueTimeout: 30 * time.Millisecond})
	if err := g.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := g.acquire(context.Background())
	var oe *overloadError
	if !errors.As(err, &oe) || oe.status != http.StatusTooManyRequests {
		t.Fatalf("queue timeout returned %v, want 429", err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond || elapsed > 2*time.Second {
		t.Fatalf("queue timeout fired after %s, want ~30ms", elapsed)
	}
	if g.queueTimeouts.Load() != 1 || g.shed.Load() != 1 {
		t.Fatalf("counters: timeouts=%d shed=%d, want 1/1", g.queueTimeouts.Load(), g.shed.Load())
	}
	if g.queued() != 0 {
		t.Fatalf("timed-out waiter still queued")
	}
}

func TestGateCancelledWaiterLeavesQueue(t *testing.T) {
	g := gateWith(AdmissionConfig{MaxConcurrent: 1, QueueDepth: 1})
	if err := g.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- g.acquire(ctx) }()
	for g.queued() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !obsv.IsCancellation(err) {
		t.Fatalf("cancelled waiter returned %v, want a cancellation", err)
	}
	if g.shed.Load() != 0 {
		t.Fatal("a client hanging up is not load shedding; shed counter moved")
	}
	// The abandoned slot request must not leak queue capacity.
	if g.queued() != 0 {
		t.Fatal("cancelled waiter still queued")
	}
}

func TestGateDrainRefusesAndFlushesQueue(t *testing.T) {
	g := gateWith(AdmissionConfig{MaxConcurrent: 1, QueueDepth: 2})
	if err := g.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() { queued <- g.acquire(context.Background()) }()
	for g.queued() == 0 {
		time.Sleep(time.Millisecond)
	}
	g.setDraining(true)
	var oe *overloadError
	if err := <-queued; !errors.As(err, &oe) || oe.status != http.StatusServiceUnavailable {
		t.Fatalf("drained waiter got %v, want 503", err)
	}
	if err := g.acquire(context.Background()); !errors.As(err, &oe) || oe.status != http.StatusServiceUnavailable {
		t.Fatalf("acquire while draining got %v, want 503", err)
	}
	// The in-flight query finishing must not wedge on the empty queue.
	g.release()
	if g.inflight() != 0 {
		t.Fatalf("inflight = %d after final release, want 0", g.inflight())
	}
}

// ---- HTTP surface ----

func TestExploreShed429WithRetryAfter(t *testing.T) {
	tbl := datagen.Census(2_000, 1)
	srv := New(tbl, core.DefaultOptions())
	srv.SetAdmission(AdmissionConfig{MaxConcurrent: 1, QueueDepth: 0})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Occupy the only slot, then hit the API: the request must be shed,
	// not queued.
	if err := srv.gate.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/explore", "application/json",
		strings.NewReader(`{"cql":"EXPLORE census WHERE age BETWEEN 20 AND 60"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	srv.gate.release()

	// The refusal is visible everywhere it should be: query log outcome,
	// /api/stats, /metrics.
	entries := srv.qlog.Entries()
	if len(entries) == 0 || entries[0].Outcome != "shed" {
		t.Fatalf("query log did not mark the shed request: %+v", entries)
	}
	st := srv.admissionStats()
	if st.Shed != 1 || st.Draining {
		t.Fatalf("admission stats %+v, want Shed=1", st)
	}
	mr := httptest.NewRecorder()
	srv.Registry().Handler().ServeHTTP(mr, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(mr.Body.String(), "atlas_admission_shed_total 1") {
		t.Error("/metrics does not report atlas_admission_shed_total 1")
	}

	// With the slot free again the same request succeeds.
	resp2, err := http.Post(ts.URL+"/api/explore", "application/json",
		strings.NewReader(`{"cql":"EXPLORE census WHERE age BETWEEN 20 AND 60"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-release explore status = %d, want 200", resp2.StatusCode)
	}
}

// TestOverloadAdmittedAnswersMatchUngated sends 4× the gate's capacity
// of explores at once, each a distinct query text so no result cache
// answers one. Every slot is held by the test while they arrive, so
// exactly QueueDepth of them queue and the rest are shed, whatever the
// scheduling; releasing the slots then admits the queued ones. Every
// reply is a 200 or a 429 with Retry-After, admitted + shed = sent, and
// every admitted answer is byte-identical to an ungated twin's.
func TestOverloadAdmittedAnswersMatchUngated(t *testing.T) {
	const maxConcurrent, queueDepth = 2, 6
	const clients = 4 * (maxConcurrent + queueDepth)
	tbl := datagen.Census(4_000, 1)
	srv := New(tbl, core.DefaultOptions())
	srv.SetAdmission(AdmissionConfig{MaxConcurrent: maxConcurrent, QueueDepth: queueDepth, QueueTimeout: time.Minute})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	refTS := httptest.NewServer(New(tbl, core.DefaultOptions()).Handler())
	t.Cleanup(refTS.Close)

	type reply struct {
		i          int
		status     int
		body       []byte
		retryAfter string
		err        error
	}
	post := func(base string, i int) reply {
		// Ages are integers, so the fractional bound selects the same
		// rows for every i: the same work under a different text.
		cql := fmt.Sprintf(`{"cql": "EXPLORE census WHERE age BETWEEN 20 AND 70.%04d"}`, i+1)
		resp, err := http.Post(base+"/api/explore", "application/json", strings.NewReader(cql))
		if err != nil {
			return reply{i: i, err: err}
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return reply{i: i, status: resp.StatusCode, body: body, retryAfter: resp.Header.Get("Retry-After"), err: err}
	}

	for i := 0; i < maxConcurrent; i++ {
		if err := srv.gate.acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	replies := make(chan reply, clients)
	for i := 0; i < clients; i++ {
		go func(i int) { replies <- post(ts.URL, i) }(i)
	}
	var got []reply
	// With every slot held nothing is admitted: the first
	// clients-queueDepth replies are the shed ones.
	for len(got) < clients-queueDepth {
		got = append(got, <-replies)
	}
	for i := 0; i < maxConcurrent; i++ {
		srv.gate.release()
	}
	for len(got) < clients {
		got = append(got, <-replies)
	}

	admitted, shed := 0, 0
	for _, r := range got {
		if r.err != nil {
			t.Fatal(r.err)
		}
		switch r.status {
		case http.StatusOK:
			admitted++
			want := post(refTS.URL, r.i)
			if want.err != nil || want.status != http.StatusOK {
				t.Fatalf("ungated twin: status %d, err %v: %s", want.status, want.err, want.body)
			}
			a, err := workload.CanonicalBody(r.body)
			if err != nil {
				t.Fatal(err)
			}
			b, err := workload.CanonicalBody(want.body)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("admitted explore %d differs from the ungated twin's:\n got: %.200s\nwant: %.200s", r.i, a, b)
			}
		case http.StatusTooManyRequests:
			shed++
			if r.retryAfter == "" {
				t.Errorf("explore %d: 429 without a Retry-After header", r.i)
			}
		default:
			t.Fatalf("explore %d answered %d, want 200 or 429: %s", r.i, r.status, r.body)
		}
	}
	if admitted != queueDepth || shed != clients-queueDepth {
		t.Fatalf("admitted %d, shed %d of %d sent; want %d and %d", admitted, shed, clients, queueDepth, clients-queueDepth)
	}
	if st := srv.admissionStats(); st.Shed != int64(shed) {
		t.Fatalf("admission stats count %d shed, replies %d", st.Shed, shed)
	}
}

func TestQueryDeadline504AndOutcome(t *testing.T) {
	tbl := datagen.Census(60_000, 1)
	srv := New(tbl, core.DefaultOptions())
	// A 1ns budget is expired before the query starts — WithTimeout
	// cancels past deadlines synchronously — so the first stage check
	// trips regardless of machine speed or timer granularity (a
	// single-core box may not schedule a short deadline timer before a
	// fast exploration finishes).
	srv.SetAdmission(AdmissionConfig{QueryTimeout: time.Nanosecond})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/api/explore", "application/json",
		strings.NewReader(`{"cql":"EXPLORE census WHERE age BETWEEN 17 AND 90"}`))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]string
	_ = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%v), want 504", resp.StatusCode, out)
	}
	if !strings.Contains(out["error"], "deadline") {
		t.Errorf("error %q does not mention the deadline", out["error"])
	}
	entries := srv.qlog.Entries()
	if len(entries) == 0 || entries[0].Outcome != "deadline" {
		t.Fatalf("query log outcome %+v, want deadline", entries)
	}
	if entries[0].Ledger == nil {
		t.Error("deadlined query logged without its ledger")
	}
	if got := entries[0].Ledger.CancelledAt; got == "" {
		t.Error("ledger does not record the stage the cancellation landed at")
	}
	if srv.metrics.deadlineQueries.Value() != 1 {
		t.Errorf("atlas_queries_deadline_total = %d, want 1", srv.metrics.deadlineQueries.Value())
	}
}

func TestQueryTimeoutHeaderShortensOnly(t *testing.T) {
	// The header's floor is 1ms, so the exploration must reliably
	// outlast both the budget and the runtime's timer-scheduling
	// granularity (~10ms on a busy single core) — 300k rows is ~50ms.
	tbl := datagen.Census(300_000, 1)
	srv := New(tbl, core.DefaultOptions())
	srv.SetAdmission(AdmissionConfig{QueryTimeout: 30 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Shorten: a 1ms header budget deadlines the query.
	req, _ := http.NewRequest("POST", ts.URL+"/api/explore",
		strings.NewReader(`{"cql":"EXPLORE census WHERE age BETWEEN 17 AND 90"}`))
	req.Header.Set(headerQueryTimeout, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("header-shortened query status = %d, want 504", resp.StatusCode)
	}

	// Extend: a header over the server cap is clamped to the cap, so the
	// effective budget stays the server's.
	r := httptest.NewRequest("POST", "/api/explore", nil)
	r.Header.Set(headerQueryTimeout, "999999999")
	if d := srv.queryBudget(r); d != 30*time.Second {
		t.Fatalf("query budget %s, want the 30s server cap", d)
	}
}

func TestDrainingHealthzAndRefusal(t *testing.T) {
	tbl := datagen.Census(2_000, 1)
	srv := New(tbl, core.DefaultOptions())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz while serving = %d, want 200", got)
	}
	srv.SetDraining(true)
	if got := get("/healthz"); got != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", got)
	}
	resp, err := http.Post(ts.URL+"/api/explore", "application/json",
		strings.NewReader(`{"cql":"EXPLORE census"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("explore while draining = %d, want 503", resp.StatusCode)
	}
	mr := httptest.NewRecorder()
	srv.Registry().Handler().ServeHTTP(mr, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(mr.Body.String(), "atlas_draining 1") {
		t.Error("/metrics does not report atlas_draining 1")
	}
	srv.SetDraining(false)
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz after drain lifted = %d, want 200", got)
	}
}
