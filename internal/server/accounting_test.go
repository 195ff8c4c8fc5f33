package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/workload"
)

// scanKeys are the five scan-plane fields /api/stats reports under
// "scan" and under "server.ledgerTotals", and the atlas_engine_*
// counter each is exported as.
var scanKeys = map[string]string{
	"chunksPruned":   "atlas_engine_chunks_pruned_total",
	"chunksFull":     "atlas_engine_chunks_full_total",
	"chunksScanned":  "atlas_engine_chunks_scanned_total",
	"chunksDecoded":  "atlas_engine_chunks_decoded_total",
	"chunkCacheHits": "atlas_engine_chunk_cache_hits_total",
}

// TestScanCountsAreLedgerTotals: the lifetime scan counters are the sum
// of every query's ledger. After a default explore, a WITH override
// (which runs on a Cartographer of its own), a session explore with its
// prefetches and a drill over a lazy store, /api/stats' "scan" section
// and every atlas_engine_* counter equal the scan plane of the ledger
// totals.
func TestScanCountsAreLedgerTotals(t *testing.T) {
	path := filepath.Join(t.TempDir(), "census.atl")
	if err := colstore.WriteFile(path, datagen.Census(20_000, 1), 1024); err != nil {
		t.Fatal(err)
	}
	srv, err := NewFromStoreWith(path, core.DefaultOptions(), StoreConfig{
		Store: colstore.Options{Mode: colstore.ModeLazy, CacheBytes: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	serve := func(method, path string, body any) []byte {
		t.Helper()
		var rd io.Reader = http.NoBody
		if body != nil {
			rd = bytes.NewReader(mustJSON(t, body))
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, rd))
		if w.Code >= 300 {
			t.Fatalf("%s %s: HTTP %d: %s", method, path, w.Code, w.Body.String())
		}
		return w.Body.Bytes()
	}

	serve("POST", "/api/explore", map[string]string{"cql": "EXPLORE census WHERE age BETWEEN 25 AND 60"})
	serve("POST", "/api/explore", map[string]string{"cql": "EXPLORE census WHERE age BETWEEN 25 AND 60 WITH MAPS 4"})
	var created struct{ ID int }
	if err := json.Unmarshal(serve("POST", "/api/sessions", nil), &created); err != nil {
		t.Fatal(err)
	}
	sid := strconv.Itoa(created.ID)
	serve("POST", "/api/sessions/"+sid+"/explore", map[string]string{"cql": "EXPLORE census WHERE age > 30"})
	serve("POST", "/api/sessions/"+sid+"/drill", map[string]int{"map": 0, "region": 1})
	sess, ok := srv.sessions.acquire(created.ID)
	if !ok {
		t.Fatal("session vanished")
	}
	sess.Wait()
	srv.sessions.release(created.ID)

	var stats struct {
		Scan   map[string]int64 `json:"scan"`
		Server struct {
			LedgerTotals map[string]int64 `json:"ledgerTotals"`
		} `json:"server"`
	}
	if err := json.Unmarshal(serve("GET", "/api/stats", nil), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Scan["chunksScanned"] == 0 || stats.Scan["chunksDecoded"] == 0 {
		t.Fatalf("the requests scanned nothing: %v", stats.Scan)
	}
	metrics := string(serve("GET", "/metrics", nil))
	for key, family := range scanKeys {
		got, want := stats.Scan[key], stats.Server.LedgerTotals[key]
		if got != want {
			t.Errorf("/api/stats scan.%s = %d, ledgerTotals.%s = %d", key, got, key, want)
		}
		m := regexp.MustCompile(`(?m)^` + family + `\{layer="engine"\} (\d+)$`).FindStringSubmatch(metrics)
		if m == nil {
			t.Errorf("no %s sample on /metrics", family)
			continue
		}
		if n, _ := strconv.ParseInt(m[1], 10, 64); n != want {
			t.Errorf("%s = %d, ledgerTotals.%s = %d", family, n, key, want)
		}
	}
}

// TestQueuedCancelLeavesOneRecord: a request whose caller gives up
// while it waits in the admission queue never runs, but still leaves
// exactly one record — in the query log and the workload capture, with
// outcome "cancelled" — and moves the cancelled counter by one.
func TestQueuedCancelLeavesOneRecord(t *testing.T) {
	srv := New(datagen.Census(2_000, 1), core.DefaultOptions())
	srv.SetAdmission(AdmissionConfig{MaxConcurrent: 1, QueueDepth: 1, QueueTimeout: time.Minute})
	h := srv.Handler()
	if err := srv.gate.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer srv.gate.release()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan int)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/api/explore",
			strings.NewReader(`{"cql": "EXPLORE census WHERE age > 40"}`)).WithContext(ctx)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		done <- w.Code
	}()
	for deadline := time.Now().Add(10 * time.Second); srv.gate.queued() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the request never queued")
		}
	}
	cancel()
	if code := <-done; code != 499 {
		t.Fatalf("queued-then-cancelled request answered %d, want 499", code)
	}

	entries := srv.qlog.Entries()
	if len(entries) != 1 || entries[0].Outcome != "cancelled" || entries[0].Op != "explore" || entries[0].Input == "" {
		t.Fatalf("query log = %+v, want one cancelled explore", entries)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/workload", nil))
	wl, err := workload.Parse(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(wl.Entries) != 1 || wl.Entries[0].Outcome != "cancelled" || wl.Entries[0].Session != workload.StatelessSession {
		t.Fatalf("workload capture = %+v, want one cancelled stateless entry", wl.Entries)
	}
	if n := srv.metrics.cancelledQueries.Value(); n != 1 {
		t.Fatalf("atlas_queries_cancelled_total = %d, want 1", n)
	}
}
