package server

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/session"
)

// TestSessionTableEvictsIdleLRU: past the cap the least recently used
// idle session goes; a session with a request in flight never does.
func TestSessionTableEvictsIdleLRU(t *testing.T) {
	tbl := newSessionTable()
	for i := 0; i < maxLiveSessions; i++ {
		tbl.add(&session.Session{})
	}
	if _, ok := tbl.acquire(0); !ok { // 0 is now busy and most recent
		t.Fatal("session 0 missing below the cap")
	}
	if _, ok := tbl.acquire(1); !ok {
		t.Fatal("session 1 missing below the cap")
	}
	tbl.release(1) // 1 is idle, but more recently used than 2
	id := tbl.add(&session.Session{})
	if _, ok := tbl.acquire(2); ok {
		t.Fatal("session 2 — idle and least recently used — survived the overflow")
	}
	for _, keep := range []int{0, 1, id} {
		if _, ok := tbl.acquire(keep); !ok {
			t.Fatalf("session %d was evicted", keep)
		}
		tbl.release(keep)
	}
	if tbl.len() != maxLiveSessions {
		t.Fatalf("table holds %d sessions, cap %d", tbl.len(), maxLiveSessions)
	}
	// Push everything else out: busy session 0 must stay throughout.
	for i := 0; i < 2*maxLiveSessions; i++ {
		tbl.add(&session.Session{})
	}
	if _, ok := tbl.acquire(0); !ok {
		t.Fatal("a session with a request in flight was evicted")
	}
	tbl.release(0)
	tbl.release(0) // the first acquire: idle now, and the table is at the cap
	tbl.add(&session.Session{})
	tbl.add(&session.Session{})
	if tbl.len() != maxLiveSessions {
		t.Fatalf("table holds %d sessions, cap %d", tbl.len(), maxLiveSessions)
	}
}

// TestSessionCapOverHTTP: sessions past the cap answer 404 "no session"
// and atlas_sessions_open reports the live count.
func TestSessionCapOverHTTP(t *testing.T) {
	ts := newTestServer(t)
	const extra = 3
	for i := 0; i < maxLiveSessions+extra; i++ {
		resp, err := http.Post(ts.URL+"/api/sessions", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, resp.StatusCode)
		}
	}
	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(raw)
	}
	if code, body := get(fmt.Sprintf("/api/sessions/%d/history", extra-1)); code != http.StatusNotFound || !strings.Contains(body, "no session") {
		t.Fatalf("evicted session: status %d %s", code, body)
	}
	if code, body := get(fmt.Sprintf("/api/sessions/%d/history", extra)); code != http.StatusOK {
		t.Fatalf("surviving session: status %d %s", code, body)
	}
	if _, metrics := get("/metrics"); !strings.Contains(metrics, fmt.Sprintf("\natlas_sessions_open %d\n", maxLiveSessions)) {
		t.Fatalf("atlas_sessions_open does not report %d live sessions", maxLiveSessions)
	}
}
