package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
)

// serveOnce sends one request straight to the handler and fails on any
// status but 200.
func serveOnce(t testing.TB, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK && rec.Code != http.StatusCreated {
		t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
	}
	return rec
}

// maxHitAllocs bounds the allocations of one cache hit through the
// handler. A hit re-renders nothing of its result, so what it allocates
// is the request's own: decoding, tracing, the ledger and the query
// log. Re-rendering a census result's region texts and JSON costs
// hundreds more.
const maxHitAllocs = 200

// TestHitPathAllocs reports, and bounds, the allocations of a
// session-explore hit and of a drill hit on census, prefetches settled:
// the cost of answering from the result cache as a count, not a timing.
func TestHitPathAllocs(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Parallelism = 1
	srv := New(datagen.Census(4000, 5), opts)
	h := srv.Handler()
	serveOnce(t, h, http.MethodPost, "/api/sessions", "")
	sess, _ := srv.sessions.acquire(0)
	defer srv.sessions.release(0)
	const cql = `{"cql":"EXPLORE census WHERE age BETWEEN 17 AND 90"}`
	serveOnce(t, h, http.MethodPost, "/api/sessions/0/explore", cql)
	serveOnce(t, h, http.MethodPost, "/api/sessions/0/drill", `{"map":0,"region":0}`)
	sess.Wait()
	if _, err := sess.Back(); err != nil {
		t.Fatal(err)
	}

	explore := testing.AllocsPerRun(50, func() {
		if rec := serveOnce(t, h, http.MethodPost, "/api/sessions/0/explore", cql); rec.Header().Get(headerResultCache) != "hit" {
			t.Fatal("session explore missed the cache")
		}
	})
	sess.Wait()
	drill := testing.AllocsPerRun(50, func() {
		if rec := serveOnce(t, h, http.MethodPost, "/api/sessions/0/drill", `{"map":0,"region":0}`); rec.Header().Get(headerResultCache) != "hit" {
			t.Fatal("drill missed the cache")
		}
		if _, err := sess.Back(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per hit: session explore %.0f, drill %.0f", explore, drill)
	if explore > maxHitAllocs || drill > maxHitAllocs {
		t.Fatalf("a hit allocates more than %d times", maxHitAllocs)
	}
}

// TestConcurrentSessionsRenderOnce: eight sessions exploring one query
// at once share one result, render its body once and its maps' region
// texts once, and answer with identical bodies.
func TestConcurrentSessionsRenderOnce(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Parallelism = 2
	srv := New(datagen.Census(4000, 9), opts)
	h := srv.Handler()
	const sessions = 8
	for range sessions {
		serveOnce(t, h, http.MethodPost, "/api/sessions", "")
	}
	const cql = `{"cql":"EXPLORE census WHERE age BETWEEN 30 AND 60"}`
	before := resultRenders.Load()
	bodies := make([][]byte, sessions)
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := serveOnce(t, h, http.MethodPost, fmt.Sprintf("/api/sessions/%d/explore", i), cql)
			bodies[i] = rec.Body.Bytes()
		}()
	}
	wg.Wait()
	if n := resultRenders.Load() - before; n != 1 {
		t.Fatalf("%d sessions rendered one result's body %d times", sessions, n)
	}
	var res *core.Result
	for i := range sessions {
		sess, _ := srv.sessions.acquire(i)
		srv.sessions.release(i)
		sess.Wait()
		cur, err := sess.Current()
		if err != nil {
			t.Fatal(err)
		}
		if res == nil {
			res = cur.Result
		} else if cur.Result != res {
			t.Fatalf("session %d holds a result of its own", i)
		}
	}
	// Every map's texts were rendered by the first reader: reading them
	// again builds nothing.
	if allocs := testing.AllocsPerRun(10, func() {
		for _, m := range res.Maps {
			for ri := range m.Regions {
				_ = m.RegionText(ri)
			}
		}
	}); allocs != 0 {
		t.Fatalf("reading the served maps' region texts allocates %.1f times", allocs)
	}
	for i := range bodies {
		if err := bodyWithoutRequestFields(bodies[i], bodies[0]); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
}

// bodyWithoutRequestFields compares two node bodies of one result up
// to their node ids and per-request fields (the ledger).
func bodyWithoutRequestFields(a, b []byte) error {
	var na, nb NodeDTO
	if err := json.Unmarshal(a, &na); err != nil {
		return err
	}
	if err := json.Unmarshal(b, &nb); err != nil {
		return err
	}
	na.Result.requestFields, nb.Result.requestFields = requestFields{}, requestFields{}
	ja, _ := json.Marshal(na.Result)
	jb, _ := json.Marshal(nb.Result)
	if !bytes.Equal(ja, jb) {
		return fmt.Errorf("result differs:\n%s\n%s", ja, jb)
	}
	return nil
}

// BenchmarkHitPath times the handler alone answering a session-explore
// hit and a drill hit (then back), prefetches settled.
func BenchmarkHitPath(b *testing.B) {
	opts := core.DefaultOptions()
	opts.Parallelism = 1
	srv := New(datagen.Census(20000, 5), opts)
	h := srv.Handler()
	serveOnce(b, h, http.MethodPost, "/api/sessions", "")
	sess, _ := srv.sessions.acquire(0)
	defer srv.sessions.release(0)
	const cql = `{"cql":"EXPLORE census WHERE age BETWEEN 17 AND 90"}`
	serveOnce(b, h, http.MethodPost, "/api/sessions/0/explore", cql)
	serveOnce(b, h, http.MethodPost, "/api/sessions/0/drill", `{"map":0,"region":0}`)
	sess.Wait()
	if _, err := sess.Back(); err != nil {
		b.Fatal(err)
	}
	b.Run("session-explore", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			serveOnce(b, h, http.MethodPost, "/api/sessions/0/explore", cql)
		}
	})
	sess.Wait()
	b.Run("drill", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			serveOnce(b, h, http.MethodPost, "/api/sessions/0/drill", `{"map":0,"region":0}`)
			if _, err := sess.Back(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
