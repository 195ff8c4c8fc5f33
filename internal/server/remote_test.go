package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/remote"
	"repro/internal/remote/chaos"
	"repro/internal/shard"
)

// startRemoteManifest shards the census table locally, serves every
// shard from an in-process fabric server, and returns the coordinator
// manifest plus the local one.
func startRemoteManifest(t *testing.T, shards int) (remoteManifest, localManifest string) {
	t.Helper()
	return startRemoteManifestWith(t, shards, func(_ int, h http.Handler) http.Handler { return h })
}

// startRemoteManifestWith is startRemoteManifest with shard i's fabric
// handler passed through wrap first (a chaos injector, say).
func startRemoteManifestWith(t *testing.T, shards int, wrap func(i int, h http.Handler) http.Handler) (remoteManifest, localManifest string) {
	t.Helper()
	tbl := datagen.Census(6_000, 41)
	dir := t.TempDir()
	localManifest = filepath.Join(dir, "census.atlm")
	if _, err := shard.WriteSharded(localManifest, tbl, shard.IngestOptions{Shards: shards, ChunkSize: 256}); err != nil {
		t.Fatal(err)
	}
	m, err := shard.ReadManifest(localManifest)
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, len(m.Shards))
	for i, sf := range m.Shards {
		st, err := colstore.OpenWith(filepath.Join(dir, sf.File), lazyThrash)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(wrap(i, remote.NewServer(st).Handler()))
		t.Cleanup(func() { ts.Close(); st.Close() })
		urls[i] = ts.URL
	}
	rm, err := shard.RemoteManifest(m, urls)
	if err != nil {
		t.Fatal(err)
	}
	remoteManifest = filepath.Join(t.TempDir(), "remote.atlm")
	if err := shard.WriteManifestFile(remoteManifest, rm); err != nil {
		t.Fatal(err)
	}
	return remoteManifest, localManifest
}

// TestServerRemoteManifest serves a remote manifest end to end: the
// coordinator server must sniff it, fan explorations out over the
// fabric, answer identically to the local sharded server, and report
// per-shard health on /api/shards — with both coordinators opened in
// auto mode and lazily behind a tiny cache.
func TestServerRemoteManifest(t *testing.T) {
	remoteManifest, localManifest := startRemoteManifest(t, 2)
	for _, store := range []colstore.Options{{}, lazyThrash} {
		testRemoteManifestServer(t, remoteManifest, localManifest, store)
	}
}

// testRemoteManifestServer compares a coordinator over remoteManifest
// with one over localManifest, both opened with the given store options.
func testRemoteManifestServer(t *testing.T, remoteManifest, localManifest string, store colstore.Options) {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Parallelism = 2
	localSrv, err := NewFromStoreWith(localManifest, opts, StoreConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer localSrv.Close()
	opener := remote.NewOpener(remote.Options{Timeout: 10 * time.Second})
	defer opener.Close()
	remoteSrv, err := NewFromStoreWith(remoteManifest, opts, StoreConfig{Store: store, Remote: opener})
	if err != nil {
		t.Fatal(err)
	}
	defer remoteSrv.Close()

	explore := func(srv *Server, cql string) string {
		req := httptest.NewRequest(http.MethodPost, "/api/explore",
			bytes.NewReader(mustJSON(t, map[string]string{"cql": cql})))
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("explore: HTTP %d: %s", w.Code, w.Body.String())
		}
		var dto ResultDTO
		if err := json.Unmarshal(w.Body.Bytes(), &dto); err != nil {
			t.Fatal(err)
		}
		// Timing and the resource bill are the legitimate differences:
		// the remote deployment pays RPCs and wire bytes the local one
		// does not. The maps themselves must be byte-identical.
		dto.ElapsedMs = 0
		dto.Ledger = nil
		norm, err := json.Marshal(dto)
		if err != nil {
			t.Fatal(err)
		}
		return string(norm)
	}
	for _, cql := range []string{
		"EXPLORE census",
		"EXPLORE census WHERE age BETWEEN 25 AND 60",
	} {
		if local, rem := explore(localSrv, cql), explore(remoteSrv, cql); local != rem {
			t.Errorf("%q: remote server answer differs from local\nlocal:  %s\nremote: %s", cql, local, rem)
		}
	}

	// /api/shards reports remote health and latency.
	req := httptest.NewRequest(http.MethodGet, "/api/shards", nil)
	w := httptest.NewRecorder()
	remoteSrv.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("shards: HTTP %d: %s", w.Code, w.Body.String())
	}
	var dto ShardsDTO
	if err := json.Unmarshal(w.Body.Bytes(), &dto); err != nil {
		t.Fatal(err)
	}
	if !dto.Sharded || len(dto.Shards) != 2 {
		t.Fatalf("shards DTO: %+v", dto)
	}
	for i, sd := range dto.Shards {
		if !sd.Remote {
			t.Errorf("shard %d: not reported remote", i)
		}
		if sd.Healthy == nil || !*sd.Healthy {
			t.Errorf("shard %d: not healthy: %s", i, sd.Error)
		}
	}
}

// TestShardsProbeFollowsRequestContext: GET /api/shards probes remote
// shards under the request's context, so a caller that gives up on a
// hung replica gets its handler back promptly instead of waiting out
// the probe (and the opener's timeout) against it.
func TestShardsProbeFollowsRequestContext(t *testing.T) {
	var inj *chaos.Injector
	remoteManifest, _ := startRemoteManifestWith(t, 1, func(_ int, h http.Handler) http.Handler {
		inj = chaos.Wrap(h)
		return inj
	})
	opener := remote.NewOpener(remote.Options{Timeout: 10 * time.Second, Retries: -1})
	defer opener.Close()
	srv, err := NewFromStoreWith(remoteManifest, core.DefaultOptions(), StoreConfig{Remote: opener})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const hang = time.Second
	inj.SetFault(chaos.Delay)
	inj.SetDelay(hang)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest(http.MethodGet, "/api/shards", nil).WithContext(ctx)
	w := httptest.NewRecorder()
	start := time.Now()
	srv.Handler().ServeHTTP(w, req)
	if elapsed := time.Since(start); elapsed > hang/2 {
		t.Errorf("handler returned after %s with its caller gone at 50ms; the probe ignored the request context", elapsed)
	}
	if w.Code == http.StatusOK {
		t.Errorf("abandoned request answered 200: %s", w.Body.String())
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDrillPipelineFailureIs5xx: a drill whose pipeline fails — every
// replica of a shard answering 500, or serving corrupt chunks — answers
// 5xx, as the same failure does on /api/explore. Only a drill the
// session cannot take (no exploration yet, a bad map or region index)
// is the client's fault and answers 400.
func TestDrillPipelineFailureIs5xx(t *testing.T) {
	for _, fc := range []struct {
		name  string
		fault chaos.Fault
	}{{"500s", chaos.Error5xx}, {"corrupt chunks", chaos.Corrupt}} {
		var injs []*chaos.Injector
		remoteManifest, _ := startRemoteManifestWith(t, 2, func(_ int, h http.Handler) http.Handler {
			inj := chaos.Wrap(h)
			injs = append(injs, inj)
			return inj
		})
		opener := remote.NewOpener(remote.Options{Timeout: 10 * time.Second, Retries: -1, RetryWait: time.Millisecond})
		defer opener.Close()
		// A cache far smaller than the table: the drill must fetch chunks.
		store := colstore.Options{Mode: colstore.ModeLazy, CacheBytes: 4096}
		srv, err := NewFromStoreWith(remoteManifest, core.DefaultOptions(), StoreConfig{Store: store, Remote: opener})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		post := func(path string, body any) *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(mustJSON(t, body)))
			w := httptest.NewRecorder()
			srv.Handler().ServeHTTP(w, req)
			return w
		}
		var created struct{ ID int }
		if w := post("/api/sessions", map[string]any{}); w.Code != http.StatusCreated {
			t.Fatalf("new session: HTTP %d: %s", w.Code, w.Body.String())
		} else if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil {
			t.Fatal(err)
		}
		base := fmt.Sprintf("/api/sessions/%d/", created.ID)
		if w := post(base+"drill", drillRequest{Map: 0, Region: 0}); w.Code != http.StatusBadRequest {
			t.Errorf("drill before any exploration: HTTP %d, want 400: %s", w.Code, w.Body.String())
		}
		if w := post(base+"explore", map[string]string{"cql": "EXPLORE census WHERE age BETWEEN 20 AND 70"}); w.Code != http.StatusOK {
			t.Fatalf("explore: HTTP %d: %s", w.Code, w.Body.String())
		}
		for _, bad := range []drillRequest{{Map: 99, Region: 0}, {Map: 0, Region: 99}, {Map: -1, Region: 0}} {
			if w := post(base+"drill", bad); w.Code != http.StatusBadRequest {
				t.Errorf("drill %+v: HTTP %d, want 400: %s", bad, w.Code, w.Body.String())
			}
		}

		// Let the explore's prefetches land, then drill into a region
		// nobody has computed, with every shard failing.
		sess, _ := srv.sessions.acquire(created.ID)
		sess.Wait()
		srv.sessions.release(created.ID)
		cur, err := sess.Current()
		if err != nil {
			t.Fatal(err)
		}
		target := drillRequest{Map: -1}
		for mi, m := range cur.Result.Maps {
			for ri, r := range m.Regions {
				if target.Map < 0 && r.Count > 0 && !srv.results.Contains(r.Query.String()) {
					target = drillRequest{Map: mi, Region: ri}
				}
			}
		}
		if target.Map < 0 {
			t.Fatal("every region was prefetched; nothing left to drill into cold")
		}
		for _, inj := range injs {
			inj.SetFault(fc.fault)
		}
		if w := post(base+"drill", target); w.Code < 500 {
			t.Errorf("%s: failed drill answered HTTP %d, want 5xx: %s", fc.name, w.Code, w.Body.String())
		}
	}
}

// TestShardsColumnTableRetriesAfterFailure: /api/shards keeps only a
// column table it computed. With a shard killed the request fails; once
// the shard heals the next request answers 200 with every column,
// instead of the first failure until the server restarts.
func TestShardsColumnTableRetriesAfterFailure(t *testing.T) {
	var injs []*chaos.Injector
	remoteManifest, _ := startRemoteManifestWith(t, 2, func(_ int, h http.Handler) http.Handler {
		inj := chaos.Wrap(h)
		injs = append(injs, inj)
		return inj
	})
	// A breaker that never trips: the healed shard is dialed at once.
	opener := remote.NewOpener(remote.Options{Timeout: 10 * time.Second, Retries: -1, BreakerThreshold: 1 << 20})
	defer opener.Close()
	srv, err := NewFromStoreWith(remoteManifest, core.DefaultOptions(), StoreConfig{Remote: opener})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/shards", nil))
		return w
	}
	injs[1].SetFault(chaos.Kill)
	if w := get(); w.Code == http.StatusOK {
		t.Fatalf("shard 1 killed: HTTP 200: %s", w.Body.String())
	}
	injs[1].SetFault(chaos.None)
	w := get()
	if w.Code != http.StatusOK {
		t.Fatalf("shard 1 healed: HTTP %d: %s", w.Code, w.Body.String())
	}
	var dto ShardsDTO
	if err := json.Unmarshal(w.Body.Bytes(), &dto); err != nil {
		t.Fatal(err)
	}
	if len(dto.Columns) != srv.Table().NumCols() {
		t.Errorf("healed answer has %d columns, want %d", len(dto.Columns), srv.Table().NumCols())
	}
}
