package server

import (
	"bytes"
	"context"
	"encoding/json"
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
		st, err := colstore.OpenWith(filepath.Join(dir, sf.File), colstore.Options{Mode: colstore.ModeLazy})
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
// per-shard health on /api/shards.
func TestServerRemoteManifest(t *testing.T) {
	remoteManifest, localManifest := startRemoteManifest(t, 2)

	opts := core.DefaultOptions()
	opts.Parallelism = 2
	localSrv, err := NewFromStoreWith(localManifest, opts, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	remoteSrv, err := NewFromStoreWith(remoteManifest, opts, StoreConfig{
		Remote: remote.NewOpener(remote.Options{Timeout: 10 * time.Second}),
	})
	if err != nil {
		t.Fatal(err)
	}

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
