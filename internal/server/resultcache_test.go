package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/obsv"
	"repro/internal/workload"
)

func statsOf(t *testing.T, url string) StatsDTO {
	t.Helper()
	resp, err := http.Get(url + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dto StatsDTO
	if err := json.NewDecoder(resp.Body).Decode(&dto); err != nil {
		t.Fatal(err)
	}
	if dto.ResultCache == nil {
		t.Fatal("/api/stats has no resultCache section")
	}
	return dto
}

// TestSharedCacheConcurrentSessionsByteIdentical: sessions replaying
// zipf-repeated op streams concurrently — sharing results, joining each
// other's flights and prefetches — answer byte-identically to a
// sequential pass on a fresh server.
func TestSharedCacheConcurrentSessionsByteIdentical(t *testing.T) {
	w := workload.Generate(workload.GenSpec{
		Table:    "census",
		Sessions: 12, OpsPerSession: 8,
		Explores: []string{
			"EXPLORE census WHERE age BETWEEN 20 AND 70",
			"EXPLORE census",
			"EXPLORE census WHERE age BETWEEN 25 AND 60 AND sex IN ('Male')",
			"EXPLORE census WHERE education IN ('BSc','MSc')",
		},
		ThinkTime: time.Millisecond,
		Seed:      11,
	})
	ctx := context.Background()
	_, refTS := startCensusServer(t)
	ref, err := workload.Replay(ctx, w, workload.ReplayOptions{Target: refTS.URL, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ref.Results {
		if r.Status != http.StatusOK {
			t.Fatalf("reference entry %d: status %d %s", i, r.Status, r.Err)
		}
	}
	_, ts := startCensusServer(t)
	for pass := 0; pass < 2; pass++ { // the second pass is served warm
		got, err := workload.Replay(ctx, w, workload.ReplayOptions{Target: ts.URL, Pacing: workload.ClosedLoop})
		if err != nil {
			t.Fatal(err)
		}
		if err := workload.VerifyIdentical(w, ref, got); err != nil {
			t.Fatalf("pass %d: concurrent sessions drifted from the sequential reference: %v", pass, err)
		}
	}
	rc := statsOf(t, ts.URL).ResultCache
	if rc.Hits+rc.Coalesced == 0 || rc.Misses == 0 {
		t.Fatalf("repeated op streams shared nothing: %+v", rc)
	}
	if lookups := rc.Hits + rc.Coalesced + rc.Misses; lookups < int64(2*len(w.Entries)) {
		t.Fatalf("%d lookups for %d answered ops: %+v", lookups, 2*len(w.Entries), rc)
	}
}

// TestConcurrentIdenticalExploresRunOnce: K concurrent identical
// explores on a cold server run the pipeline once — the scan counters
// match a server that answered one — and the rest report the cache in
// their header, their query-log row and a ledger with no scan work.
func TestConcurrentIdenticalExploresRunOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "census.atl")
	if err := colstore.WriteFile(path, datagen.Census(4_000, 1), 256); err != nil {
		t.Fatal(err)
	}
	start := func() *httptest.Server {
		srv, err := NewFromStoreWith(path, core.DefaultOptions(),
			StoreConfig{Store: colstore.Options{Mode: colstore.ModeLazy}})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	const body = `{"cql": "EXPLORE census WHERE age BETWEEN 20 AND 60"}`
	once := start()
	if code, raw := postBody(t, once.URL+"/api/explore", body); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	want := statsOf(t, once.URL)

	const k = 8
	ts := start()
	verdicts := make([]string, k)
	bodies := make([]string, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/api/explore", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var raw json.RawMessage
			if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %v", resp.StatusCode, err)
				return
			}
			verdicts[i] = resp.Header.Get(headerResultCache)
			bodies[i], err = workload.CanonicalBody(raw)
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	misses := 0
	for i := range verdicts {
		switch verdicts[i] {
		case "miss":
			misses++
		case "hit":
		default:
			t.Fatalf("request %d: %s = %q", i, headerResultCache, verdicts[i])
		}
		if bodies[i] != bodies[0] {
			t.Fatalf("request %d answered differently:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	got := statsOf(t, ts.URL)
	if misses != 1 || got.ResultCache.Misses != 1 || got.ResultCache.Hits+got.ResultCache.Coalesced != k-1 {
		t.Fatalf("%d identical explores: %d miss headers, cache %+v", k, misses, got.ResultCache)
	}
	if got.Scan != want.Scan {
		t.Fatalf("scan work of %d identical explores = %+v, one explore = %+v", k, got.Scan, want.Scan)
	}
	if got.Store.ChunksDecoded != want.Store.ChunksDecoded {
		t.Fatalf("chunks decoded = %d, one explore = %d", got.Store.ChunksDecoded, want.Store.ChunksDecoded)
	}

	resp, err := http.Get(ts.URL + "/api/querylog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qlog QueryLogDTO
	if err := json.NewDecoder(resp.Body).Decode(&qlog); err != nil {
		t.Fatal(err)
	}
	cached := 0
	for _, e := range qlog.Entries {
		if !e.Cached {
			if e.Ledger.ChunksScanned == 0 {
				t.Errorf("the computing query billed no scan work: %+v", e.Ledger)
			}
			continue
		}
		cached++
		if l := e.Ledger; l.ChunksScanned+l.ChunksPruned+l.ChunksFull+l.ChunksDecoded+l.BytesRead != 0 || len(l.Phases) != 0 {
			t.Errorf("cached query billed pipeline work: %+v", l)
		}
	}
	if cached != k-1 {
		t.Fatalf("query log marks %d of %d rows cached, want %d", cached, len(qlog.Entries), k-1)
	}
}

// TestWithOverridesCachedUnderOwnKey: a WITH clause that changes the
// pipeline options neither hits nor pollutes the default-options entry.
func TestWithOverridesCachedUnderOwnKey(t *testing.T) {
	ts := newTestServer(t)
	post := func(cql string) (string, []MapDTO) {
		resp, body := postJSON(t, ts.URL+"/api/explore", map[string]string{"cql": cql})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q: status %d %s", cql, resp.StatusCode, body)
		}
		var maps []MapDTO
		if err := json.Unmarshal(body["maps"], &maps); err != nil {
			t.Fatal(err)
		}
		return resp.Header.Get(headerResultCache), maps
	}
	if v, _ := post("EXPLORE census"); v != "miss" {
		t.Fatalf("first explore: %q", v)
	}
	v, one := post("EXPLORE census WITH MAPS 1")
	if v != "miss" || len(one) != 1 {
		t.Fatalf("WITH MAPS 1 after the default: verdict %q, %d maps", v, len(one))
	}
	if v, _ := post("EXPLORE census WITH MAPS 1"); v != "hit" {
		t.Fatalf("repeated WITH MAPS 1: %q", v)
	}
	v, all := post("EXPLORE census")
	if v != "hit" || len(all) <= 1 {
		t.Fatalf("default after the override: verdict %q, %d maps", v, len(all))
	}
	// A profiled hit says so on its root span and has no pipeline phases.
	_, body := postJSON(t, ts.URL+"/api/explore?profile=1", map[string]string{"cql": "EXPLORE census"})
	var prof obsv.SpanJSON
	if err := json.Unmarshal(body["profile"], &prof); err != nil {
		t.Fatal(err)
	}
	if prof.Attrs["resultCached"] != true || len(prof.Children) != 0 {
		t.Fatalf("profile of a cached explore: attrs %v, %d child spans", prof.Attrs, len(prof.Children))
	}
}

// TestSharedResultNeverMutated: every reader of one cached result —
// session nodes and history, personalized re-ranking, describe — runs
// concurrently under -race, and the cached answer is unchanged after.
func TestSharedResultNeverMutated(t *testing.T) {
	ts := newTestServer(t)
	const cql = "EXPLORE census WHERE age BETWEEN 20 AND 70"
	canon := func() string {
		_, raw := postBody(t, ts.URL+"/api/explore", `{"cql": "`+cql+`"}`)
		c, err := workload.CanonicalBody(raw)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	before := canon()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			do := func(method, path, body string) {
				req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				var sink json.RawMessage
				if err := json.NewDecoder(resp.Body).Decode(&sink); err != nil || resp.StatusCode >= 400 {
					t.Errorf("%s %s: status %d, %v", method, path, resp.StatusCode, err)
				}
			}
			resp, err := http.Post(ts.URL+"/api/sessions", "application/json", nil)
			if err != nil {
				t.Error(err)
				return
			}
			var created struct{ ID int }
			err = json.NewDecoder(resp.Body).Decode(&created)
			resp.Body.Close()
			if err != nil {
				t.Error(err)
				return
			}
			base := fmt.Sprintf("/api/sessions/%d", created.ID)
			for round := 0; round < 3; round++ {
				do("POST", base+"/explore", `{"cql": "`+cql+`"}`)
				do("POST", base+"/describe", `{"map": 0, "region": 0}`)
				do("POST", base+"/drill", `{"map": 0, "region": 1}`) // teaches interest
				do("POST", base+"/back", ``)
				do("GET", base+"/personalized", ``)
				do("GET", base, ``)
				do("GET", base+"/history", ``)
			}
		}()
	}
	wg.Wait()
	if after := canon(); after != before {
		t.Fatalf("cached answer changed under concurrent readers:\n%s\nvs\n%s", after, before)
	}
	if rc := statsOf(t, ts.URL).ResultCache; rc.Hits == 0 {
		t.Fatalf("readers did not share the cached result: %+v", rc)
	}
}
