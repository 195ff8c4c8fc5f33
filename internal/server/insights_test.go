package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/remote"
	"repro/internal/shard"
	"repro/internal/storage"
)

// explainOn POSTs /api/explain against a server and decodes the answer.
func explainOn(t *testing.T, srv *Server, cql string) ExplainDTO {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/api/explain",
		strings.NewReader(`{"cql": `+string(mustJSON(t, cql))+`}`))
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("explain: HTTP %d: %s", w.Code, w.Body.String())
	}
	var dto ExplainDTO
	if err := json.Unmarshal(w.Body.Bytes(), &dto); err != nil {
		t.Fatal(err)
	}
	return dto
}

// storeStats fetches the /api/stats store section.
func storeStats(t *testing.T, srv *Server) StoreStatsDTO {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/api/stats", nil)
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, req)
	var dto StatsDTO
	if err := json.Unmarshal(w.Body.Bytes(), &dto); err != nil {
		t.Fatal(err)
	}
	if dto.Store == nil {
		t.Fatal("no store section on /api/stats")
	}
	return *dto.Store
}

// TestExplainEndpointSharded: EXPLAIN over a lazy sharded store must
// report per-shard per-chunk verdicts WITHOUT decoding a single chunk —
// the whole point of a dry run.
func TestExplainEndpointSharded(t *testing.T) {
	tbl := datagen.Census(6000, 3)
	path := filepath.Join(t.TempDir(), "census.atlm")
	if _, err := shard.WriteSharded(path, tbl, shard.IngestOptions{Shards: 3, ChunkSize: 256}); err != nil {
		t.Fatal(err)
	}
	srv, err := NewFromStoreWith(path, core.DefaultOptions(), StoreConfig{
		Store: colstore.Options{Mode: colstore.ModeLazy},
	})
	if err != nil {
		t.Fatal(err)
	}

	before := storeStats(t, srv)
	dto := explainOn(t, srv, "EXPLORE census WHERE age BETWEEN 25 AND 40")
	after := storeStats(t, srv)

	if after.ChunksDecoded != before.ChunksDecoded {
		t.Errorf("explain decoded %d chunks — a dry run must decode none",
			after.ChunksDecoded-before.ChunksDecoded)
	}
	if after.BytesRead != before.BytesRead {
		t.Errorf("explain read %d bytes from the store", after.BytesRead-before.BytesRead)
	}

	if !dto.Sharded || dto.Combined == nil || len(dto.Shards) != 3 {
		t.Fatalf("explain DTO shape: sharded=%v combined=%v shards=%d",
			dto.Sharded, dto.Combined != nil, len(dto.Shards))
	}
	c := dto.Combined
	if c.NumChunks == 0 || len(c.Verdicts) != c.NumChunks {
		t.Fatalf("combined dry run: %+v", c)
	}
	if c.ChunksPruned+c.ChunksFull+c.ChunksScanned != c.NumChunks {
		t.Errorf("combined verdicts don't partition the chunks: %+v", c)
	}
	if len(c.Preds) == 0 {
		t.Error("no per-predicate verdict counts")
	}
	for _, sd := range dto.Shards {
		if sd.Plane != "chunk" {
			t.Errorf("shard %d: plane = %q, want chunk (local shard)", sd.Shard, sd.Plane)
		}
		switch sd.Verdict {
		case string(engine.VerdictScan), string(engine.VerdictPrune), string(engine.VerdictFull):
		default:
			t.Errorf("shard %d: verdict %q", sd.Shard, sd.Verdict)
		}
		if sd.Explain == nil {
			t.Errorf("shard %d: no per-chunk dry run", sd.Shard)
		}
	}
	if dto.EstChunkFetches == 0 || dto.EstBytesDecoded == 0 {
		t.Errorf("no cold-cache I/O estimate: fetches=%d bytes=%d",
			dto.EstChunkFetches, dto.EstBytesDecoded)
	}

	// A sampled plan judges only the chunks holding a sampled row, on the
	// combined table and on each shard's slice of the sample alike.
	const sampled = "EXPLORE census WHERE age IN [25, 40] WITH SAMPLE 0.002"
	dto = explainOn(t, srv, sampled)
	if c := dto.Combined; dto.Input != sampled || c.Unsampled == 0 || c.ChunksPruned+c.ChunksFull+c.ChunksScanned+c.Unsampled != c.NumChunks {
		t.Fatalf("sampled plan of %q: input %q, %+v", sampled, dto.Input, c)
	}
	var sum engine.QueryExplain
	for _, sd := range dto.Shards {
		sum.ChunksPruned += sd.Explain.ChunksPruned
		sum.ChunksFull += sd.Explain.ChunksFull
		sum.ChunksScanned += sd.Explain.ChunksScanned
		sum.Unsampled += sd.Explain.Unsampled
	}
	if c := dto.Combined; sum.ChunksPruned != c.ChunksPruned || sum.ChunksFull != c.ChunksFull || sum.ChunksScanned != c.ChunksScanned || sum.Unsampled != c.Unsampled {
		t.Errorf("shards' sampled plans sum to %d pruned, %d full, %d scanned, %d unsampled; combined %d, %d, %d, %d",
			sum.ChunksPruned, sum.ChunksFull, sum.ChunksScanned, sum.Unsampled, c.ChunksPruned, c.ChunksFull, c.ChunksScanned, c.Unsampled)
	}
}

// TestExplainDeferredManifestPlane: EXPLAIN over a deferred sharded
// store plans every shard from the manifest's zone maps and opens none;
// a shard all of whose chunks prune is reported on the manifest plane.
func TestExplainDeferredManifestPlane(t *testing.T) {
	b := storage.NewBuilder("events", storage.MustSchema(
		storage.Field{Name: "ts", Type: storage.Int64},
		storage.Field{Name: "kind", Type: storage.String},
	))
	for i := 0; i < 3072; i++ {
		b.MustAppendRow(int64(i), []string{"a", "b", "c"}[i%3])
	}
	path := filepath.Join(t.TempDir(), "events.atlm")
	if _, err := shard.WriteSharded(path, b.MustBuild(), shard.IngestOptions{Shards: 3, ChunkSize: 256}); err != nil {
		t.Fatal(err)
	}
	srv, err := NewFromStoreWith(path, core.DefaultOptions(), StoreConfig{
		Store: colstore.Options{Mode: colstore.ModeLazy}, Defer: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dto := explainOn(t, srv, "EXPLORE events WHERE ts BETWEEN 1100 AND 1200 AND kind IN {'a'}")
	if len(dto.Shards) != 3 || dto.ShardsPruned != 2 {
		t.Fatalf("%d shards, %d pruned; want 3 and 2", len(dto.Shards), dto.ShardsPruned)
	}
	for i, sd := range dto.Shards {
		plane, verdict := "manifest", string(engine.VerdictPrune)
		if i == 1 {
			plane, verdict = "chunk", string(engine.VerdictScan)
		}
		if sd.Plane != plane || sd.Verdict != verdict || sd.Explain == nil {
			t.Errorf("shard %d: plane %q, verdict %q, plan %v; want %q, %q and a plan", i, sd.Plane, sd.Verdict, sd.Explain != nil, plane, verdict)
		}
	}
	if n := srv.set.OpenedShards(); n != 0 {
		t.Errorf("explain opened %d shards", n)
	}
}

// TestExplainEndpointRemote: over a remote manifest the shards must be
// reported remote and routed on the statistics plane.
func TestExplainEndpointRemote(t *testing.T) {
	remoteManifest, _ := startRemoteManifest(t, 2)
	srv, err := NewFromStoreWith(remoteManifest, core.DefaultOptions(), StoreConfig{
		Remote: remote.NewOpener(remote.Options{Timeout: 10 * time.Second}),
	})
	if err != nil {
		t.Fatal(err)
	}
	dto := explainOn(t, srv, "EXPLORE census WHERE age BETWEEN 25 AND 60")
	if len(dto.Shards) != 2 {
		t.Fatalf("shards = %d, want 2", len(dto.Shards))
	}
	for _, sd := range dto.Shards {
		if !sd.Remote {
			t.Errorf("shard %d: not reported remote", sd.Shard)
		}
		if sd.Plane != "stat" {
			t.Errorf("shard %d: plane = %q, want stat", sd.Shard, sd.Plane)
		}
		if sd.Verdict == "" || sd.Explain == nil {
			t.Errorf("shard %d: missing verdict or dry run", sd.Shard)
		}
	}
}

func TestExplainBadCQL(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/api/explain", "application/json",
		strings.NewReader(`{"cql": "EXPLORE nope WHERE"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// TestQueryLogEndpoint: every query — including failed ones — lands in
// the log with its resource bill; failed entries keep their span tree
// and the ?errors / ?n filters work.
func TestQueryLogEndpoint(t *testing.T) {
	ts := newTestServer(t)
	for _, cql := range []string{
		"EXPLORE census",
		"EXPLORE census WHERE age BETWEEN 25 AND 60",
	} {
		resp, err := http.Post(ts.URL+"/api/explore", "application/json",
			strings.NewReader(`{"cql": "`+cql+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("explore %q: HTTP %d", cql, resp.StatusCode)
		}
	}
	// One failing query: parse errors are observed too.
	resp, err := http.Post(ts.URL+"/api/explore", "application/json",
		strings.NewReader(`{"cql": "EXPLORE census WHERE"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	get := func(path string) QueryLogDTO {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d", path, resp.StatusCode)
		}
		var dto QueryLogDTO
		if err := json.NewDecoder(resp.Body).Decode(&dto); err != nil {
			t.Fatal(err)
		}
		return dto
	}

	dto := get("/api/querylog")
	if dto.Total != 3 || dto.Depth == 0 || len(dto.Entries) != 3 {
		t.Fatalf("query log: total=%d depth=%d entries=%d", dto.Total, dto.Depth, len(dto.Entries))
	}
	// Newest first: the failed query is entry 0.
	if dto.Entries[0].Err == "" {
		t.Error("newest entry is not the failed query")
	}
	for i, e := range dto.Entries {
		if e.Op != "explore" || e.Input == "" || e.Ledger == nil {
			t.Errorf("entry %d incomplete: %+v", i, e)
		}
		if i > 0 && dto.Entries[i-1].Seq <= e.Seq {
			t.Errorf("entries not newest-first at %d", i)
		}
	}
	// Successful fast queries drop the span tree; failed ones keep it.
	if dto.Entries[0].Profile == nil {
		t.Error("failed entry lost its span tree")
	}
	if dto.Entries[1].Profile != nil {
		t.Error("fast successful entry retained a span tree")
	}

	errs := get("/api/querylog?errors=1")
	if len(errs.Entries) != 1 || errs.Entries[0].Err == "" {
		t.Fatalf("?errors=1 returned %d entries", len(errs.Entries))
	}
	if capped := get("/api/querylog?n=1"); len(capped.Entries) != 1 {
		t.Fatalf("?n=1 returned %d entries", len(capped.Entries))
	}
	if slow := get("/api/querylog?slow=1"); len(slow.Entries) != 0 {
		t.Fatalf("?slow=1 returned %d entries with no threshold set", len(slow.Entries))
	}
	// A count that is not a non-negative integer is refused by name, as
	// a bad ?since= is, instead of answering the whole ring.
	for _, bad := range []string{"abc", "-1", "1.5"} {
		resp, err := http.Get(ts.URL + "/api/querylog?n=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "invalid n") {
			t.Errorf("?n=%s: HTTP %d %s, want 400 naming n", bad, resp.StatusCode, body)
		}
	}
}

// TestExplorePerfettoProfile: ?profile=perfetto returns the trace as
// Chrome trace-event JSON alongside the ledger.
func TestExplorePerfettoProfile(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/api/explore?profile=perfetto", "application/json",
		strings.NewReader(`{"cql": "EXPLORE census WHERE age BETWEEN 20 AND 60"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var dto ResultDTO
	if err := json.NewDecoder(resp.Body).Decode(&dto); err != nil {
		t.Fatal(err)
	}
	if dto.Ledger == nil {
		t.Fatal("no ledger on the response")
	}
	if len(dto.ProfilePerfetto) == 0 {
		t.Fatal("no perfetto profile on the response")
	}
	var f struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(dto.ProfilePerfetto, &f); err != nil {
		t.Fatalf("profilePerfetto is not valid trace-event JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 || f.DisplayTimeUnit != "ms" {
		t.Fatalf("perfetto export: %d events, unit %q", len(f.TraceEvents), f.DisplayTimeUnit)
	}
	var sawRoot bool
	for _, ev := range f.TraceEvents {
		if ev.Ph == "X" && ev.Name == "explore" {
			sawRoot = true
		}
	}
	if !sawRoot {
		t.Error("no explore root slice in the export")
	}
}

// TestStatsInsightsFields: /api/stats reports per-op latencies, the
// query-log depth, and the lifetime ledger totals.
func TestStatsInsightsFields(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/api/explore", "application/json",
		strings.NewReader(`{"cql": "EXPLORE census"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dto StatsDTO
	if err := json.NewDecoder(resp.Body).Decode(&dto); err != nil {
		t.Fatal(err)
	}
	sv := dto.Server
	if sv == nil {
		t.Fatal("no server section")
	}
	op, ok := sv.Ops["explore"]
	if !ok || op.Count < 1 {
		t.Fatalf("ops[explore] = %+v (present=%v)", op, ok)
	}
	if sv.QueryLogDepth == 0 {
		t.Error("queryLogDepth = 0")
	}
	if sv.QueriesLogged < 1 {
		t.Errorf("queriesLogged = %d", sv.QueriesLogged)
	}
	if sv.LedgerTotals == nil {
		t.Error("no lifetime ledger totals")
	}
}
