package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/shard"
	"repro/internal/storage"
)

// TestNewFromStoreManifest: -store accepts a shard manifest, serves the
// combined table, runs sharded sessions and reports the layout — opened
// in auto mode and lazily behind a tiny cache.
func TestNewFromStoreManifest(t *testing.T) {
	tbl := datagen.Census(6000, 2)
	dir := t.TempDir()
	path := filepath.Join(dir, "census.atlm")
	if _, err := shard.WriteSharded(path, tbl, shard.IngestOptions{Shards: 3, ChunkSize: 256}); err != nil {
		t.Fatal(err)
	}
	for _, store := range []colstore.Options{{}, lazyThrash} {
		testManifestServer(t, path, store)
	}
}

// testManifestServer serves the 3-shard census manifest at path with
// the given store options and drives it over HTTP.
func testManifestServer(t *testing.T, path string, store colstore.Options) {
	t.Helper()
	srv, err := NewFromStoreWith(path, core.DefaultOptions(), StoreConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Table().NumRows() != 6000 || srv.Table().Chunking() == nil {
		t.Fatal("sharded table not served chunk-aware")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Stateless exploration over the sharded table.
	resp, err := http.Post(ts.URL+"/api/explore", "application/json",
		strings.NewReader(`{"cql": "EXPLORE census WHERE age BETWEEN 20 AND 60"}`))
	if err != nil {
		t.Fatal(err)
	}
	var res ResultDTO
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if res.BaseCount == 0 || len(res.Maps) == 0 {
		t.Fatalf("explore over sharded store gave %d rows, %d maps", res.BaseCount, len(res.Maps))
	}

	// Session over the sharded table: explore then drill.
	resp, err = http.Post(ts.URL+"/api/sessions", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var sess map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&sess); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	sid := ts.URL + "/api/sessions/0"
	resp, err = http.Post(sid+"/explore", "application/json",
		strings.NewReader(`{"cql": "EXPLORE census"}`))
	if err != nil {
		t.Fatal(err)
	}
	var node NodeDTO
	if err := json.NewDecoder(resp.Body).Decode(&node); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(node.Result.Maps) == 0 {
		t.Fatal("sharded session explore returned no maps")
	}
	resp, err = http.Post(sid+"/drill", "application/json", bytes.NewReader([]byte(`{"map":0,"region":0}`)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drill status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Shard layout endpoint with merged partials.
	resp, err = http.Get(ts.URL + "/api/shards")
	if err != nil {
		t.Fatal(err)
	}
	var shards ShardsDTO
	if err := json.NewDecoder(resp.Body).Decode(&shards); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !shards.Sharded || len(shards.Shards) != 3 || shards.Rows != 6000 {
		t.Fatalf("shards DTO = %+v", shards)
	}
	if len(shards.Columns) != srv.Table().NumCols() {
		t.Fatalf("merged columns = %d, want %d", len(shards.Columns), srv.Table().NumCols())
	}
	for _, c := range shards.Columns {
		if c.Rows != 6000 {
			t.Errorf("column %s merged rows = %d", c.Name, c.Rows)
		}
	}
}

// TestShardsEndpointUnsharded: a plain server answers sharded=false.
func TestShardsEndpointUnsharded(t *testing.T) {
	srv := New(datagen.Census(500, 1), core.DefaultOptions())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/api/shards")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dto ShardsDTO
	if err := json.NewDecoder(resp.Body).Decode(&dto); err != nil {
		t.Fatal(err)
	}
	if dto.Sharded || dto.Rows != 500 {
		t.Fatalf("dto = %+v", dto)
	}
}

// TestShardsEndpointNonFinite: a column whose values include NaN or ±Inf
// has non-finite statistics, which JSON cannot carry. GET /api/shards
// reports each as null and still answers every other column.
func TestShardsEndpointNonFinite(t *testing.T) {
	const n = 512
	schema := storage.MustSchema(
		storage.Field{Name: "nan", Type: storage.Float64},
		storage.Field{Name: "inf", Type: storage.Float64},
		storage.Field{Name: "k", Type: storage.Int64},
		storage.Field{Name: "s", Type: storage.String},
	)
	b := storage.NewBuilder("t", schema)
	for i := 0; i < n; i++ {
		nan, inf := float64(i), float64(i)
		switch i {
		case 7:
			nan = math.NaN()
		case 300:
			inf = math.Inf(1)
		case 301:
			inf = math.Inf(-1)
		}
		b.MustAppendRow(nan, inf, int64(i%10), []string{"a", "b"}[i%2])
	}
	path := filepath.Join(t.TempDir(), "t.atlm")
	if _, err := shard.WriteSharded(path, b.MustBuild(), shard.IngestOptions{Shards: 2, ChunkSize: 128}); err != nil {
		t.Fatal(err)
	}
	srv, err := NewFromStoreWith(path, core.DefaultOptions(), StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/api/shards")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body struct {
		Columns []map[string]any `json:"columns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("body does not parse: %v", err)
	}
	if len(body.Columns) != 4 {
		t.Fatalf("%d columns reported, want 4", len(body.Columns))
	}
	nan, inf, k, s := body.Columns[0], body.Columns[1], body.Columns[2], body.Columns[3]
	if v, ok := nan["mean"]; !ok || v != nil {
		t.Errorf("NaN column's mean = %v (present %v), want null", v, ok)
	}
	if nan["max"] != float64(n-1) {
		t.Errorf("NaN column's max = %v, want %d", nan["max"], n-1)
	}
	for _, f := range []string{"min", "max", "mean"} {
		if v, ok := inf[f]; !ok || v != nil {
			t.Errorf("±Inf column's %s = %v (present %v), want null", f, v, ok)
		}
	}
	// The histogram bins the finite values over their extremes and the
	// infinities are counted apart: 510 values spread over every bin.
	if inf["negInf"] != 1.0 || inf["posInf"] != 1.0 {
		t.Errorf("±Inf column counts %v −Inf and %v +Inf, want 1 and 1", inf["negInf"], inf["posInf"])
	}
	edges, _ := inf["histEdges"].([]any)
	if len(edges) != shard.SummaryBins+1 || edges[0] != 0.0 || edges[len(edges)-1] != float64(n-1) {
		t.Errorf("±Inf column's histogram edges = %v, want %d from 0 to %d", edges, shard.SummaryBins+1, n-1)
	}
	for i, e := range edges {
		if _, ok := e.(float64); !ok {
			t.Errorf("±Inf column's edge %d = %v, want a finite number", i, e)
		}
	}
	hist, _ := inf["hist"].([]any)
	total := 0.0
	for i, c := range hist {
		if c.(float64) < 1 || c.(float64) > 16 {
			t.Errorf("±Inf column's bin %d holds %v of 510 finite values, want them spread", i, c)
		}
		total += c.(float64)
	}
	if total != n-2 {
		t.Errorf("±Inf column's histogram holds %v values, want the %d finite ones", total, n-2)
	}
	sum := 0
	for i := 0; i < n; i++ {
		sum += i % 10
	}
	if k["rows"] != float64(n) || k["max"] != 9.0 || k["mean"] != float64(sum)/n {
		t.Errorf("int column = %v", k)
	}
	if hist, _ := k["hist"].([]any); len(hist) != shard.SummaryBins {
		t.Errorf("int column's histogram has %d bins, want %d", len(hist), shard.SummaryBins)
	}
	if s["rows"] != float64(n) || s["nulls"] != 0.0 {
		t.Errorf("string column = %v", s)
	}
}
