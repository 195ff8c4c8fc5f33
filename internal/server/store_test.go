package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/datagen"
)

// lazyThrash is the store configuration every store-backed test runs
// next to the auto-mode open: lazy, behind a 64 KiB decoded-chunk cache,
// so eviction races and budget edge cases cannot hide behind the
// default eager mode.
var lazyThrash = colstore.Options{Mode: colstore.ModeLazy, CacheBytes: 65536}

func TestNewFromStore(t *testing.T) {
	tbl := datagen.Census(2000, 1)
	path := filepath.Join(t.TempDir(), "census.atl")
	if err := colstore.WriteFile(path, tbl, 0); err != nil {
		t.Fatal(err)
	}
	for _, store := range []colstore.Options{{}, lazyThrash} {
		testStoreServer(t, path, store)
	}
	if _, err := NewFromStoreWith(filepath.Join(t.TempDir(), "missing.atl"), core.DefaultOptions(), StoreConfig{}); err == nil {
		t.Error("missing store file must fail")
	}
}

// testStoreServer serves the census store at path with the given store
// options and checks its schema and one exploration over HTTP.
func testStoreServer(t *testing.T, path string, store colstore.Options) {
	t.Helper()
	srv, err := NewFromStoreWith(path, core.DefaultOptions(), StoreConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Table().Chunking() == nil {
		t.Fatal("store-served table is not chunk-aware")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/api/schema")
	if err != nil {
		t.Fatal(err)
	}
	var schema SchemaDTO
	if err := json.NewDecoder(resp.Body).Decode(&schema); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if schema.Table != "census" || schema.Rows != 2000 {
		t.Fatalf("schema = %+v", schema)
	}

	body := strings.NewReader(`{"cql": "EXPLORE census WHERE age BETWEEN 20 AND 60"}`)
	resp, err = http.Post(ts.URL+"/api/explore", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore status = %d", resp.StatusCode)
	}
	var res ResultDTO
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.BaseCount == 0 || len(res.Maps) == 0 {
		t.Fatalf("explore over store gave %d rows, %d maps", res.BaseCount, len(res.Maps))
	}
}
