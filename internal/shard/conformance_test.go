package shard_test

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/colstore"
	"repro/internal/datagen"
	"repro/internal/remote"
	"repro/internal/shard"
	"repro/internal/storage"
)

// backendView is everything a Set reads from a Backend, gathered in one
// comparable value.
type backendView struct {
	Table     string
	Rows      int
	ChunkSize int
	Fields    []storage.Field
	Zones     [][]storage.ZoneMap
	Dicts     [][]string
	Chunks    [][]*storage.ChunkPayload // [col][chunk]
	Decoded   int64
}

func viewOf(t *testing.T, be shard.Backend) backendView {
	t.Helper()
	ctx := context.Background()
	meta := be.Meta()
	v := backendView{Table: meta.Table, Rows: meta.Rows, ChunkSize: meta.ChunkSize, Zones: be.Zones()}
	numChunks := (meta.Rows + meta.ChunkSize - 1) / meta.ChunkSize
	for ci := 0; ci < meta.Schema.NumFields(); ci++ {
		v.Fields = append(v.Fields, meta.Schema.Field(ci))
		dict, err := be.Dicts(ctx, ci)
		if err != nil {
			t.Fatalf("Dicts(%d): %v", ci, err)
		}
		v.Dicts = append(v.Dicts, dict)
		chunks := make([]*storage.ChunkPayload, numChunks)
		for k := range chunks {
			p, hit, err := be.Source().FetchChunk(ctx, ci, k)
			if err != nil {
				t.Fatalf("FetchChunk(%d,%d): %v", ci, k, err)
			}
			if hit {
				t.Errorf("FetchChunk(%d,%d): first touch reported a cache hit", ci, k)
			}
			chunks[k] = p
		}
		v.Chunks = append(v.Chunks, chunks)
	}
	v.Decoded = be.IOStats().ChunksDecoded
	return v
}

// TestBackendConformance holds the two Backend implementations to the
// one contract: the same shard file opened as a local file and through
// the fabric client must present identical metadata, zone maps,
// dictionaries and chunk payloads — fetched one by one and as a
// 16-chunk window — and account the same decode work.
func TestBackendConformance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "census.atl")
	if err := colstore.WriteFile(path, datagen.Census(4_500, 19), 256); err != nil {
		t.Fatal(err)
	}
	lazy := colstore.Options{Mode: colstore.ModeLazy}

	file, err := shard.OpenFileBackend(path, lazy)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()

	served, err := colstore.OpenWith(path, lazy)
	if err != nil {
		t.Fatal(err)
	}
	defer served.Close()
	ts := httptest.NewServer(remote.NewServer(served).Handler())
	defer ts.Close()
	opener := remote.NewOpener(remote.Options{})
	defer opener.Close()
	client, err := opener.OpenShard(context.Background(), []string{ts.URL}, colstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var ref backendView
	for i, tc := range []struct {
		name string
		be   shard.Backend
	}{
		{"file", file},
		{"client", client},
	} {
		got := viewOf(t, tc.be)
		if fetched := int64(len(got.Fields) * len(got.Chunks[0])); got.Decoded != fetched || fetched == 0 {
			t.Errorf("%s backend: IOStats counts %d decoded chunks for %d fetched", tc.name, got.Decoded, fetched)
		}
		if i == 0 {
			ref = got
			continue
		}
		gv, rv := reflect.ValueOf(got), reflect.ValueOf(ref)
		for f := 0; f < gv.NumField(); f++ {
			if !reflect.DeepEqual(gv.Field(f).Interface(), rv.Field(f).Interface()) {
				t.Errorf("%s backend: %s differs from the file backend's", tc.name, gv.Type().Field(f).Name)
			}
		}
	}

	// A window: one chunk-plane round trip per column loads 16 chunks,
	// every one the file's payload.
	windowed, err := opener.OpenShard(context.Background(), []string{ts.URL}, colstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer windowed.Close()
	ks := make([]int, storage.PrefetchWindow)
	for i := range ks {
		ks[i] = i
	}
	ctx := context.Background()
	for ci := range ref.Fields {
		if _, err := windowed.Dicts(ctx, ci); err != nil {
			t.Fatal(err)
		}
		before := opener.Stats().RPCs
		windowed.Source().PrefetchChunks(ctx, ci, ks)
		if rpcs := opener.Stats().RPCs - before; rpcs != 1 {
			t.Errorf("column %d: a %d-chunk window took %d RPCs, want 1", ci, len(ks), rpcs)
		}
		for _, k := range ks {
			p, hit, err := windowed.Source().FetchChunk(ctx, ci, k)
			if err != nil {
				t.Fatalf("windowed FetchChunk(%d,%d): %v", ci, k, err)
			}
			if hit {
				t.Errorf("FetchChunk(%d,%d): the first fetch of a windowed chunk reported a cache hit, not its decode", ci, k)
			}
			if !reflect.DeepEqual(p, ref.Chunks[ci][k]) {
				t.Errorf("windowed chunk (%d,%d) differs from the file backend's", ci, k)
			}
		}
	}
	if got, want := windowed.IOStats().ChunksDecoded, int64(len(ref.Fields)*len(ks)); got != want {
		t.Errorf("windowed client counts %d decoded chunks for %d fetched", got, want)
	}
}
