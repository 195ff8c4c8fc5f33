package shard_test

import (
	"context"
	"math"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/colstore"
	"repro/internal/datagen"
	"repro/internal/query"
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
	v := backendView{Table: meta.Table, Rows: meta.Rows, ChunkSize: meta.ChunkSize, Zones: meta.Zones, Dicts: meta.Dicts}
	numChunks := (meta.Rows + meta.ChunkSize - 1) / meta.ChunkSize
	for ci := 0; ci < meta.Schema.NumFields(); ci++ {
		v.Fields = append(v.Fields, meta.Schema.Field(ci))
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

// cutTable is one column of each type, NULLs and NaN among the numbers,
// over rows that end mid-word.
func cutTable(rows int) *storage.Table {
	r := rand.New(rand.NewSource(29))
	b := storage.NewBuilder("t", storage.MustSchema(
		storage.Field{Name: "i", Type: storage.Int64},
		storage.Field{Name: "f", Type: storage.Float64},
		storage.Field{Name: "s", Type: storage.String},
		storage.Field{Name: "b", Type: storage.Bool},
	))
	for row := 0; row < rows; row++ {
		vals := []any{int64(r.Intn(50)), r.NormFloat64(), []string{"x", "y", "z"}[r.Intn(3)], r.Intn(2) == 0}
		if row%13 == 0 {
			vals[1] = math.NaN()
		}
		vals[r.Intn(4)] = nil
		b.MustAppendRow(vals...)
	}
	return b.MustBuild()
}

// TestCutConformance: a cut RPC answers exactly what ComputeCut over the
// shard's own table answers — every kind, over the whole shard and over
// a slice of its selection words, values compared bit for bit.
func TestCutConformance(t *testing.T) {
	const rows = 4_500
	path := filepath.Join(t.TempDir(), "t.atl")
	if err := colstore.WriteFile(path, cutTable(rows), 256); err != nil {
		t.Fatal(err)
	}
	served, err := colstore.OpenWith(path, colstore.Options{Mode: colstore.ModeLazy})
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

	words := (rows + 63) / 64
	r := rand.New(rand.NewSource(31))
	slice := make([]uint64, words-5)
	for i := range slice {
		slice[i] = r.Uint64()
	}
	slice[len(slice)-1] &= 1<<(rows%64) - 1 // the slice ends at the shard's last word
	in := func(attr string, vals ...string) query.Predicate { return query.NewIn(attr, vals...) }
	for _, req := range []shard.CutRequest{
		{Kind: shard.CutValues, Cols: []int{0}},
		{Kind: shard.CutValues, Cols: []int{1, 0}},
		{Kind: shard.CutCategories, Cols: []int{2}},
		{Kind: shard.CutBools, Cols: []int{3}},
		{Kind: shard.CutPartition, Cols: []int{2}, Preds: []query.Predicate{in("s", "y"), in("s", "x", "z")}},
		{Kind: shard.CutPartition, Cols: []int{3}, Preds: []query.Predicate{query.NewBoolEq("b", true), query.NewBoolEq("b", false)}},
	} {
		for _, sel := range []struct {
			w0    int
			words []uint64
		}{{0, nil}, {5, slice}} {
			req.W0, req.Sel = sel.w0, sel.words
			var want, got shard.CutAnswer
			if err := shard.ComputeCut(context.Background(), served.Table(), req, &want); err != nil {
				t.Fatal(err)
			}
			if err := client.Cut(context.Background(), req, &got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cutBits(got), cutBits(want)) {
				t.Errorf("kind %d of columns %v from word %d: the RPC answer differs from ComputeCut's", req.Kind, req.Cols, req.W0)
			}
		}
	}
}

// cutBits is an answer with every float as its bit pattern, so that NaN
// compares equal to itself.
func cutBits(a shard.CutAnswer) any {
	type run struct {
		Vals     []uint64
		Present  []uint64
		NaN      int
		Min, Max uint64
	}
	runs := make([]run, len(a.Values))
	for i, v := range a.Values {
		runs[i] = run{Present: v.Present, NaN: v.Sum.NaN, Min: math.Float64bits(v.Sum.Min), Max: math.Float64bits(v.Sum.Max)}
		for _, x := range v.Vals {
			runs[i].Vals = append(runs[i].Vals, math.Float64bits(x))
		}
	}
	return []any{a.W0, runs, a.Counts, a.Falses, a.Trues, a.Bits}
}
