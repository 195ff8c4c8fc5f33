package shard

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/colstore"
	"repro/internal/engine"
	"repro/internal/storage"
)

// TestExtractPlacesLocalValues: a local shard extracts its values
// straight into the room Provider.Extract keeps for them in the
// caller's extraction, so once the set's chunks are cached and the
// caller's buffers grown, one Extract of half the rows of a 4-shard set
// allocates fewer bytes than the values it returns. A shard that
// extracted into a buffer of its own would allocate them all again.
func TestExtractPlacesLocalValues(t *testing.T) {
	const rows = 1 << 15
	b := storage.NewBuilder("t", storage.MustSchema(storage.Field{Name: "v", Type: storage.Float64}))
	for i := 0; i < rows; i++ {
		b.MustAppendRow(float64(i % 1000))
	}
	path := filepath.Join(t.TempDir(), "t.atlm")
	if _, err := WriteSharded(path, b.MustBuild(), IngestOptions{Shards: 4, ChunkSize: 1024}); err != nil {
		t.Fatal(err)
	}
	set, err := OpenWith(path, Options{Store: colstore.Options{Mode: colstore.ModeLazy, CacheBytes: 64 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	sel := bitvec.New(rows)
	for i := 0; i < rows; i += 2 {
		sel.Set(i)
	}
	p := set.Provider(1)
	var x engine.NumericExtract
	extract := func() {
		if err := p.Extract(context.Background(), []*engine.NumericExtract{&x}, []string{"v"}, sel); err != nil {
			t.Fatal(err)
		}
	}
	extract() // warms the chunk cache, the pools and x's buffers
	if len(x.Vals) != rows/2 {
		t.Fatalf("%d values, want %d", len(x.Vals), rows/2)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		extract()
	}
	runtime.ReadMemStats(&after)
	values := uint64(8 * rows / 2)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall >= values {
		t.Errorf("one Extract allocates %d bytes; want fewer than the %d bytes of values it returns", perCall, values)
	}
}
