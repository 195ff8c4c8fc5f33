package remote

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/obsv"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/storage"
)

// Chunk-plane coverage: one framed RPC carries a window of chunks, every
// frame is checked against the request before anything is trusted or
// allocated for it, a cancelled window re-arms the slots it claimed, and
// no decoded payload aliases the recycled wire buffer.

// windowShard serves one lazily opened shard file of rows census rows
// (chunks of 256) behind wrap, and returns the file's path and the URL.
func windowShard(t testing.TB, rows int, wrap func(h http.Handler) http.Handler) (string, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "census.atl")
	if err := colstore.WriteFile(path, datagen.Census(rows, 19), 256); err != nil {
		t.Fatal(err)
	}
	st, err := colstore.OpenWith(path, colstore.Options{Mode: colstore.ModeLazy})
	if err != nil {
		t.Fatal(err)
	}
	var h http.Handler = NewServer(st).Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		st.Close()
	})
	return path, ts.URL
}

// openClient opens the fabric client of one shard URL with a private
// cache of the given budget.
func openClient(t testing.TB, opener *Opener, url string, cacheBytes int64) *Client {
	t.Helper()
	be, err := opener.OpenShard(context.Background(), []string{url}, colstore.Options{CacheBytes: cacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { be.Close() })
	return be.(*Client)
}

// chunkAnswer is what the real server answers for a chunk request, for a
// handler to tamper with.
func chunkAnswer(h http.Handler, r *http.Request) []byte {
	rec := newRecorder()
	h.ServeHTTP(rec, r)
	return rec.body
}

// frameAt returns the byte offset of frame i of a well-formed answer.
func frameAt(body []byte, i int) int {
	off := 0
	for ; i > 0; i-- {
		off += frameHeaderLen + int(binary.LittleEndian.Uint32(body[off+4:]))
	}
	return off
}

// TestChunkPlaneBoundedReads: every way a chunk answer can disagree with
// its request fails the fetch with a named *ShardError{Op: "chunk"},
// after a retry — the same treatment as a truncated body.
func TestChunkPlaneBoundedReads(t *testing.T) {
	cases := []struct {
		name string
		want string
		// tamper rewrites the answer to a request for chunks 0 and 1; it
		// may set headers on w. A nil result means "write nothing".
		tamper func(w http.ResponseWriter, body []byte) []byte
	}{
		{"declared length beyond the chunks' bound", "exceeds", func(w http.ResponseWriter, _ []byte) []byte {
			w.Header().Set("Content-Length", strconv.Itoa(1<<40))
			return nil
		}},
		{"frame length beyond its chunk's bound", "more than its rows can encode to", func(_ http.ResponseWriter, b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], uint32(colstore.MaxChunkBytes(256)+1))
			return b
		}},
		{"frame for a chunk not asked for", "not asked for", func(_ http.ResponseWriter, b []byte) []byte {
			binary.LittleEndian.PutUint32(b, 7)
			return b
		}},
		{"duplicate frame", "duplicate frame", func(_ http.ResponseWriter, b []byte) []byte {
			second := frameAt(b, 1)
			return append(append([]byte(nil), b[:second]...), b[:second]...)
		}},
		{"frames out of order", "out of order", func(_ http.ResponseWriter, b []byte) []byte {
			second := frameAt(b, 1)
			return append(append([]byte(nil), b[second:]...), b[:second]...)
		}},
		{"missing frame", "frames missing", func(_ http.ResponseWriter, b []byte) []byte {
			return b[:frameAt(b, 1)]
		}},
		{"trailing bytes", "trailing bytes", func(_ http.ResponseWriter, b []byte) []byte {
			return append(b, 1, 2, 3)
		}},
		{"truncated frame", "truncated", func(_ http.ResponseWriter, b []byte) []byte {
			return b[:len(b)-5]
		}},
		{"corrupt payload", "checksum mismatch", func(_ http.ResponseWriter, b []byte) []byte {
			b[len(b)-1] ^= 0xff
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, url := windowShard(t, 1024, func(h http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if !strings.HasSuffix(r.URL.Path, "/chunk") {
						h.ServeHTTP(w, r)
						return
					}
					body := tc.tamper(w, chunkAnswer(h, r))
					if body != nil {
						w.Header().Set("Content-Length", strconv.Itoa(len(body)))
						_, _ = w.Write(body)
					}
				})
			})
			opener := NewOpener(Options{Timeout: 5 * time.Second, Retries: 1, RetryWait: time.Millisecond})
			defer opener.Close()
			c := openClient(t, opener, url, 0)
			_, err := c.fetchChunks(context.Background(), 1, []int{0, 1})
			var se *ShardError
			if !errors.As(err, &se) || se.Op != "chunk" || se.Location != url {
				t.Fatalf("fetch error %v, want a *ShardError{Op: chunk} naming %s", err, url)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not say %q", err, tc.want)
			}
			if opener.Stats().Retries == 0 {
				t.Error("the bad answer was not retried")
			}
			if n := c.cache.Stats().Entries; n != 0 {
				t.Errorf("%d cache entries after a failed fetch", n)
			}
		})
	}
}

// TestWindowOneRPC: a 16-chunk window is one chunk-plane request; the
// scan's fetches of its chunks then hit, and a second hint of a resident
// window sends nothing.
func TestWindowOneRPC(t *testing.T) {
	_, url := windowShard(t, 4096, nil)
	opener := testOpener()
	defer opener.Close()
	c := openClient(t, opener, url, 0)
	ks := make([]int, storage.PrefetchWindow)
	for i := range ks {
		ks[i] = i
	}
	const age = 0 // numeric: no dictionary round trip rides along
	before := opener.Stats()
	c.PrefetchChunks(context.Background(), age, ks)
	for _, k := range ks {
		// The first fetch of a window's chunk owns its decode; the next hits.
		for _, want := range []bool{false, true} {
			if _, hit, err := c.FetchChunk(context.Background(), age, k); err != nil || hit != want {
				t.Fatalf("chunk %d after its window: hit=%v err=%v, want hit=%v", k, hit, err, want)
			}
		}
	}
	c.PrefetchChunks(context.Background(), age, ks)
	after := opener.Stats()
	if rpcs := after.RPCs - before.RPCs; rpcs != 1 {
		t.Errorf("a %d-chunk window took %d RPCs, want 1", len(ks), rpcs)
	}
	if got := after.ChunkFetches - before.ChunkFetches; got != int64(len(ks)) {
		t.Errorf("window fetched %d chunks, want %d", got, len(ks))
	}
}

// TestWindowCap: a window never claims more than PrefetchWindow chunks
// nor more than an eighth of a bounded cache budget — none when not even
// one chunk fits.
func TestWindowCap(t *testing.T) {
	_, url := windowShard(t, 256*40, nil)
	opener := testOpener()
	defer opener.Close()
	const chunkBytes = 256 * 8
	for _, tc := range []struct {
		budget int64
		want   int
	}{
		{0, storage.PrefetchWindow},
		{64 << 10, 4},
		{chunkBytes, 0},
	} {
		if got := openClient(t, opener, url, tc.budget).windowCap(); got != tc.want {
			t.Errorf("budget %d: window cap %d, want %d", tc.budget, got, tc.want)
		}
	}
}

// TestCancelledWindowReArmsSlots: a window whose caller gives up while
// its RPC is in flight re-arms every slot it claimed — concurrent
// demand fetches that joined those slots succeed under their own
// contexts instead of inheriting the cancellation, every chunk can be
// fetched afterwards, and no goroutine is left behind.
func TestCancelledWindowReArmsSlots(t *testing.T) {
	const window = 8
	arrived := make(chan struct{}, 1)
	release := make(chan struct{})
	_, url := windowShard(t, 4096, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/chunk") {
				select {
				case arrived <- struct{}{}:
				default:
				}
				<-release
			}
			h.ServeHTTP(w, r)
		})
	})
	opener := NewOpener(Options{Timeout: 10 * time.Second, RetryWait: time.Millisecond})
	c := openClient(t, opener, url, 0)
	base := runtime.NumGoroutine()

	ks := make([]int, window)
	for i := range ks {
		ks[i] = i
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.PrefetchChunks(ctx, 1, ks)
	}()
	<-arrived
	errs := make(chan error, window)
	for _, k := range ks {
		go func() {
			_, _, err := c.FetchChunk(context.Background(), 1, k)
			errs <- err
		}()
	}
	// Every waiter has joined a claimed slot once the cache counts it.
	for deadline := time.Now().Add(5 * time.Second); c.cache.Stats().Hits < window; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d fetches joined the window", c.cache.Stats().Hits, window)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	close(release)
	for range ks {
		if err := <-errs; err != nil {
			t.Errorf("a fetch that joined the cancelled window failed: %v", err)
		}
	}
	for _, k := range ks {
		if _, hit, err := c.FetchChunk(context.Background(), 1, k); err != nil || !hit {
			t.Errorf("chunk %d after the cancelled window: hit=%v err=%v, want a resident hit", k, hit, err)
		}
	}
	opener.Close()
	settleGoroutines(t, base, "cancelled window")
}

// TestPoisonedWireBufferLeavesPayloads: decoded payloads own their
// arrays — overwriting the recycled wire buffer a window was read into
// changes no cached payload.
func TestPoisonedWireBufferLeavesPayloads(t *testing.T) {
	path, url := windowShard(t, 4096, nil)
	file, err := colstore.OpenWith(path, colstore.Options{Mode: colstore.ModeLazy})
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	opener := testOpener()
	defer opener.Close()
	c := openClient(t, opener, url, 0)
	ks := make([]int, storage.PrefetchWindow)
	for i := range ks {
		ks[i] = i
	}
	ctx := context.Background()
	for ci := 0; ci < c.schema.NumFields(); ci++ {
		c.PrefetchChunks(ctx, ci, ks)
	}

	poisoned := 0
	for drained := false; !drained; {
		select {
		case b := <-opener.bufs.free:
			b = b[:cap(b)]
			for i := range b {
				b[i] = 0xa5
			}
			poisoned++
			defer opener.bufs.put(b)
		default:
			drained = true
		}
	}
	if poisoned == 0 {
		t.Fatal("no recycled wire buffer to poison")
	}
	for ci := 0; ci < c.schema.NumFields(); ci++ {
		for _, k := range ks {
			got, _, err := c.FetchChunk(ctx, ci, k)
			if err != nil {
				t.Fatalf("chunk (%d,%d): %v", ci, k, err)
			}
			want, _, err := file.Source().FetchChunk(ctx, ci, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("chunk (%d,%d) changed with the wire buffer it was read from", ci, k)
			}
		}
	}
}

// hashAlignedTable is census with a "bucket" key column whose every
// value covers a multiple of 1024 rows, so hash sharding by it yields
// chunk-aligned shards a remote manifest can serve.
func hashAlignedTable(n int) *storage.Table {
	base := datagen.Census(n, 29)
	fields := append(base.Schema().Fields(), storage.Field{Name: "bucket", Type: storage.String})
	cols := make([]storage.Column, 0, len(fields))
	for ci := 0; ci < base.NumCols(); ci++ {
		cols = append(cols, base.Column(ci))
	}
	dict := []string{"b0", "b1", "b2", "b3", "b4", "b5", "b6", "b7"}
	codes := make([]uint32, n)
	for i := range codes {
		codes[i] = uint32(i/1024) % uint32(len(dict))
	}
	cols = append(cols, storage.NewStringColumnFromDict(dict, codes, nil))
	return storage.MustTable("census", storage.MustSchema(fields...), cols)
}

// TestRemoteExploreIdentityAcrossWindows: remote explorations answer
// byte-identically to in-memory ones whatever the cache does to windows
// — a 1-chunk budget (no window fits), 64 KiB (a few chunks) and
// unbounded (full windows) — at Parallelism 1 and 4, over range and
// hash manifests.
func TestRemoteExploreIdentityAcrossWindows(t *testing.T) {
	queries := []query.Query{
		query.New("census"),
		query.New("census", query.NewRange("age", 20, 70)),
		query.New("census", query.NewRange("age", 25, 60), query.NewIn("sex", "F")),
	}
	for _, layout := range []struct {
		name string
		opts shard.IngestOptions
	}{
		{"range", shard.IngestOptions{Shards: 2, ChunkSize: 256}},
		{"hash", shard.IngestOptions{Shards: 2, HashKey: "bucket", ChunkSize: 256}},
	} {
		tbl := hashAlignedTable(8192)
		local := filepath.Join(t.TempDir(), "t.atlm")
		if _, err := shard.WriteSharded(local, tbl, layout.opts); err != nil {
			t.Fatal(err)
		}
		// The in-memory reference holds the rows in the set's order.
		localSet, err := shard.OpenWith(local, shard.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ref := materialize(t, localSet.Table())
		localSet.Close()
		f := startFabric(t, local, nil)
		for _, budget := range []int64{256 * 8, 64 << 10, 0} {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%s/budget=%d/workers=%d", layout.name, budget, workers)
				set, err := shard.OpenWith(f.manifest, shard.Options{
					Store:  colstore.Options{Mode: colstore.ModeLazy, CacheBytes: budget},
					Remote: testOpener(),
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				opts := core.DefaultOptions()
				opts.Parallelism = workers
				cart, err := core.NewCartographerWith(set.Table(), opts, set.Provider(workers))
				if err != nil {
					t.Fatal(err)
				}
				for qi, q := range queries {
					res, err := cart.Explore(q)
					if err != nil {
						t.Fatalf("%s query %d: %v", name, qi, err)
					}
					if got, want := renderResult(res), unshardedRef(t, ref, q); got != want {
						t.Errorf("%s query %d: remote result differs from in-memory\nwant:\n%s\ngot:\n%s", name, qi, want, got)
					}
				}
				set.Close()
			}
		}
	}
}

// materialize copies a table's columns into memory.
func materialize(t *testing.T, tbl *storage.Table) *storage.Table {
	t.Helper()
	cols := make([]storage.Column, tbl.NumCols())
	for ci := range cols {
		col, err := storage.MaterializeColumn(tbl.Column(ci))
		if err != nil {
			t.Fatal(err)
		}
		cols[ci] = col
	}
	return storage.MustTable(tbl.Name(), tbl.Schema(), cols)
}

// TestWindowLedgerBillsHinter: a window loaded on a query's hint bills
// that query's ledger — one RPC for the window, one store decode per
// chunk.
func TestWindowLedgerBillsHinter(t *testing.T) {
	_, url := windowShard(t, 4096, nil)
	opener := testOpener()
	defer opener.Close()
	c := openClient(t, opener, url, 0)
	led := obsv.NewLedger()
	ctx := obsv.WithLedger(context.Background(), led)
	const age = 0 // numeric: no dictionary round trip rides along
	c.PrefetchChunks(ctx, age, []int{3, 4, 5, 6})
	s := led.Snapshot()
	if s.RPCs != 1 || s.StoreChunksDecoded != 4 || s.BytesWire == 0 {
		t.Errorf("window billed %d RPCs, %d decodes, %d wire bytes; want 1, 4, >0", s.RPCs, s.StoreChunksDecoded, s.BytesWire)
	}
}

// BenchmarkRemoteChunkWindow fetches a 16-chunk window of one column
// from a loopback shard server into a cold cache: ns/op and B/op of the
// chunk plane end to end, and the RPCs it takes.
func BenchmarkRemoteChunkWindow(b *testing.B) {
	_, url := windowShard(b, 16*256, nil)
	opener := testOpener()
	defer opener.Close()
	c := openClient(b, opener, url, 0)
	ks := make([]int, storage.PrefetchWindow)
	for i := range ks {
		ks[i] = i
	}
	ctx := context.Background()
	const age = 0
	rpcs := opener.Stats().RPCs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.cache.Drop(c)
		c.PrefetchChunks(ctx, age, ks)
		for _, k := range ks {
			if _, _, err := c.FetchChunk(ctx, age, k); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(opener.Stats().RPCs-rpcs)/float64(b.N), "RPCs/op")
}
