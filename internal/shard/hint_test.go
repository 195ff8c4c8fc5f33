package shard

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/colstore"
	"repro/internal/obsv"
	"repro/internal/storage"
)

// recordingSource is a backend chunk source that records the ledger
// each prefetch hint arrives with instead of loading anything.
type recordingSource struct {
	storage.ChunkSource
	mu    sync.Mutex
	hints []*obsv.Ledger
}

func (r *recordingSource) PrefetchChunk(ctx context.Context, _, _ int) {
	r.mu.Lock()
	r.hints = append(r.hints, obsv.LedgerFrom(ctx))
	r.mu.Unlock()
}

// recordingBackend serves a local shard file as if it were remote, with
// a recordingSource in front of the file's own. The statistics plane is
// never reached by this test; the embedded nil interface only fills out
// the method set.
type recordingBackend struct {
	RemoteBackend
	fb  *fileBackend
	src *recordingSource
}

func (b *recordingBackend) Meta() BackendMeta           { return b.fb.Meta() }
func (b *recordingBackend) Zones() [][]storage.ZoneMap  { return b.fb.Zones() }
func (b *recordingBackend) Source() storage.ChunkSource { return b.src }
func (b *recordingBackend) IOStats() colstore.IOStats   { return b.fb.IOStats() }
func (b *recordingBackend) Close() error                { return b.fb.Close() }
func (b *recordingBackend) Dicts(ctx context.Context, ci int) ([]string, error) {
	return b.fb.Dicts(ctx, ci)
}

// recordingOpener opens the local file behind each fake URL. A set opens
// its shards concurrently, so both maps are filled before the open and
// only read during it.
type recordingOpener struct {
	files map[string]string           // URL → shard file path
	srcs  map[string]*recordingSource // URL → that shard's recorder
}

func (o *recordingOpener) OpenShard(_ context.Context, locs []string, store colstore.Options) (RemoteBackend, error) {
	fb, err := openFileBackend(o.files[locs[0]], store)
	if err != nil {
		return nil, err
	}
	src := o.srcs[locs[0]]
	src.ChunkSource = fb.Source()
	return &recordingBackend{fb: fb, src: src}, nil
}

// TestPrefetchHintCarriesCallerLedger: a prefetch hint issued through
// the combined table, and one issued through a shard view, must both
// reach the owning backend's source with the caller's ledger — that is
// what bills a speculative fetch to the query that caused it. (The set
// and view sources used to implement only the context-free hint, so on
// a shard set every speculative fetch was counted by the backend but
// billed to nobody.)
func TestPrefetchHintCarriesCallerLedger(t *testing.T) {
	dir := t.TempDir()
	local := filepath.Join(dir, "events.atlm")
	m, err := WriteSharded(local, eventsTable(t, 2_048), IngestOptions{Shards: 2, ChunkSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	urls := []string{"http://shard0.test", "http://shard1.test"}
	opener := &recordingOpener{files: map[string]string{}, srcs: map[string]*recordingSource{}}
	for i, u := range urls {
		opener.files[u] = filepath.Join(dir, m.Shards[i].File)
		opener.srcs[u] = &recordingSource{}
	}
	rm, err := RemoteManifest(m, urls)
	if err != nil {
		t.Fatal(err)
	}
	remote := filepath.Join(dir, "events.remote.atlm")
	if err := WriteManifestFile(remote, rm); err != nil {
		t.Fatal(err)
	}
	set, err := OpenWith(remote, Options{Remote: opener})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	led := obsv.NewLedger()
	ctx := obsv.WithLedger(context.Background(), led)
	const loadCol = 1 // "load": numeric, so no dictionary remap is involved
	hints := []struct {
		name string
		col  storage.Column
		k    int
		url  string
	}{
		{"combined table", set.Table().Column(loadCol), 5, urls[1]}, // chunk 5 = shard 1's chunk 1
		{"shard view", set.ShardTable(0).Column(loadCol), 2, urls[0]},
	}
	for _, h := range hints {
		h.col.(*storage.LazyColumn).PrefetchHint(ctx, h.k)
		src := opener.srcs[h.url]
		src.mu.Lock()
		got := src.hints
		src.mu.Unlock()
		if len(got) != 1 {
			t.Fatalf("%s: backend source saw %d hints, want 1", h.name, len(got))
		}
		if got[0] != led {
			t.Errorf("%s: hint reached the backend without the caller's ledger", h.name)
		}
	}
}
