package remote

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/storage"
)

// servedMeta answers GET /shard/v1/meta from a real shard server over a
// census shard of 300 rows in 64-row chunks.
func servedMeta(t testing.TB, dir string) []byte {
	t.Helper()
	path := filepath.Join(dir, "census.atl")
	if err := colstore.WriteFile(path, datagen.Census(300, 3), 64); err != nil {
		t.Fatal(err)
	}
	st, err := colstore.OpenWith(path, colstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	w := httptest.NewRecorder()
	NewServer(st).Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/shard/v1/meta", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("meta: HTTP %d", w.Code)
	}
	return w.Body.Bytes()
}

// TestOpenShardOneRequest: opening a remote shard reads its whole
// snapshot — identity, schema, zone maps and dictionaries — in one
// request.
func TestOpenShardOneRequest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "census.atl")
	if err := colstore.WriteFile(path, datagen.Census(1_000, 5), 128); err != nil {
		t.Fatal(err)
	}
	st, err := colstore.OpenWith(path, colstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var requests atomic.Int64
	h := NewServer(st).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	opener := testOpener()
	defer opener.Close()
	be, err := opener.OpenShard(context.Background(), []string{ts.URL}, colstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	if n := requests.Load(); n != 1 {
		t.Errorf("opening a shard took %d requests, want 1", n)
	}
	meta := be.Meta()
	for ci, f := range meta.Schema.Fields() {
		if (f.Type == storage.String) != (len(meta.Dicts[ci]) > 0) {
			t.Errorf("column %q: dictionary of %d values", f.Name, len(meta.Dicts[ci]))
		}
	}
}

// TestOpenShardRefusesCraftedZones: a shard whose snapshot holds a zone
// map that would mis-prune scans is refused at open, as a shard file's
// reader refuses it, with an error naming the shard, the column and the
// chunk.
func TestOpenShardRefusesCraftedZones(t *testing.T) {
	good := servedMeta(t, t.TempDir())
	word := base64.StdEncoding.EncodeToString(make([]byte, 8))
	for _, tc := range []struct {
		name, col string
		craft     func(z *zoneDTO)
	}{
		{"null count above the chunk's rows", "age", func(z *zoneDTO) { z.Nulls = 65 }},
		{"negative null count", "sex", func(z *zoneDTO) { z.Nulls = -1 }},
		{"code set on a numeric column", "age", func(z *zoneDTO) { z.CodeSet = word }},
		{"code set not sized to the dictionary", "education", func(z *zoneDTO) { z.CodeSet = word + word }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var dto metaDTO
			if err := json.Unmarshal(good, &dto); err != nil {
				t.Fatal(err)
			}
			for ci := range dto.Columns {
				if dto.Columns[ci].Name == tc.col {
					tc.craft(&dto.Columns[ci].Zones[1])
				}
			}
			body, err := json.Marshal(dto)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				_, _ = w.Write(body)
			}))
			defer ts.Close()
			opener := testOpener()
			defer opener.Close()
			be, err := opener.OpenShard(context.Background(), []string{ts.URL}, colstore.Options{})
			if err == nil {
				be.Close()
				t.Fatal("crafted zone map accepted")
			}
			for _, want := range []string{ts.URL, `column "` + tc.col + `"`, "chunk 1"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %s", err, want)
				}
			}
		})
	}
}

// TestFabricRefusesMixedDictionaries: a 2-shard fabric whose shard files
// were written with different dictionaries is refused at open, naming
// the shard and the column.
func TestFabricRefusesMixedDictionaries(t *testing.T) {
	dir := t.TempDir()
	var m *shard.Manifest
	for i, name := range []string{"a", "b"} {
		mi, err := shard.WriteSharded(filepath.Join(dir, name+".atlm"), datagen.Census(1_024, int64(i+1)), shard.IngestOptions{Shards: 1, ChunkSize: 128})
		if err != nil {
			t.Fatal(err)
		}
		if m == nil {
			m = mi
			continue
		}
		m.Shards = append(m.Shards, mi.Shards...)
		m.Rows += mi.Rows
	}
	local := filepath.Join(dir, "mixed.atlm")
	if err := shard.WriteManifestFile(local, m); err != nil {
		t.Fatal(err)
	}
	f := startFabric(t, local, nil)
	opener := testOpener()
	defer opener.Close()
	set, err := shard.OpenWith(f.manifest, shard.Options{Remote: opener})
	if err == nil {
		set.Close()
		t.Fatal("shards with different dictionaries were accepted")
	}
	if !strings.Contains(err.Error(), "dictionary mismatch") || !strings.Contains(err.Error(), "on column") {
		t.Errorf("error %q does not name the dictionary mismatch and its column", err)
	}
	if !strings.Contains(err.Error(), f.servers[0].URL) || !strings.Contains(err.Error(), f.servers[1].URL) {
		t.Errorf("error %q does not name the shards", err)
	}
}

// TestDeferredFabricCategoricalOpens: a selective exploration of a
// deferred 4-shard fabric with a string column opens at most the shard
// its base touches and the one the dictionaries come from.
func TestDeferredFabricCategoricalOpens(t *testing.T) {
	const n = 8192
	schema := storage.MustSchema(
		storage.Field{Name: "ts", Type: storage.Int64},
		storage.Field{Name: "load", Type: storage.Float64},
		storage.Field{Name: "kind", Type: storage.String},
	)
	b := storage.NewBuilder("events", schema)
	for i := 0; i < n; i++ {
		b.MustAppendRow(int64(i), float64((i*37)%1000)/10, []string{"read", "write", "scan"}[i%3])
	}
	f := startFabric(t, writeShardedInputs(t, b.MustBuild(), 4, 256), nil)
	opener := testOpener()
	defer opener.Close()
	set, err := shard.OpenWith(f.manifest, shard.Options{Remote: opener, Defer: true})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	cart, err := core.NewCartographer(set.Table(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// A band of shard 2's rows.
	res, err := cart.Explore(query.New("events", query.NewRange("ts", 4400, 4600)))
	if err != nil {
		t.Fatal(err)
	}
	if res.BaseCount != 201 {
		t.Fatalf("base count %d, want 201", res.BaseCount)
	}
	if opened := set.OpenedShards(); opened > 2 {
		t.Errorf("opened %d of 4 remote shards, want at most 2", opened)
	}
}
