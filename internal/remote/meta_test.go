package remote

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
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
	for _, tc := range []struct {
		name, col string
		craft     func(z *storage.ZoneMap)
	}{
		{"null count above the chunk's rows", "age", func(z *storage.ZoneMap) { z.NullCount = 65 }},
		{"negative null count", "sex", func(z *storage.ZoneMap) { z.NullCount = -1 }},
		{"code set on a numeric column", "age", func(z *storage.ZoneMap) { z.CodeSet = []uint64{1} }},
		{"code set not sized to the dictionary", "education", func(z *storage.ZoneMap) { z.CodeSet = []uint64{1, 0} }},
		{"min above max", "age", func(z *storage.ZoneMap) { z.Min, z.Max = z.Max+1, z.Min }},
		{"NaN max", "age", func(z *storage.ZoneMap) { z.Max = math.NaN() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var dto metaDTO
			if err := json.Unmarshal(good, &dto); err != nil {
				t.Fatal(err)
			}
			for ci, col := range dto.Columns {
				if col.Name != tc.col {
					continue
				}
				zones, err := colstore.DecodeZones(col.Zones, storage.String, -1, dto.Rows, dto.ChunkSize)
				if err != nil {
					t.Fatal(err)
				}
				tc.craft(&zones[1])
				dto.Columns[ci].Zones = colstore.EncodeZones(zones)
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

// TestShardMetaRefusesHugeRows: a meta answer claiming rows near MaxInt
// is refused with an error, not a panic from an overflowed chunk count.
func TestShardMetaRefusesHugeRows(t *testing.T) {
	dto := metaDTO{Rows: math.MaxInt64, ChunkSize: 64, Version: colstore.Version,
		Columns: []colDTO{{Name: "n", Type: "int64", Zones: colstore.EncodeZones(make([]storage.ZoneMap, 1))}}}
	if _, err := dto.snapshot(); err == nil || !strings.Contains(err.Error(), `column "n"`) {
		t.Fatalf("rows = MaxInt64: err = %v", err)
	}
}

// TestFabricRefusesMixedDictionaries: a fabric shard that disagrees with
// the manifest — a file written with another dictionary, other rows
// under the same dictionary, or another schema — is refused when it
// opens, eagerly or deferred, naming the shard's location, the column
// and, for zone maps, the chunk.
func TestFabricRefusesMixedDictionaries(t *testing.T) {
	tbl := datagen.Census(2_048, 1)
	for _, tc := range []struct {
		name    string
		replace func() *storage.Table
		want    string
	}{
		{"dictionary", func() *storage.Table { return datagen.Census(1_024, 2) }, "dictionary mismatch on column"},
		{"zone maps", func() *storage.Table {
			p, err := tbl.SliceRows("census", 0, 1_024)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}, `zone map mismatch on column "age" chunk 0`},
		{"schema", func() *storage.Table { return datagen.SkySurvey(1_024, 1) }, "7 columns, manifest declares 5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			local := writeShardedInputs(t, tbl, 2, 128)
			m, err := shard.ReadManifest(local)
			if err != nil {
				t.Fatal(err)
			}
			if err := colstore.WriteFile(filepath.Join(filepath.Dir(local), m.Shards[1].File), tc.replace(), 128); err != nil {
				t.Fatal(err)
			}
			f := startFabric(t, local, nil)
			opener := testOpener()
			defer opener.Close()
			want := func(err error) {
				t.Helper()
				if err == nil {
					t.Fatal("a shard that disagrees with its manifest was accepted")
				}
				for _, s := range []string{"shard 1 (" + f.servers[1].URL + ") disagrees with the manifest", tc.want} {
					if !strings.Contains(err.Error(), s) {
						t.Errorf("error %q does not say %q", err, s)
					}
				}
			}
			set, err := shard.OpenWith(f.manifest, shard.Options{Remote: opener})
			if err == nil {
				set.Close()
			}
			want(err)
			set, err = shard.OpenWith(f.manifest, shard.Options{Remote: opener, Defer: true})
			if err != nil {
				t.Fatalf("deferred open touched a shard: %v", err)
			}
			defer set.Close()
			cart, err := core.NewCartographer(set.Table(), core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			_, err = cart.Explore(query.New("census"))
			want(err)
		})
	}
}

// TestFabricRefusesUnalignedAndHash: a remote manifest that is not a
// chunk-aligned range partition is refused, opened whole or deferred,
// before any shard server is asked: one whose shard 0 holds 1 000 rows
// of 128-row chunks, naming the shard, and a hash manifest, naming the
// file. The servers serve files that match each manifest's rows and
// zone maps, so alignment alone decides.
func TestFabricRefusesUnalignedAndHash(t *testing.T) {
	tbl := datagen.Census(2_048, 1)
	local := writeShardedInputs(t, tbl, 2, 128)
	m, err := shard.ReadManifest(local)
	if err != nil {
		t.Fatal(err)
	}
	unaligned := make([]shard.ShardFile, len(m.Shards))
	for i, rows := range [][2]int{{0, 1_000}, {1_000, 2_048}} {
		part, err := tbl.SliceRows("census", rows[0], rows[1])
		if err != nil {
			t.Fatal(err)
		}
		ck, err := colstore.WriteFileStats(filepath.Join(filepath.Dir(local), m.Shards[i].File), part, 128)
		if err != nil {
			t.Fatal(err)
		}
		unaligned[i].Rows = part.NumRows()
		for _, zones := range ck.Zones {
			unaligned[i].Zones = append(unaligned[i].Zones, colstore.EncodeZones(zones))
		}
	}
	f := startFabric(t, local, nil)
	rm, err := shard.ReadManifest(f.manifest)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, m shard.Manifest) string {
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	hash := *rm
	hash.Partitioning = "hash"
	ragged := *rm
	ragged.Shards = append([]shard.ShardFile(nil), rm.Shards...)
	for i := range ragged.Shards {
		ragged.Shards[i].Rows, ragged.Shards[i].Zones = unaligned[i].Rows, unaligned[i].Zones
	}
	hashPath := write("hash.atlm", hash)
	opener := testOpener()
	defer opener.Close()
	for _, tc := range []struct{ path, want string }{
		{write("unaligned.atlm", ragged), "shard 0 (" + f.servers[0].URL + ") holds 1000 rows, not a multiple of the chunk size 128"},
		{hashPath, hashPath + `: shard: "hash" partitioning is not supported`},
	} {
		for _, deferred := range []bool{false, true} {
			set, err := shard.OpenWith(tc.path, shard.Options{Remote: opener, Defer: deferred})
			if err == nil {
				set.Close()
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("deferred %v: err = %v, want %q", deferred, err, tc.want)
			}
		}
	}
	if st := opener.Stats(); st.RPCs != 0 {
		t.Errorf("refused manifests made %d RPCs", st.RPCs)
	}
}

// TestDeferredFabricCategoricalOpens: a selective exploration of a
// deferred 4-shard fabric with a string column opens exactly the shards
// whose zone maps admit its predicates — a ts band, or an IN on a kind
// column clustered by shard — and none only to supply a dictionary,
// which is the manifest's.
func TestDeferredFabricCategoricalOpens(t *testing.T) {
	const n = 8192
	schema := storage.MustSchema(
		storage.Field{Name: "ts", Type: storage.Int64},
		storage.Field{Name: "load", Type: storage.Float64},
		storage.Field{Name: "kind", Type: storage.String},
		storage.Field{Name: "mode", Type: storage.String},
	)
	b := storage.NewBuilder("events", schema)
	for i := 0; i < n; i++ {
		// kind is "read" on shards 0 and 3, "write" on 1, "scan" on 2.
		b.MustAppendRow(int64(i), float64((i*37)%1000)/10, []string{"read", "write", "scan", "read"}[i/2048], []string{"a", "b", "c"}[i%3])
	}
	f := startFabric(t, writeShardedInputs(t, b.MustBuild(), 4, 256), nil)
	opener := testOpener()
	defer opener.Close()
	for _, tc := range []struct {
		q      query.Query
		base   int
		opened int
	}{
		{query.New("events", query.NewRange("ts", 4400, 4600)), 201, 1},
		{query.New("events", query.NewIn("kind", "write")), 2048, 1},
		{query.New("events", query.NewIn("kind", "read")), 4096, 2},
		{query.New("events", query.NewIn("kind", "write"), query.NewIn("mode", "b")), 682, 1},
	} {
		set, err := shard.OpenWith(f.manifest, shard.Options{Remote: opener, Defer: true})
		if err != nil {
			t.Fatal(err)
		}
		cart, err := core.NewCartographer(set.Table(), core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		res, err := cart.Explore(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if res.BaseCount != tc.base {
			t.Errorf("%s: base count %d, want %d", tc.q, res.BaseCount, tc.base)
		}
		if opened := set.OpenedShards(); opened != tc.opened {
			t.Errorf("%s: opened %d of 4 remote shards, want %d", tc.q, opened, tc.opened)
		}
		set.Close()
	}
}
