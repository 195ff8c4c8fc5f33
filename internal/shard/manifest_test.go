package shard

import (
	"encoding/base64"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/storage"
)

// remoteTestManifest builds a minimal valid remote manifest with the
// given shard locations (primary + replicas): one int64 column, and
// empty zone maps for every shard that names none.
func remoteTestManifest(shards []ShardFile, rows int) *Manifest {
	for i := range shards {
		if shards[i].Zones == nil {
			shards[i].Zones = []string{colstore.EncodeZones(make([]storage.ZoneMap, (shards[i].Rows+63)/64))}
		}
	}
	return &Manifest{
		Version:      ManifestVersion,
		Table:        "t",
		Partitioning: PartitionRange,
		ChunkSize:    64,
		Rows:         rows,
		Columns:      []ColumnSchema{{Name: "v", Type: "int64"}},
		Shards:       shards,
	}
}

// TestManifestZoneValidation: a manifest's zone maps are outside input —
// every set plans with them and never rereads them from a shard before
// it opens — so a record that would mis-prune fails validation, with an
// error naming the shard, the column and the chunk.
func TestManifestZoneValidation(t *testing.T) {
	valid := func() [][]storage.ZoneMap {
		return [][]storage.ZoneMap{
			{{Min: 1, Max: 9, HasMinMax: true, Distinct: 9}, {NullCount: 36}},
			{{CodeSet: []uint64{3}, Distinct: 2}, {CodeSet: []uint64{1}, Distinct: 1}},
		}
	}
	for _, tc := range []struct {
		name  string
		col   int // 0 = int64 "n", 1 = string "s"
		craft func(zones [][]storage.ZoneMap, enc []string)
		wants string // "" = valid
	}{
		{"valid", 0, func([][]storage.ZoneMap, []string) {}, ""},
		{"truncated record", 0, func(_ [][]storage.ZoneMap, enc []string) {
			b, _ := base64.StdEncoding.DecodeString(enc[0])
			enc[0] = base64.StdEncoding.EncodeToString(b[:len(b)-1])
		}, "chunk 1"},
		{"wrong zone count", 1, func(zones [][]storage.ZoneMap, enc []string) {
			enc[1] = colstore.EncodeZones(zones[1][:1])
		}, "zone maps"},
		{"null count past the chunk's rows", 0, func(zones [][]storage.ZoneMap, enc []string) {
			zones[0][1].NullCount = 37
			enc[0] = colstore.EncodeZones(zones[0])
		}, "chunk 1: null count"},
		{"code set on a numeric column", 0, func(zones [][]storage.ZoneMap, enc []string) {
			zones[0][0].CodeSet = []uint64{1}
			enc[0] = colstore.EncodeZones(zones[0])
		}, "chunk 0: code set on"},
		{"code set not sized to the dictionary", 1, func(zones [][]storage.ZoneMap, enc []string) {
			zones[1][1].CodeSet = []uint64{1, 0}
			enc[1] = colstore.EncodeZones(zones[1])
		}, "chunk 1: code set of 2 words"},
		{"min above max", 0, func(zones [][]storage.ZoneMap, enc []string) {
			zones[0][0].Min, zones[0][0].Max = 5, 1
			enc[0] = colstore.EncodeZones(zones[0])
		}, "chunk 0: bounds"},
		{"NaN min", 0, func(zones [][]storage.ZoneMap, enc []string) {
			zones[0][0].Min = math.NaN()
			enc[0] = colstore.EncodeZones(zones[0])
		}, "chunk 0: bounds"},
		{"NaN max", 0, func(zones [][]storage.ZoneMap, enc []string) {
			zones[0][0].Max = math.NaN()
			enc[0] = colstore.EncodeZones(zones[0])
		}, "chunk 0: bounds"},
		{"not base64", 1, func(_ [][]storage.ZoneMap, enc []string) { enc[1] = "!!" }, "base64"},
	} {
		zones := valid()
		enc := []string{colstore.EncodeZones(zones[0]), colstore.EncodeZones(zones[1])}
		tc.craft(zones, enc)
		m := &Manifest{
			Version: ManifestVersion, Table: "t", Partitioning: PartitionRange, ChunkSize: 64, Rows: 100,
			Columns: []ColumnSchema{{Name: "n", Type: "int64"}, {Name: "s", Type: "string", Dict: []string{"a", "b"}}},
			Shards:  []ShardFile{{File: "t.00000.atl", Rows: 100, Zones: enc}},
		}
		err := m.validate()
		switch {
		case tc.wants == "" && err != nil:
			t.Errorf("%s: valid zone maps rejected: %v", tc.name, err)
		case tc.wants == "":
			if got := m.zones[0]; len(got) != 2 || !sameZone(got[0][0], zones[0][0]) || !sameZone(got[1][1], zones[1][1]) {
				t.Errorf("%s: zone maps read back as %+v", tc.name, got)
			}
		case err == nil || !strings.Contains(err.Error(), tc.wants):
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.wants)
		case !strings.Contains(err.Error(), "shard 0") || !strings.Contains(err.Error(), `"`+m.Columns[tc.col].Name+`"`):
			t.Errorf("%s: error %q does not name the shard and the column", tc.name, err)
		}
	}
	// A row count near MaxInt must not overflow the chunk count into a
	// negative length.
	huge := &Manifest{
		Version: ManifestVersion, Table: "t", Partitioning: PartitionRange, ChunkSize: 64, Rows: math.MaxInt64,
		Columns: []ColumnSchema{{Name: "n", Type: "int64"}},
		Shards:  []ShardFile{{File: "t.00000.atl", Rows: math.MaxInt64, Zones: []string{colstore.EncodeZones(make([]storage.ZoneMap, 1))}}},
	}
	if err := huge.validate(); err == nil || !strings.Contains(err.Error(), "zone maps") {
		t.Errorf("rows = MaxInt64: err = %v", err)
	}
	m := &Manifest{
		Version: ManifestVersion, Table: "t", Partitioning: PartitionRange, ChunkSize: 64, Rows: 1,
		Columns: []ColumnSchema{{Name: "n", Type: "int64", Dict: []string{"a"}}},
		Shards:  []ShardFile{{File: "t.00000.atl", Rows: 1, Zones: []string{colstore.EncodeZones(make([]storage.ZoneMap, 1))}}},
	}
	if err := m.validate(); err == nil || !strings.Contains(err.Error(), "dictionary on a int64 column") {
		t.Errorf("dictionary on a numeric column: err = %v", err)
	}
}

// FuzzReadManifest: arbitrary manifest bytes either read into a
// validated manifest or fail with a named error — never a panic. A
// manifest that reads is a chunk-aligned range partition, every shard
// but the last a whole number of chunks, and every zone map of it
// passes the .atl reader's check against its chunk's rows and its
// column's dictionary. The corpus's hash-written manifest must fail.
func FuzzReadManifest(f *testing.F) {
	f.Add([]byte(`{"version":4,"table":"t","partitioning":"range","chunk_size":64,"rows":10,` +
		`"columns":[{"name":"n","type":"int64"},{"name":"s","type":"string","dict":["a"]}],` +
		`"shards":[{"file":"t.00000.atl","rows":10,"zones":["AgAAAAAAAPA/AAAAAAAAIkAACQ==","BQEBAQEAAAAAAAAA"]}]}`))
	f.Add([]byte(`{"version":4,"table":"t","partitioning":"range","chunk_size":64,"rows":9223372036854775807,` +
		`"columns":[{"name":"n","type":"int64"}],` +
		`"shards":[{"file":"t.00000.atl","rows":9223372036854775807,"zones":["AAAA"]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.atlm")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifest(path)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "shard: ") {
				t.Fatalf("unnamed error %q", err)
			}
			return
		}
		if m.Partitioning != PartitionRange {
			t.Fatalf("%q partitioning accepted", m.Partitioning)
		}
		schema, err := m.Schema()
		if err != nil {
			t.Fatal(err)
		}
		for i, sf := range m.Shards {
			if i < len(m.Shards)-1 && sf.Rows%m.ChunkSize != 0 {
				t.Fatalf("shard %d of %d rows accepted with chunk size %d", i, sf.Rows, m.ChunkSize)
			}
			zones := m.zones[i]
			if len(zones) != len(m.Columns) {
				t.Fatalf("shard %d: zone maps for %d of %d columns", i, len(zones), len(m.Columns))
			}
			for ci, c := range m.Columns {
				if len(zones[ci]) != (sf.Rows+m.ChunkSize-1)/m.ChunkSize {
					t.Fatalf("shard %d column %q: %d zone maps for %d rows", i, c.Name, len(zones[ci]), sf.Rows)
				}
				for k, zm := range zones[ci] {
					if err := zm.Check(schema.Field(ci).Type, len(c.Dict), min(m.ChunkSize, sf.Rows-k*m.ChunkSize)); err != nil {
						t.Fatalf("shard %d column %q chunk %d accepted: %v", i, c.Name, k, err)
					}
				}
			}
		}
	})
}

// TestManifestV3ReplicaRoundTrip: replica locations survive a
// write/read cycle and Locations() yields the dial order.
func TestManifestV3ReplicaRoundTrip(t *testing.T) {
	m := remoteTestManifest([]ShardFile{
		{File: "http://a:8093", Rows: 64, Replicas: []string{"http://b:8093", "https://c:8443"}},
		{File: "http://d:8093", Rows: 64},
	}, 128)
	path := filepath.Join(t.TempDir(), "r.atlm")
	if err := WriteManifestFile(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != ManifestVersion {
		t.Errorf("version %d, want %d", got.Version, ManifestVersion)
	}
	locs := got.Shards[0].Locations()
	want := []string{"http://a:8093", "http://b:8093", "https://c:8443"}
	if len(locs) != len(want) {
		t.Fatalf("shard 0 locations %v, want %v", locs, want)
	}
	for i := range want {
		if locs[i] != want[i] {
			t.Errorf("location %d = %q, want %q", i, locs[i], want[i])
		}
	}
	if locs := got.Shards[1].Locations(); len(locs) != 1 || locs[0] != "http://d:8093" {
		t.Errorf("replica-less shard locations %v, want just the primary", locs)
	}
}

// TestManifestReplicaValidation: replicas demand a current manifest and a
// remote primary, and must themselves be http(s):// locations.
func TestManifestReplicaValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.atlm")

	local := remoteTestManifest([]ShardFile{
		{File: "t.00000.atl", Rows: 64, Replicas: []string{"http://b:8093"}},
	}, 64)
	if err := WriteManifestFile(path, local); err == nil {
		t.Error("replicas on a local shard file validated")
	} else if !strings.Contains(err.Error(), "remote primary") {
		t.Errorf("error %q does not explain the remote-primary rule", err)
	}

	badURL := remoteTestManifest([]ShardFile{
		{File: "http://a:8093", Rows: 64, Replicas: []string{"b:8093"}},
	}, 64)
	if err := WriteManifestFile(path, badURL); err == nil {
		t.Error("non-URL replica validated")
	} else if !strings.Contains(err.Error(), "http(s)") {
		t.Errorf("error %q does not name the URL rule", err)
	}

	old := remoteTestManifest([]ShardFile{
		{File: "http://a:8093", Rows: 64, Replicas: []string{"http://b:8093"}},
	}, 64)
	old.Version = 2
	if err := WriteManifestFile(path, old); err == nil {
		t.Error("v2 manifest with replicas validated")
	} else if !strings.Contains(err.Error(), "version") {
		t.Errorf("error %q does not name the version rule", err)
	}
}

// TestRemoteManifestReplicaSyntax: '|'-separated URL entries split into
// primary + replicas, with whitespace and trailing slashes normalized.
func TestRemoteManifestReplicaSyntax(t *testing.T) {
	tbl := eventsTable(t, 512)
	dir := t.TempDir()
	local, err := WriteSharded(filepath.Join(dir, "e.atlm"), tbl, IngestOptions{Shards: 2, ChunkSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	rm, err := RemoteManifest(local, []string{
		"http://a:8093/ | http://b:8093",
		"http://c:8093",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rm.Version != ManifestVersion {
		t.Errorf("remote manifest version %d, want %d", rm.Version, ManifestVersion)
	}
	s0 := rm.Shards[0]
	if s0.File != "http://a:8093" {
		t.Errorf("shard 0 primary %q, want normalized http://a:8093", s0.File)
	}
	if len(s0.Replicas) != 1 || s0.Replicas[0] != "http://b:8093" {
		t.Errorf("shard 0 replicas %v, want [http://b:8093]", s0.Replicas)
	}
	if s1 := rm.Shards[1]; s1.File != "http://c:8093" || len(s1.Replicas) != 0 {
		t.Errorf("shard 1 = %q/%v, want lone http://c:8093", s1.File, s1.Replicas)
	}
	// The local manifest is untouched (RemoteManifest copies).
	if local.Shards[0].File == s0.File || len(local.Shards[0].Replicas) != 0 {
		t.Error("RemoteManifest mutated its input manifest")
	}
	if _, err := RemoteManifest(local, []string{"http://a:8093|not a url", ""}); err == nil {
		t.Error("bad replica URL accepted")
	}
}
