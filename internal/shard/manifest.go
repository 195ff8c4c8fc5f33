// Package shard implements the sharded atlas: one logical table split
// into contiguous, chunk-aligned row ranges across several .atl segment
// stores (see internal/colstore), described by a small versioned JSON
// manifest, and assembled at open into a combined chunk-aware table
// plus per-shard views that route every chunk fetch to its shard.
//
// Sharding is the system's scaling unit. The cartography pipeline
// decomposes cleanly per row range — scans, partition bitmaps and
// contingency counts are all row-local — so a table split into shards
// fans those passes out across a worker pool and reduces the results
// through mergeable statistics (values, counts, category-count vectors
// and histograms; see cut.go and provider.go).
// Explorations over a shard set return maps byte-identical to the
// unsharded table at any shard count and any parallelism.
//
// # Manifest format (version 4)
//
// A manifest is a JSON object, conventionally stored next to its shard
// files with an ".atlm" extension:
//
//	{
//	  "version": 4,
//	  "table": "census",            // logical table name
//	  "partitioning": "range",      // always "range"
//	  "chunk_size": 65536,          // rows per chunk in every shard
//	  "rows": 1000000,              // total rows across shards
//	  "columns": [                  // the shared schema
//	    {"name": "age", "type": "int64"},
//	    {"name": "education", "type": "string",
//	     "dict": ["Bachelors", "HS-grad", ...]}  // the table's dictionary
//	  ],
//	  "shards": [
//	    {"file": "census.00000.atl", "rows": 131072,
//	     "zones": ["AgAAAAAAADFA...", "BAAKAQE..."]},  // one per column
//	    {"file": "http://10.0.0.7:8093", "rows": 131072,
//	     "replicas": ["http://10.0.0.8:8093"],   // failover peers
//	     "zones": [...]}
//	  ]
//	}
//
// Shard file paths are relative to the manifest's directory. Every set
// is a range partition: the concatenation of the shards in manifest
// order is exactly the original table, and every shard but the last
// holds a whole number of chunks, so each shard starts on a chunk (and
// a selection word) of the combined table and the set stitches the
// shards' zone maps without rescanning. A manifest that names another
// partitioning, or whose shards are not chunk-aligned, is refused.
//
// The manifest carries exactly what a shard's open snapshot
// (BackendMeta) does: each string column's dictionary, which every
// shard holds, and every shard's zone maps — per column, one record per
// chunk in the .atl zone-map encoding (colstore.AppendZone), base64. A
// set plans every query with them, deferred or not, and checks each
// shard against them when it opens. They are outside input: a manifest
// is read only at version 4, with every zone map checked against its
// chunk's rows, its column's type and dictionary, and older manifests
// are re-ingested with `atlas ingest`.
//
// A remote shard entry may list additional http(s):// URLs in
// "replicas", each serving the same immutable shard file. The remote
// client rotates to a replica when the primary trips its health-driven
// circuit breaker, so a single peer dying mid-exploration degrades to a
// failover instead of an error. Replicas are only meaningful on remote
// shards.
package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/colstore"
	"repro/internal/storage"
)

// Partitioning names a row-routing strategy.
type Partitioning string

// PartitionRange splits rows by position: shard i holds a contiguous,
// chunk-aligned row range, in table order. It is the only partitioning
// a manifest may name.
const PartitionRange Partitioning = "range"

// ManifestVersion is the manifest format version this package writes
// and the only one it reads. Version 2 added the schema, version 3
// per-shard replica locations, and version 4 every shard's zone maps
// and each string column's dictionary.
const ManifestVersion = 4

// ColumnSchema names one column of the sharded table in the manifest.
type ColumnSchema struct {
	Name string `json:"name"`
	// Type is the storage type: "int64", "float64", "string" or "bool".
	Type string `json:"type"`
	// Dict is a string column's dictionary — the table's, which every
	// shard holds and whose codes its zone maps' code sets index. Absent
	// on other columns.
	Dict []string `json:"dict,omitempty"`
}

// ShardFile describes one shard segment of a manifest.
type ShardFile struct {
	// File is the shard's .atl path, relative to the manifest directory.
	File string `json:"file"`
	// Rows is the shard's row count, checked against the opened file.
	Rows int `json:"rows"`
	// Zones holds one entry per schema column: the shard's zone maps,
	// one record per chunk (colstore.EncodeZones).
	Zones []string `json:"zones"`
	// Replicas lists additional http(s):// locations serving the same
	// shard. Only valid when File is itself a remote location; the
	// remote client fails over to them when File's server misbehaves.
	Replicas []string `json:"replicas,omitempty"`
}

// Locations returns the shard's primary location followed by its
// replicas — the dial order of the remote client.
func (sf *ShardFile) Locations() []string {
	locs := make([]string, 0, 1+len(sf.Replicas))
	locs = append(locs, sf.File)
	locs = append(locs, sf.Replicas...)
	return locs
}

// Manifest describes a sharded table: the partitioning that produced it
// and the shard files composing it.
type Manifest struct {
	Version      int          `json:"version"`
	Table        string       `json:"table"`
	Partitioning Partitioning `json:"partitioning"`
	ChunkSize    int          `json:"chunk_size"`
	Rows         int          `json:"rows"`
	// Columns is the shared schema.
	Columns []ColumnSchema `json:"columns"`
	Shards  []ShardFile    `json:"shards"`

	// zones holds every shard's zone maps, [shard][column][chunk],
	// decoded and checked when the manifest validates.
	zones [][][]storage.ZoneMap
}

// Schema reconstructs the storage schema the manifest declares.
func (m *Manifest) Schema() (*storage.Schema, error) {
	fields := make([]storage.Field, len(m.Columns))
	for i, c := range m.Columns {
		typ, err := parseColumnType(c.Type)
		if err != nil {
			return nil, fmt.Errorf("shard: column %q: %w", c.Name, err)
		}
		fields[i] = storage.Field{Name: c.Name, Type: typ}
	}
	return storage.NewSchema(fields...)
}

func parseColumnType(s string) (storage.DataType, error) {
	switch s {
	case "int64":
		return storage.Int64, nil
	case "float64":
		return storage.Float64, nil
	case "string":
		return storage.String, nil
	case "bool":
		return storage.Bool, nil
	default:
		return 0, fmt.Errorf("unknown column type %q", s)
	}
}

func columnTypeName(t storage.DataType) string {
	switch t {
	case storage.Int64:
		return "int64"
	case storage.Float64:
		return "float64"
	case storage.String:
		return "string"
	default:
		return "bool"
	}
}

// decodeZones decodes and checks shard i's zone maps: one entry per
// column, one record per chunk, each sized to its chunk's rows and its
// column's type and dictionary. The error names the shard, the column
// and the chunk.
func (m *Manifest) decodeZones(i int, schema *storage.Schema) ([][]storage.ZoneMap, error) {
	sf := m.Shards[i]
	if len(sf.Zones) != len(m.Columns) {
		return nil, fmt.Errorf("shard: shard %d has zone maps for %d columns, manifest declares %d", i, len(sf.Zones), len(m.Columns))
	}
	out := make([][]storage.ZoneMap, len(sf.Zones))
	for ci, enc := range sf.Zones {
		zones, err := colstore.DecodeZones(enc, schema.Field(ci).Type, len(m.Columns[ci].Dict), sf.Rows, m.ChunkSize)
		if err != nil {
			return nil, fmt.Errorf("shard: shard %d (%s) column %q: %w", i, sf.File, m.Columns[ci].Name, err)
		}
		out[ci] = zones
	}
	return out, nil
}

func (m *Manifest) validate() error {
	if m.Version != ManifestVersion {
		return fmt.Errorf("shard: unsupported manifest version %d (this reader handles version %d only; re-ingest the table with `atlas ingest`)", m.Version, ManifestVersion)
	}
	if len(m.Columns) == 0 {
		return fmt.Errorf("shard: manifest declares no columns")
	}
	schema, err := m.Schema()
	if err != nil {
		return err
	}
	for _, c := range m.Columns {
		if c.Dict != nil && c.Type != "string" {
			return fmt.Errorf("shard: column %q: dictionary on a %s column", c.Name, c.Type)
		}
	}
	if m.Partitioning != PartitionRange {
		return errPartitioning(m.Partitioning)
	}
	if m.ChunkSize <= 0 || m.ChunkSize%64 != 0 {
		return fmt.Errorf("shard: invalid chunk size %d", m.ChunkSize)
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("shard: manifest lists no shards")
	}
	sum := 0
	zones := make([][][]storage.ZoneMap, len(m.Shards))
	for i, sf := range m.Shards {
		if sf.File == "" {
			return fmt.Errorf("shard: shard %d has no file", i)
		}
		if !IsRemoteLocation(sf.File) && filepath.IsAbs(sf.File) {
			return fmt.Errorf("shard: shard file %q must be relative to the manifest (or an http(s):// location)", sf.File)
		}
		if sf.Rows < 0 {
			return fmt.Errorf("shard: shard %d has negative row count %d", i, sf.Rows)
		}
		if zones[i], err = m.decodeZones(i, schema); err != nil {
			return err
		}
		if i < len(m.Shards)-1 && sf.Rows%m.ChunkSize != 0 {
			return fmt.Errorf("shard: shard %d (%s) holds %d rows, not a multiple of the chunk size %d: every shard but the last must hold whole chunks; re-ingest the table with `atlas ingest`", i, sf.File, sf.Rows, m.ChunkSize)
		}
		if len(sf.Replicas) > 0 {
			if !IsRemoteLocation(sf.File) {
				return fmt.Errorf("shard: shard %d lists replicas for local file %q (replicas need a remote primary)", i, sf.File)
			}
			for _, r := range sf.Replicas {
				if !IsRemoteLocation(r) {
					return fmt.Errorf("shard: shard %d replica %q is not an http(s):// location", i, r)
				}
			}
		}
		sum += sf.Rows
	}
	if sum != m.Rows {
		return fmt.Errorf("shard: shard rows sum to %d, manifest claims %d", sum, m.Rows)
	}
	m.zones = zones
	return nil
}

// errPartitioning refuses a manifest that names partitioning p: every
// set is a chunk-aligned range partition.
func errPartitioning(p Partitioning) error {
	return fmt.Errorf("shard: %q partitioning is not supported: every shard set is a chunk-aligned range partition; re-ingest the table with `atlas ingest`", p)
}

// ReadManifest parses and validates a manifest file.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		// A hash manifest fails on its "key" field; say what it is.
		var p struct{ Partitioning Partitioning }
		if json.Unmarshal(data, &p) == nil && p.Partitioning != "" && p.Partitioning != PartitionRange {
			err = errPartitioning(p.Partitioning)
		}
		return nil, fmt.Errorf("shard: %s: %w", path, err)
	}
	if err := m.validate(); err != nil {
		return nil, fmt.Errorf("shard: %s: %w", path, err)
	}
	return &m, nil
}

// RemoteManifest returns a copy of m with shard i served from urls[i]
// instead of its local file — the coordinator-side manifest of a remote
// deployment, where each URL names an atlasd running with -serve-shard
// on that shard's .atl file. An entry may name several replicas
// separated by '|' ("http://a:8093|http://b:8093"): the first is the
// primary, the rest are failover peers serving the same shard. Rows,
// zone maps, dictionaries and ordering carry over unchanged, so the set
// plans exactly as it does locally; an empty urls[i] keeps shard i local
// (mixed deployments are fine).
func RemoteManifest(m *Manifest, urls []string) (*Manifest, error) {
	if len(urls) != len(m.Shards) {
		return nil, fmt.Errorf("shard: %d URLs for %d shards", len(urls), len(m.Shards))
	}
	out := *m
	out.Version = ManifestVersion
	out.Shards = append([]ShardFile(nil), m.Shards...)
	for i, entry := range urls {
		if entry == "" {
			continue
		}
		var locs []string
		for _, u := range strings.Split(entry, "|") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			if !IsRemoteLocation(u) {
				return nil, fmt.Errorf("shard: shard %d location %q is not an http(s):// URL", i, u)
			}
			locs = append(locs, strings.TrimRight(u, "/"))
		}
		if len(locs) == 0 {
			continue
		}
		out.Shards[i].File = locs[0]
		out.Shards[i].Replicas = locs[1:]
	}
	if err := out.validate(); err != nil {
		return nil, err
	}
	return &out, nil
}

// WriteManifestFile serializes a manifest to path (atomically, via a
// temporary sibling) — exported for remote-manifest tooling.
func WriteManifestFile(path string, m *Manifest) error {
	if err := m.validate(); err != nil {
		return err
	}
	return writeManifest(path, m)
}

// writeManifest serializes m to path via a temporary sibling, so a
// failed write never leaves a truncated manifest behind.
func writeManifest(path string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// IsManifest sniffs whether path holds a shard manifest rather than a
// single .atl store: manifests are JSON objects, stores start with the
// "ATLS" magic. It lets every -store flag accept either.
func IsManifest(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var buf [16]byte
	n, _ := f.Read(buf[:])
	for _, b := range buf[:n] {
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		case '{':
			return true
		default:
			return false
		}
	}
	return false
}
