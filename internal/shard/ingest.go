package shard

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/colstore"
	"repro/internal/par"
	"repro/internal/storage"
)

// IngestOptions configures WriteSharded.
type IngestOptions struct {
	// Shards is the requested shard count (>= 1). WriteSharded may
	// produce fewer when the table has fewer chunks than shards.
	Shards int
	// ChunkSize is rows per chunk inside every shard file (0 uses
	// colstore.DefaultChunkSize; must be a positive multiple of 64).
	ChunkSize int
	// Parallelism bounds the workers writing shard files concurrently
	// (0 = GOMAXPROCS). Shard files are independent, so the written
	// bytes are identical at any setting.
	Parallelism int
}

// WriteSharded splits a table into shard .atl files next to manifestPath
// and writes the manifest describing them. It range-partitions: each
// shard holds a contiguous row range in table order, and every shard
// but the last a whole number of chunks, so the shards concatenate back
// into the original table bit for bit. Shard files are named after the
// manifest ("census.atlm" → "census.00000.atl", ...).
func WriteSharded(manifestPath string, t *storage.Table, o IngestOptions) (*Manifest, error) {
	if o.Shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d must be >= 1", o.Shards)
	}
	chunkSize := o.ChunkSize
	if chunkSize == 0 {
		chunkSize = colstore.DefaultChunkSize
	}
	if chunkSize <= 0 || chunkSize%64 != 0 {
		return nil, fmt.Errorf("shard: chunk size %d must be a positive multiple of 64", chunkSize)
	}
	parts, err := rangeParts(t, o.Shards, chunkSize)
	if err != nil {
		return nil, err
	}
	m := &Manifest{
		Version:      ManifestVersion,
		Table:        t.Name(),
		Partitioning: PartitionRange,
		ChunkSize:    chunkSize,
		Rows:         t.NumRows(),
	}
	for i := 0; i < t.NumCols(); i++ {
		f := t.Schema().Field(i)
		c := ColumnSchema{Name: f.Name, Type: columnTypeName(f.Type)}
		if f.Type == storage.String {
			// Every shard holds the table's dictionary (see Set).
			if c.Dict, err = storage.Dictionary(t.Column(i)); err != nil {
				return nil, err
			}
		}
		m.Columns = append(m.Columns, c)
	}
	dir := filepath.Dir(manifestPath)
	base := strings.TrimSuffix(filepath.Base(manifestPath), filepath.Ext(manifestPath))
	// Shard files are independent: fan the per-shard colstore writes
	// (zone-map computation + encode + fsync-rename) over the worker
	// pool. Each shard's bytes depend only on its own part, so the
	// output is identical to a serial write.
	workers := o.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	m.Shards = make([]ShardFile, len(parts))
	err = par.For(workers, len(parts), func(i int) error {
		name := fmt.Sprintf("%s.%05d.atl", base, i)
		ck, err := colstore.WriteFileStats(filepath.Join(dir, name), parts[i], chunkSize)
		if err != nil {
			return fmt.Errorf("shard: writing shard %d: %w", i, err)
		}
		sf := ShardFile{File: name, Rows: parts[i].NumRows(), Zones: make([]string, len(ck.Zones))}
		for ci, zones := range ck.Zones {
			sf.Zones[ci] = colstore.EncodeZones(zones)
		}
		m.Shards[i] = sf
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	if err := writeManifest(manifestPath, m); err != nil {
		return nil, err
	}
	return m, nil
}

// rangeParts slices t into up to n contiguous row ranges whose
// boundaries fall on chunk boundaries, so every shard file's chunk grid
// lines up with the combined table's.
func rangeParts(t *storage.Table, n, chunkSize int) ([]*storage.Table, error) {
	rows := t.NumRows()
	if rows == 0 || n == 1 {
		return []*storage.Table{t}, nil
	}
	perShard := (rows + n - 1) / n
	// Round up to a chunk multiple: every shard but the last holds a
	// whole number of chunks.
	perShard = (perShard + chunkSize - 1) / chunkSize * chunkSize
	var parts []*storage.Table
	for lo := 0; lo < rows; lo += perShard {
		hi := lo + perShard
		if hi > rows {
			hi = rows
		}
		p, err := t.SliceRows(t.Name(), lo, hi)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	return parts, nil
}
