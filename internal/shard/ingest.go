package shard

import (
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/colstore"
	"repro/internal/par"
	"repro/internal/storage"
)

// IngestOptions configures WriteSharded.
type IngestOptions struct {
	// Shards is the requested shard count (>= 1). Range partitioning may
	// produce fewer when the table has fewer chunks than shards.
	Shards int
	// HashKey selects hash partitioning by the named column; empty means
	// range partitioning in row order.
	HashKey string
	// ChunkSize is rows per chunk inside every shard file (0 uses
	// colstore.DefaultChunkSize; must be a positive multiple of 64).
	ChunkSize int
	// Parallelism bounds the workers writing shard files concurrently
	// (0 = GOMAXPROCS). Shard files are independent, so the written
	// bytes are identical at any setting.
	Parallelism int
}

// WriteSharded splits a table into shard .atl files next to manifestPath
// and writes the manifest describing them. Range partitioning slices
// chunk-aligned row ranges in table order — the shards concatenate back
// into the original table bit for bit. Hash partitioning routes rows by
// HashKey, keeping equal keys in one shard. Shard files are named after
// the manifest ("census.atlm" → "census.00000.atl", ...).
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
	var (
		parts []*storage.Table
		err   error
	)
	if o.HashKey != "" {
		parts, err = hashParts(t, o.HashKey, o.Shards)
	} else {
		parts, err = rangeParts(t, o.Shards, chunkSize)
	}
	if err != nil {
		return nil, err
	}
	m := &Manifest{
		Version:      ManifestVersion,
		Table:        t.Name(),
		Partitioning: PartitionRange,
		Key:          o.HashKey,
		ChunkSize:    chunkSize,
		Rows:         t.NumRows(),
	}
	if o.HashKey != "" {
		m.Partitioning = PartitionHash
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
// lines up with the reassembled table's.
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

// hashParts routes every row to shard fnv1a(key) % n. NULL keys hash as
// the empty byte string, so they land together deterministically.
func hashParts(t *storage.Table, key string, n int) ([]*storage.Table, error) {
	col, err := t.ColumnByName(key)
	if err != nil {
		return nil, err
	}
	rows := t.NumRows()
	idx := make([][]int, n)
	assign := func(i int, h uint64) {
		s := int(h % uint64(n))
		idx[s] = append(idx[s], i)
	}
	var buf [8]byte
	hashBytes := func(b []byte) uint64 {
		h := fnv.New64a()
		h.Write(b)
		return h.Sum64()
	}
	switch c := col.(type) {
	case *storage.Int64Column:
		vals := c.Values()
		for i := 0; i < rows; i++ {
			if c.IsNull(i) {
				assign(i, hashBytes(nil))
				continue
			}
			putLE64(&buf, uint64(vals[i]))
			assign(i, hashBytes(buf[:]))
		}
	case *storage.Float64Column:
		vals := c.Values()
		for i := 0; i < rows; i++ {
			if c.IsNull(i) {
				assign(i, hashBytes(nil))
				continue
			}
			putLE64(&buf, math.Float64bits(vals[i]))
			assign(i, hashBytes(buf[:]))
		}
	case *storage.StringColumn:
		// Hash each dictionary value once; rows route by code.
		dict := c.Dict()
		codeShard := make([]int, len(dict))
		for code, v := range dict {
			codeShard[code] = int(hashBytes([]byte(v)) % uint64(n))
		}
		nullShard := int(hashBytes(nil) % uint64(n))
		codes := c.Codes()
		for i := 0; i < rows; i++ {
			if c.IsNull(i) {
				idx[nullShard] = append(idx[nullShard], i)
				continue
			}
			s := codeShard[codes[i]]
			idx[s] = append(idx[s], i)
		}
	case *storage.BoolColumn:
		vals := c.Values()
		for i := 0; i < rows; i++ {
			if c.IsNull(i) {
				assign(i, hashBytes(nil))
				continue
			}
			b := byte(0)
			if vals[i] {
				b = 1
			}
			assign(i, hashBytes([]byte{b}))
		}
	default:
		return nil, fmt.Errorf("shard: unsupported key column type %T", col)
	}
	parts := make([]*storage.Table, n)
	for s := range parts {
		parts[s] = t.Gather(t.Name(), idx[s])
	}
	return parts, nil
}

func putLE64(buf *[8]byte, v uint64) {
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
}
