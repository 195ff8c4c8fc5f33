package storage

import (
	"fmt"

	"repro/internal/bitvec"
)

// SliceRows returns a view of rows [lo, hi) of t under a new name. Value
// storage (and string dictionaries) is shared with t; only null bitmaps
// are re-packed when present. The view keeps t's chunk grid: when lo
// starts a chunk its zone maps are t's own, and otherwise they are
// computed from the view's first row on. It is the physical operator
// behind range partitioning: each shard a shard set is written from is a
// slice of its table.
func (t *Table) SliceRows(name string, lo, hi int) (*Table, error) {
	if lo < 0 || hi < lo || hi > t.rows {
		return nil, fmt.Errorf("storage: slice rows [%d,%d) out of range [0,%d]", lo, hi, t.rows)
	}
	cols := make([]Column, len(t.cols))
	for ci, c := range t.cols {
		var nulls *bitvec.Vector
		if full := nullsOf(c); full != nil {
			nulls = full.Slice(lo, hi)
			if !nulls.Any() {
				nulls = nil
			}
		}
		switch col := c.(type) {
		case *Int64Column:
			cols[ci] = NewInt64Column(col.Values()[lo:hi], nulls)
		case *Float64Column:
			cols[ci] = NewFloat64Column(col.Values()[lo:hi], nulls)
		case *BoolColumn:
			cols[ci] = NewBoolColumn(col.Values()[lo:hi], nulls)
		case *StringColumn:
			cols[ci] = &StringColumn{nullSet{nulls}, col.Dict(), col.Codes()[lo:hi]}
		default:
			return nil, fmt.Errorf("storage: slice of unsupported column type %T", c)
		}
	}
	out := &Table{name: name, schema: t.schema, cols: cols, rows: hi - lo}
	size := t.chunking.Size
	if lo%size != 0 || (hi%size != 0 && hi != t.rows) {
		return out.chunked(size), nil
	}
	ck := &Chunking{Size: size, Zones: make([][]ZoneMap, len(cols))}
	for ci, zones := range t.chunking.Zones {
		ck.Zones[ci] = zones[lo/size : lo/size+ck.NumChunks(hi-lo)]
	}
	return out.attach(ck), nil
}

// WithChunking returns t with the given chunk metadata attached (columns
// shared). The chunking is validated against the table's shape.
func (t *Table) WithChunking(ck *Chunking) (*Table, error) {
	if ck == nil {
		return nil, fmt.Errorf("storage: WithChunking with nil chunking")
	}
	if err := ck.validate(len(t.cols), t.rows); err != nil {
		return nil, err
	}
	out := &Table{name: t.name, schema: t.schema, cols: t.cols, rows: t.rows}
	return out.attach(ck), nil
}
