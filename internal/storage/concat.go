package storage

import (
	"fmt"
	"slices"

	"repro/internal/bitvec"
)

// ConcatTables materializes the row-wise concatenation of parts, in
// order, under one name — the physical operator that reassembles a
// sharded table from its shard segments. All parts must share one schema
// (same field names and types, in order), and each string column one
// dictionary: the codes concatenate under it, so parts cut from one table
// (SliceRows, Gather) concatenate and parts with different dictionaries
// are refused.
//
// A single part is returned as a rename (columns and chunk metadata
// shared, no copy), so a one-shard store costs the same as an unsharded
// one. A multi-part concatenation computes its zone maps on the parts'
// chunk grid when they share one, and on ResidentChunkRows otherwise.
func ConcatTables(name string, parts []*Table) (*Table, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("storage: concat of zero tables")
	}
	if len(parts) == 1 {
		return parts[0].Rename(name), nil
	}
	schema := parts[0].schema
	rows := parts[0].rows
	for _, p := range parts[1:] {
		if !schema.Equal(p.schema) {
			return nil, fmt.Errorf("storage: concat schema mismatch: table %q has %s, table %q has %s",
				parts[0].name, describeSchema(schema), p.name, describeSchema(p.schema))
		}
		rows += p.rows
	}
	size := parts[0].chunking.Size
	for _, p := range parts[1:] {
		if p.chunking.Size != size {
			size = ResidentChunkRows
		}
	}
	cols := make([]Column, schema.NumFields())
	for ci := range cols {
		col, err := concatColumn(schema.Field(ci), parts, ci, rows)
		if err != nil {
			return nil, fmt.Errorf("storage: concat column %q: %w", schema.Field(ci).Name, err)
		}
		cols[ci] = col
	}
	out := &Table{name: name, schema: schema, cols: cols, rows: rows}
	return out.chunked(size), nil
}

func describeSchema(s *Schema) string {
	out := "("
	for i, f := range s.fields {
		if i > 0 {
			out += ", "
		}
		out += f.Name + " " + f.Type.String()
	}
	return out + ")"
}

// concatNulls assembles the concatenated null bitmap of column ci across
// parts, or nil when no part has nulls.
func concatNulls(parts []*Table, ci, rows int) *bitvec.Vector {
	any := false
	for _, p := range parts {
		if p.cols[ci].NullCount() > 0 {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	out := bitvec.New(rows)
	off := 0
	for _, p := range parts {
		if pv := nullsOf(p.cols[ci]); pv != nil {
			out.OrBlit(off, pv)
		}
		off += p.rows
	}
	return out
}

func concatColumn(f Field, parts []*Table, ci, rows int) (Column, error) {
	nulls := concatNulls(parts, ci, rows)
	switch f.Type {
	case Int64:
		vals := make([]int64, 0, rows)
		for _, p := range parts {
			vals = append(vals, p.cols[ci].(*Int64Column).Values()...)
		}
		return NewInt64Column(vals, nulls), nil
	case Float64:
		vals := make([]float64, 0, rows)
		for _, p := range parts {
			vals = append(vals, p.cols[ci].(*Float64Column).Values()...)
		}
		return NewFloat64Column(vals, nulls), nil
	case Bool:
		vals := make([]bool, 0, rows)
		for _, p := range parts {
			vals = append(vals, p.cols[ci].(*BoolColumn).Values()...)
		}
		return NewBoolColumn(vals, nulls), nil
	case String:
		dict := parts[0].cols[ci].(*StringColumn).Dict()
		codes := make([]uint32, 0, rows)
		for _, p := range parts {
			sc := p.cols[ci].(*StringColumn)
			if !slices.Equal(sc.Dict(), dict) {
				return nil, fmt.Errorf("table %q holds a dictionary of %d values, table %q one of %d: parts must share one dictionary",
					p.name, len(sc.Dict()), parts[0].name, len(dict))
			}
			codes = append(codes, sc.Codes()...)
		}
		return &StringColumn{nullSet{nulls}, dict, codes}, nil
	default:
		return nil, fmt.Errorf("unsupported type %v", f.Type)
	}
}

// SliceRows returns a view of rows [lo, hi) of t under a new name. Value
// storage (and string dictionaries) is shared with t; only null bitmaps
// are re-packed when present. The view keeps t's chunk grid: when lo
// starts a chunk its zone maps are t's own, and otherwise they are
// computed from the view's first row on. It is the physical operator
// behind per-shard views of a reassembled sharded table.
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
