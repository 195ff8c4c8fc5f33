package storage

import (
	"fmt"

	"repro/internal/bitvec"
)

// Table is an immutable collection of equal-length columns with a schema.
type Table struct {
	name   string
	schema *Schema
	cols   []Column
	rows   int
	// chunking carries the table's chunk grid and per-chunk zone maps
	// (see chunk.go): a store's, or for a table built from resident
	// columns its own, computed at construction.
	chunking *Chunking
	// runs holds, per resident column, its run payloads on the chunk
	// grid, built once with the table; nil for a lazy column.
	runs [][]ChunkPayload
}

// NewTable assembles a table from resident columns and computes its zone
// maps over ResidentChunkRows-row chunks. All columns must match the
// schema's types and share one length; a lazy column's table comes from
// NewChunkedTable, with the chunking its store wrote.
func NewTable(name string, schema *Schema, cols []Column) (*Table, error) {
	t, err := newTable(name, schema, cols)
	if err != nil {
		return nil, err
	}
	for i, c := range cols {
		if _, lazy := c.(*LazyColumn); lazy {
			return nil, fmt.Errorf("storage: column %q is lazy; its table needs the store's chunking (NewChunkedTable)", schema.Field(i).Name)
		}
	}
	return t.chunked(ResidentChunkRows), nil
}

// newTable checks that cols fit the schema and share one length and
// returns their table, not yet chunked.
func newTable(name string, schema *Schema, cols []Column) (*Table, error) {
	if len(cols) != schema.NumFields() {
		return nil, fmt.Errorf("storage: %d columns for %d fields", len(cols), schema.NumFields())
	}
	rows := 0
	for i, c := range cols {
		f := schema.Field(i)
		if c.Type() != f.Type {
			return nil, fmt.Errorf("storage: column %q has type %v, schema says %v", f.Name, c.Type(), f.Type)
		}
		if i == 0 {
			rows = c.Len()
		} else if c.Len() != rows {
			return nil, fmt.Errorf("storage: column %q has %d rows, expected %d", f.Name, c.Len(), rows)
		}
	}
	return &Table{name: name, schema: schema, cols: cols, rows: rows}, nil
}

// MustTable is NewTable that panics on error; for tests and generators.
func MustTable(name string, schema *Schema, cols []Column) *Table {
	t, err := NewTable(name, schema, cols)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.rows }

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.cols) }

// Column returns the i-th column.
func (t *Table) Column(i int) Column { return t.cols[i] }

// ColumnByName returns the named column, or an error if absent.
func (t *Table) ColumnByName(name string) (Column, error) {
	i := t.schema.Index(name)
	if i < 0 {
		return nil, fmt.Errorf("storage: table %q has no column %q", t.name, name)
	}
	return t.cols[i], nil
}

// Gather materializes a new table holding the given rows, in order,
// with zone maps of its own.
func (t *Table) Gather(name string, idx []int) *Table {
	cols := make([]Column, len(t.cols))
	for i, c := range t.cols {
		cols[i] = c.Gather(idx)
	}
	out := &Table{name: name, schema: t.schema, cols: cols, rows: len(idx)}
	return out.chunked(ResidentChunkRows)
}

// Project returns a table restricted to the named columns, sharing column
// storage with the original.
func (t *Table) Project(name string, colNames ...string) (*Table, error) {
	fields := make([]Field, 0, len(colNames))
	cols := make([]Column, 0, len(colNames))
	for _, cn := range colNames {
		i := t.schema.Index(cn)
		if i < 0 {
			return nil, fmt.Errorf("storage: table %q has no column %q", t.name, cn)
		}
		fields = append(fields, t.schema.Field(i))
		cols = append(cols, t.cols[i])
	}
	s, err := NewSchema(fields...)
	if err != nil {
		return nil, err
	}
	out, err := newTable(name, s, cols)
	if err != nil {
		return nil, err
	}
	// A projection keeps row order, so per-column chunk metadata and run
	// payloads stay valid for the surviving columns.
	out.chunking = &Chunking{Size: t.chunking.Size, Zones: make([][]ZoneMap, 0, len(colNames))}
	out.runs = make([][]ChunkPayload, 0, len(colNames))
	for _, cn := range colNames {
		i := t.schema.Index(cn)
		out.chunking.Zones = append(out.chunking.Zones, t.chunking.Zones[i])
		out.runs = append(out.runs, t.runs[i])
	}
	return out, nil
}

// Rename returns the same table under a new name (columns shared).
func (t *Table) Rename(name string) *Table {
	out := *t
	out.name = name
	return &out
}

// Builder accumulates rows and produces a Table. It is the row-oriented
// ingestion path (CSV, generators, tests); analysis always runs columnar.
type Builder struct {
	schema  *Schema
	name    string
	ints    map[int][]int64
	floats  map[int][]float64
	strs    map[int][]string
	bools   map[int][]bool
	nulls   map[int][]int // row indexes that are null, per column
	numRows int
}

// NewBuilder creates a builder for the given table name and schema.
func NewBuilder(name string, schema *Schema) *Builder {
	b := &Builder{
		schema: schema, name: name,
		ints: map[int][]int64{}, floats: map[int][]float64{},
		strs: map[int][]string{}, bools: map[int][]bool{},
		nulls: map[int][]int{},
	}
	return b
}

// AppendRow appends one row. vals must have one entry per schema field;
// nil means NULL. Accepted dynamic types: int, int64, float64, string,
// bool (ints are accepted for Float64 fields and widened).
func (b *Builder) AppendRow(vals ...any) error {
	if len(vals) != b.schema.NumFields() {
		return fmt.Errorf("storage: AppendRow got %d values for %d fields", len(vals), b.schema.NumFields())
	}
	for i, v := range vals {
		f := b.schema.Field(i)
		if v == nil {
			b.nulls[i] = append(b.nulls[i], b.numRows)
			// placeholder value keeps slices aligned
			switch f.Type {
			case Int64:
				b.ints[i] = append(b.ints[i], 0)
			case Float64:
				b.floats[i] = append(b.floats[i], 0)
			case String:
				b.strs[i] = append(b.strs[i], "")
			case Bool:
				b.bools[i] = append(b.bools[i], false)
			}
			continue
		}
		switch f.Type {
		case Int64:
			switch x := v.(type) {
			case int:
				b.ints[i] = append(b.ints[i], int64(x))
			case int64:
				b.ints[i] = append(b.ints[i], x)
			default:
				return typeErr(f, v)
			}
		case Float64:
			switch x := v.(type) {
			case float64:
				b.floats[i] = append(b.floats[i], x)
			case int:
				b.floats[i] = append(b.floats[i], float64(x))
			case int64:
				b.floats[i] = append(b.floats[i], float64(x))
			default:
				return typeErr(f, v)
			}
		case String:
			x, ok := v.(string)
			if !ok {
				return typeErr(f, v)
			}
			b.strs[i] = append(b.strs[i], x)
		case Bool:
			x, ok := v.(bool)
			if !ok {
				return typeErr(f, v)
			}
			b.bools[i] = append(b.bools[i], x)
		}
	}
	b.numRows++
	return nil
}

// MustAppendRow is AppendRow that panics on error.
func (b *Builder) MustAppendRow(vals ...any) {
	if err := b.AppendRow(vals...); err != nil {
		panic(err)
	}
}

func typeErr(f Field, v any) error {
	return fmt.Errorf("storage: field %q (%v) cannot hold %T", f.Name, f.Type, v)
}

// NumRows returns the number of rows appended so far.
func (b *Builder) NumRows() int { return b.numRows }

// Build finalizes the table.
func (b *Builder) Build() (*Table, error) {
	cols := make([]Column, b.schema.NumFields())
	for i := 0; i < b.schema.NumFields(); i++ {
		var nulls *bitvec.Vector
		if rows := b.nulls[i]; len(rows) > 0 {
			nulls = bitvec.FromIndexes(b.numRows, rows)
		}
		switch b.schema.Field(i).Type {
		case Int64:
			cols[i] = NewInt64Column(padInt(b.ints[i], b.numRows), nulls)
		case Float64:
			cols[i] = NewFloat64Column(padFloat(b.floats[i], b.numRows), nulls)
		case String:
			cols[i] = NewStringColumn(padStr(b.strs[i], b.numRows), nulls)
		case Bool:
			cols[i] = NewBoolColumn(padBool(b.bools[i], b.numRows), nulls)
		}
	}
	return NewTable(b.name, b.schema, cols)
}

// MustBuild is Build that panics on error.
func (b *Builder) MustBuild() *Table {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

func padInt(v []int64, n int) []int64 {
	for len(v) < n {
		v = append(v, 0)
	}
	return v
}
func padFloat(v []float64, n int) []float64 {
	for len(v) < n {
		v = append(v, 0)
	}
	return v
}
func padStr(v []string, n int) []string {
	for len(v) < n {
		v = append(v, "")
	}
	return v
}
func padBool(v []bool, n int) []bool {
	for len(v) < n {
		v = append(v, false)
	}
	return v
}
