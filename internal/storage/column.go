package storage

import (
	"fmt"
	"strconv"

	"repro/internal/bitvec"
)

// Column is a typed, immutable column of values with optional nulls.
// Implementations expose typed accessors for the hot paths; Value and
// Render are the generic, boxing accessors used at the edges (CSV, CLI,
// HTTP rendering).
type Column interface {
	// Type returns the column's data type.
	Type() DataType
	// Len returns the number of rows.
	Len() int
	// IsNull reports whether row i holds NULL.
	IsNull(i int) bool
	// NullCount returns the number of NULL rows.
	NullCount() int
	// Value returns the boxed value at row i, or nil for NULL.
	Value(i int) any
	// Render formats row i for display; NULL renders as the empty string.
	Render(i int) string
	// Gather returns a new column holding the rows at idx, in order.
	Gather(idx []int) Column
}

// nullSet is the shared validity representation: nil means "no nulls".
type nullSet struct {
	nulls *bitvec.Vector
}

func (n *nullSet) IsNull(i int) bool { return n.nulls != nil && n.nulls.Get(i) }

func (n *nullSet) NullCount() int {
	if n.nulls == nil {
		return 0
	}
	return n.nulls.Count()
}

func (n *nullSet) gatherNulls(idx []int, outLen int) *bitvec.Vector {
	if n.nulls == nil {
		return nil
	}
	out := bitvec.New(outLen)
	for o, i := range idx {
		if n.nulls.Get(i) {
			out.Set(o)
		}
	}
	if out.Count() == 0 {
		return nil
	}
	return out
}

// Int64Column holds 64-bit integers.
type Int64Column struct {
	nullSet
	vals []int64
}

// NewInt64Column wraps vals (not copied). nulls may be nil.
func NewInt64Column(vals []int64, nulls *bitvec.Vector) *Int64Column {
	checkNullLen(len(vals), nulls)
	return &Int64Column{nullSet{nulls}, vals}
}

// Type implements Column.
func (c *Int64Column) Type() DataType { return Int64 }

// Len implements Column.
func (c *Int64Column) Len() int { return len(c.vals) }

// Values returns the backing slice; callers must not modify it.
func (c *Int64Column) Values() []int64 { return c.vals }

// At returns the value at row i (undefined when NULL).
func (c *Int64Column) At(i int) int64 { return c.vals[i] }

// Value implements Column.
func (c *Int64Column) Value(i int) any {
	if c.IsNull(i) {
		return nil
	}
	return c.vals[i]
}

// Render implements Column.
func (c *Int64Column) Render(i int) string {
	if c.IsNull(i) {
		return ""
	}
	return strconv.FormatInt(c.vals[i], 10)
}

// Gather implements Column.
func (c *Int64Column) Gather(idx []int) Column {
	out := make([]int64, len(idx))
	for o, i := range idx {
		out[o] = c.vals[i]
	}
	return NewInt64Column(out, c.gatherNulls(idx, len(idx)))
}

// Float64Column holds 64-bit floats.
type Float64Column struct {
	nullSet
	vals []float64
}

// NewFloat64Column wraps vals (not copied). nulls may be nil.
func NewFloat64Column(vals []float64, nulls *bitvec.Vector) *Float64Column {
	checkNullLen(len(vals), nulls)
	return &Float64Column{nullSet{nulls}, vals}
}

// Type implements Column.
func (c *Float64Column) Type() DataType { return Float64 }

// Len implements Column.
func (c *Float64Column) Len() int { return len(c.vals) }

// Values returns the backing slice; callers must not modify it.
func (c *Float64Column) Values() []float64 { return c.vals }

// At returns the value at row i (undefined when NULL).
func (c *Float64Column) At(i int) float64 { return c.vals[i] }

// Value implements Column.
func (c *Float64Column) Value(i int) any {
	if c.IsNull(i) {
		return nil
	}
	return c.vals[i]
}

// Render implements Column.
func (c *Float64Column) Render(i int) string {
	if c.IsNull(i) {
		return ""
	}
	return strconv.FormatFloat(c.vals[i], 'g', -1, 64)
}

// Gather implements Column.
func (c *Float64Column) Gather(idx []int) Column {
	out := make([]float64, len(idx))
	for o, i := range idx {
		out[o] = c.vals[i]
	}
	return NewFloat64Column(out, c.gatherNulls(idx, len(idx)))
}

// BoolColumn holds booleans.
type BoolColumn struct {
	nullSet
	vals []bool
}

// NewBoolColumn wraps vals (not copied). nulls may be nil.
func NewBoolColumn(vals []bool, nulls *bitvec.Vector) *BoolColumn {
	checkNullLen(len(vals), nulls)
	return &BoolColumn{nullSet{nulls}, vals}
}

// Type implements Column.
func (c *BoolColumn) Type() DataType { return Bool }

// Len implements Column.
func (c *BoolColumn) Len() int { return len(c.vals) }

// Values returns the backing slice; callers must not modify it.
func (c *BoolColumn) Values() []bool { return c.vals }

// Value implements Column.
func (c *BoolColumn) Value(i int) any {
	if c.IsNull(i) {
		return nil
	}
	return c.vals[i]
}

// Render implements Column.
func (c *BoolColumn) Render(i int) string {
	if c.IsNull(i) {
		return ""
	}
	return strconv.FormatBool(c.vals[i])
}

// Gather implements Column.
func (c *BoolColumn) Gather(idx []int) Column {
	out := make([]bool, len(idx))
	for o, i := range idx {
		out[o] = c.vals[i]
	}
	return NewBoolColumn(out, c.gatherNulls(idx, len(idx)))
}

// StringColumn is dictionary-encoded: each row stores a code into a shared
// dictionary of distinct values. This is the layout a column store gives
// categorical attributes and what makes frequency-based cuts cheap.
type StringColumn struct {
	nullSet
	dict  []string
	codes []uint32
}

// NewStringColumn builds a dictionary-encoded column from raw values.
// nulls may be nil.
func NewStringColumn(vals []string, nulls *bitvec.Vector) *StringColumn {
	checkNullLen(len(vals), nulls)
	index := make(map[string]uint32)
	codes := make([]uint32, len(vals))
	var dict []string
	for i, v := range vals {
		if nulls != nil && nulls.Get(i) {
			continue // code 0 placeholder; never read
		}
		code, ok := index[v]
		if !ok {
			code = uint32(len(dict))
			index[v] = code
			dict = append(dict, v)
		}
		codes[i] = code
	}
	return &StringColumn{nullSet{nulls}, dict, codes}
}

// NewStringColumnFromDict wraps a pre-encoded column. Every code must be a
// valid dictionary index.
func NewStringColumnFromDict(dict []string, codes []uint32, nulls *bitvec.Vector) *StringColumn {
	checkNullLen(len(codes), nulls)
	for i, c := range codes {
		if int(c) >= len(dict) && (nulls == nil || !nulls.Get(i)) {
			panic(fmt.Sprintf("storage: code %d out of dictionary range %d at row %d", c, len(dict), i))
		}
	}
	return &StringColumn{nullSet{nulls}, dict, codes}
}

// Type implements Column.
func (c *StringColumn) Type() DataType { return String }

// Len implements Column.
func (c *StringColumn) Len() int { return len(c.codes) }

// Dict returns the dictionary; callers must not modify it.
func (c *StringColumn) Dict() []string { return c.dict }

// Codes returns the per-row dictionary codes; callers must not modify it.
func (c *StringColumn) Codes() []uint32 { return c.codes }

// Cardinality returns the number of distinct non-null values.
func (c *StringColumn) Cardinality() int { return len(c.dict) }

// At returns the string at row i (undefined when NULL).
func (c *StringColumn) At(i int) string { return c.dict[c.codes[i]] }

// Value implements Column.
func (c *StringColumn) Value(i int) any {
	if c.IsNull(i) {
		return nil
	}
	return c.dict[c.codes[i]]
}

// Render implements Column.
func (c *StringColumn) Render(i int) string {
	if c.IsNull(i) {
		return ""
	}
	return c.dict[c.codes[i]]
}

// Gather implements Column.
func (c *StringColumn) Gather(idx []int) Column {
	codes := make([]uint32, len(idx))
	for o, i := range idx {
		codes[o] = c.codes[i]
	}
	// Dictionary is shared: it stays valid for any subset.
	return &StringColumn{nullSet{c.gatherNulls(idx, len(idx))}, c.dict, codes}
}

func checkNullLen(n int, nulls *bitvec.Vector) {
	if nulls != nil && nulls.Len() != n {
		panic(fmt.Sprintf("storage: null bitmap length %d != column length %d", nulls.Len(), n))
	}
}
