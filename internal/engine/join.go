package engine

import (
	"fmt"

	"repro/internal/storage"
)

// JoinFK materializes the inner equi-join of a fact table with a
// dimension table over a foreign key (Section 5.2: "materialize the join
// into one large temporary table"). The dimension key must be unique.
// Result columns are all fact columns followed by the dimension's non-key
// columns; a dimension column whose name collides with a fact column is
// prefixed with "<dimName>_".
func JoinFK(fact *storage.Table, factKey string, dim *storage.Table, dimKey string, resultName string) (*storage.Table, error) {
	fkCol, err := fact.ColumnByName(factKey)
	if err != nil {
		return nil, err
	}
	dkCol, err := dim.ColumnByName(dimKey)
	if err != nil {
		return nil, err
	}
	if fkCol.Type() != dkCol.Type() {
		return nil, fmt.Errorf("engine: join key type mismatch %v vs %v", fkCol.Type(), dkCol.Type())
	}
	// Joins probe key columns row by row; memory-tiered keys are
	// materialized once up front (the join output is materialized
	// anyway, so this adds no asymptotic memory).
	if fkCol, err = storage.MaterializeColumn(fkCol); err != nil {
		return nil, err
	}
	if dkCol, err = storage.MaterializeColumn(dkCol); err != nil {
		return nil, err
	}

	// Build hash index over the dimension key.
	lookup, err := buildKeyIndex(dkCol)
	if err != nil {
		return nil, fmt.Errorf("engine: indexing %s.%s: %w", dim.Name(), dimKey, err)
	}

	// Probe: for every fact row find the dimension row.
	factIdx := make([]int, 0, fact.NumRows())
	dimIdx := make([]int, 0, fact.NumRows())
	for i := 0; i < fact.NumRows(); i++ {
		if fkCol.IsNull(i) {
			continue // inner join drops null keys
		}
		j, ok := probeKey(lookup, fkCol, i)
		if !ok {
			continue
		}
		factIdx = append(factIdx, i)
		dimIdx = append(dimIdx, j)
	}

	// Assemble schema and gathered columns.
	var fields []storage.Field
	var cols []storage.Column
	for c := 0; c < fact.NumCols(); c++ {
		fields = append(fields, fact.Schema().Field(c))
		cols = append(cols, fact.Column(c).Gather(factIdx))
	}
	for c := 0; c < dim.NumCols(); c++ {
		f := dim.Schema().Field(c)
		if f.Name == dimKey {
			continue // key already present via the fact side
		}
		name := f.Name
		if fact.Schema().HasField(name) {
			name = dim.Name() + "_" + name
		}
		fields = append(fields, storage.Field{Name: name, Type: f.Type})
		cols = append(cols, dim.Column(c).Gather(dimIdx))
	}
	schema, err := storage.NewSchema(fields...)
	if err != nil {
		return nil, err
	}
	return storage.NewTable(resultName, schema, cols)
}

type keyIndex struct {
	ints map[int64]int
	strs map[string]int
}

func buildKeyIndex(col storage.Column) (*keyIndex, error) {
	idx := &keyIndex{}
	switch c := col.(type) {
	case *storage.Int64Column:
		idx.ints = make(map[int64]int, c.Len())
		for i := 0; i < c.Len(); i++ {
			if c.IsNull(i) {
				continue
			}
			k := c.At(i)
			if _, dup := idx.ints[k]; dup {
				return nil, fmt.Errorf("duplicate key %d", k)
			}
			idx.ints[k] = i
		}
	case *storage.StringColumn:
		idx.strs = make(map[string]int, c.Len())
		for i := 0; i < c.Len(); i++ {
			if c.IsNull(i) {
				continue
			}
			k := c.At(i)
			if _, dup := idx.strs[k]; dup {
				return nil, fmt.Errorf("duplicate key %q", k)
			}
			idx.strs[k] = i
		}
	default:
		return nil, fmt.Errorf("unsupported key type %v", col.Type())
	}
	return idx, nil
}

func probeKey(idx *keyIndex, col storage.Column, row int) (int, bool) {
	switch c := col.(type) {
	case *storage.Int64Column:
		j, ok := idx.ints[c.At(row)]
		return j, ok
	case *storage.StringColumn:
		j, ok := idx.strs[c.At(row)]
		return j, ok
	}
	return 0, false
}
