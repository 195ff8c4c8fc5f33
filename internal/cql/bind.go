package cql

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/query"
	"repro/internal/storage"
)

// BindError reports a semantic error found while binding a statement to a
// schema (unknown column, type mismatch).
type BindError struct {
	Attr string
	Msg  string
}

func (e *BindError) Error() string {
	return fmt.Sprintf("cql: column %q: %s", e.Attr, e.Msg)
}

// bind type-checks the statement's query against the table schema and
// lowers it to an executable conjunctive query.
func bind(stmt *tree, t *storage.Table) (query.Query, error) {
	if stmt.Table != t.Name() {
		return query.Query{}, fmt.Errorf("cql: statement explores %q, table is %q", stmt.Table, t.Name())
	}
	q := query.New(t.Name())
	for _, p := range stmt.Preds {
		idx := t.Schema().Index(p.Attr())
		if idx < 0 {
			return query.Query{}, &BindError{p.Attr(), "no such column"}
		}
		typ := t.Schema().Field(idx).Type
		bound, err := bindPred(p, typ)
		if err != nil {
			return query.Query{}, err
		}
		q = q.And(bound)
	}
	return q, nil
}

func bindPred(p pred, typ storage.DataType) (query.Predicate, error) {
	switch v := p.(type) {
	case *rangePred:
		if !typ.IsNumeric() {
			return query.Predicate{}, &BindError{v.Name, fmt.Sprintf("range predicate needs a numeric column, found %v", typ)}
		}
		out := query.NewRange(v.Name, v.Lo, v.Hi)
		out.LoIncl, out.HiIncl = v.LoIncl, v.HiIncl
		return out, nil

	case *setPred:
		switch typ {
		case storage.String:
			return query.NewIn(v.Name, v.Values...), nil
		case storage.Int64, storage.Float64:
			// numeric IN-list: each value must parse as a number; lowered
			// to the tightest covering range when contiguous is not
			// expressible, so reject lists of more than one number unless
			// they are equal — honest conjunctive semantics need a union,
			// which the language (by design) cannot express.
			if len(v.Values) == 1 {
				x, err := strconv.ParseFloat(v.Values[0], 64)
				if err != nil {
					return query.Predicate{}, &BindError{v.Name, fmt.Sprintf("value %q is not numeric", v.Values[0])}
				}
				return query.NewRange(v.Name, x, x), nil
			}
			return query.Predicate{}, &BindError{v.Name, "numeric IN-lists with multiple values are not expressible as one conjunctive predicate; use a range [lo, hi]"}
		default:
			return query.Predicate{}, &BindError{v.Name, fmt.Sprintf("set predicate needs a categorical column, found %v", typ)}
		}

	case *cmpPred:
		if !typ.IsNumeric() {
			return query.Predicate{}, &BindError{v.Name, fmt.Sprintf("comparison needs a numeric column, found %v", typ)}
		}
		switch v.Op {
		case TokLt:
			out := query.NewRange(v.Name, math.Inf(-1), v.Val)
			out.HiIncl = false
			return out, nil
		case TokLe:
			return query.NewRange(v.Name, math.Inf(-1), v.Val), nil
		case TokGt:
			out := query.NewRange(v.Name, v.Val, math.Inf(1))
			out.LoIncl = false
			return out, nil
		default: // TokGe
			return query.NewRange(v.Name, v.Val, math.Inf(1)), nil
		}

	case *eqPred:
		switch typ {
		case storage.Int64, storage.Float64:
			if v.Kind != litNumber {
				return query.Predicate{}, &BindError{v.Name, "numeric column compared with non-numeric literal"}
			}
			return query.NewRange(v.Name, v.NumVal, v.NumVal), nil
		case storage.String:
			switch v.Kind {
			case litString:
				return query.NewIn(v.Name, v.StrVal), nil
			case litBool:
				return query.Predicate{}, &BindError{v.Name, "string column compared with boolean literal"}
			default:
				return query.Predicate{}, &BindError{v.Name, "string column compared with numeric literal"}
			}
		case storage.Bool:
			if v.Kind != litBool {
				return query.Predicate{}, &BindError{v.Name, "boolean column compared with non-boolean literal"}
			}
			return query.NewBoolEq(v.Name, v.BoolVal), nil
		}
	}
	return query.Predicate{}, fmt.Errorf("cql: unhandled predicate %T", p)
}
