// Package query defines the logical query model of Atlas: predicates over
// single attributes and conjunctive queries (Section 3 of the paper:
// Q = P1 ∧ … ∧ PN). Regions of a data map are conjunctive queries; the
// engine package evaluates them against columnar tables.
package query

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// PredKind discriminates predicate shapes.
type PredKind int

const (
	// Range is a numeric interval predicate attr ∈ [Lo, Hi] with
	// configurable endpoint inclusion.
	Range PredKind = iota
	// In is a categorical set predicate attr ∈ {v1, …, vk}.
	In
	// BoolEq is a boolean equality predicate attr = true/false.
	BoolEq
)

// String returns the kind name.
func (k PredKind) String() string {
	switch k {
	case Range:
		return "range"
	case In:
		return "in"
	case BoolEq:
		return "bool"
	default:
		return fmt.Sprintf("PredKind(%d)", int(k))
	}
}

// Predicate restricts a single attribute. NULL rows never satisfy a
// predicate (SQL semantics).
type Predicate struct {
	Attr string
	Kind PredKind

	// Range fields: interval endpoints and their inclusivity.
	Lo, Hi         float64
	LoIncl, HiIncl bool

	// In field: the admitted values, kept sorted and deduplicated.
	Values []string

	// BoolEq field.
	BoolVal bool
}

// NewRange returns a closed interval predicate attr ∈ [lo, hi].
func NewRange(attr string, lo, hi float64) Predicate {
	return Predicate{Attr: attr, Kind: Range, Lo: lo, Hi: hi, LoIncl: true, HiIncl: true}
}

// NewRangeHalfOpen returns attr ∈ [lo, hi) — the shape CUT uses for all
// but the last sub-interval so that siblings never overlap.
func NewRangeHalfOpen(attr string, lo, hi float64) Predicate {
	return Predicate{Attr: attr, Kind: Range, Lo: lo, Hi: hi, LoIncl: true, HiIncl: false}
}

// NewIn returns a set predicate attr ∈ values. Values are copied, sorted
// and deduplicated.
func NewIn(attr string, values ...string) Predicate {
	vs := append([]string(nil), values...)
	sort.Strings(vs)
	vs = dedupSorted(vs)
	return Predicate{Attr: attr, Kind: In, Values: vs}
}

// NewBoolEq returns the predicate attr = v.
func NewBoolEq(attr string, v bool) Predicate {
	return Predicate{Attr: attr, Kind: BoolEq, BoolVal: v}
}

func dedupSorted(vs []string) []string {
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || v != vs[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// MatchFloat reports whether a numeric value satisfies a Range predicate.
// NaN is unordered and, like NULL, satisfies no range.
func (p Predicate) MatchFloat(v float64) bool {
	if p.Kind != Range {
		return false
	}
	return (v > p.Lo || (v == p.Lo && p.LoIncl)) && (v < p.Hi || (v == p.Hi && p.HiIncl))
}

// MatchString reports whether a categorical value satisfies an In
// predicate.
func (p Predicate) MatchString(v string) bool {
	if p.Kind != In {
		return false
	}
	i := sort.SearchStrings(p.Values, v)
	return i < len(p.Values) && p.Values[i] == v
}

// MatchBool reports whether a boolean value satisfies a BoolEq predicate.
func (p Predicate) MatchBool(v bool) bool { return p.Kind == BoolEq && p.BoolVal == v }

// Empty reports whether the predicate can never match: an inverted or
// degenerate-open range, or an empty value set.
func (p Predicate) Empty() bool {
	switch p.Kind {
	case Range:
		if p.Lo > p.Hi {
			return true
		}
		return p.Lo == p.Hi && !(p.LoIncl && p.HiIncl)
	case In:
		return len(p.Values) == 0
	default:
		return false
	}
}

// String renders the predicate in CQL syntax.
func (p Predicate) String() string { return string(p.appendText(nil)) }

// appendText appends the predicate's CQL text to b.
func (p Predicate) appendText(b []byte) []byte {
	switch p.Kind {
	case Range:
		b = append(b, p.Attr...)
		if p.LoIncl {
			b = append(b, " IN ["...)
		} else {
			b = append(b, " IN ("...)
		}
		b = appendNum(b, p.Lo)
		b = append(b, ", "...)
		b = appendNum(b, p.Hi)
		if p.HiIncl {
			return append(b, ']')
		}
		return append(b, ')')
	case In:
		b = append(b, p.Attr...)
		b = append(b, " IN {"...)
		for i, v := range p.Values {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = appendQuoted(b, v)
		}
		return append(b, '}')
	case BoolEq:
		b = append(b, p.Attr...)
		b = append(b, " = "...)
		return strconv.AppendBool(b, p.BoolVal)
	default:
		b = append(b, "<invalid predicate on "...)
		b = append(b, p.Attr...)
		return append(b, '>')
	}
}

// appendNum renders integral values below 1e15 as integers and every
// other value in the shortest 'g' form that round-trips.
func appendNum(b []byte, v float64) []byte {
	if v == math.Floor(v) && math.Abs(v) < 1e15 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendQuoted appends v as a CQL string literal: single quotes, with
// embedded quotes doubled.
func appendQuoted(b []byte, v string) []byte {
	b = append(b, '\'')
	for {
		i := strings.IndexByte(v, '\'')
		if i < 0 {
			break
		}
		b = append(b, v[:i+1]...)
		b = append(b, '\'')
		v = v[i+1:]
	}
	b = append(b, v...)
	return append(b, '\'')
}

// Equal reports semantic equality of two predicates.
func (p Predicate) Equal(o Predicate) bool {
	if p.Attr != o.Attr || p.Kind != o.Kind {
		return false
	}
	switch p.Kind {
	case Range:
		return p.Lo == o.Lo && p.Hi == o.Hi && p.LoIncl == o.LoIncl && p.HiIncl == o.HiIncl
	case In:
		if len(p.Values) != len(o.Values) {
			return false
		}
		for i := range p.Values {
			if p.Values[i] != o.Values[i] {
				return false
			}
		}
		return true
	case BoolEq:
		return p.BoolVal == o.BoolVal
	}
	return false
}

// Query is a conjunction of predicates over one table
// (Q = P1 ∧ … ∧ PN, Section 3).
type Query struct {
	Table string
	Preds []Predicate
}

// New returns a query over the named table with the given predicates.
func New(table string, preds ...Predicate) Query {
	return Query{Table: table, Preds: append([]Predicate(nil), preds...)}
}

// And returns a copy of q extended with p.
func (q Query) And(p Predicate) Query {
	preds := make([]Predicate, len(q.Preds)+1)
	copy(preds, q.Preds)
	preds[len(q.Preds)] = p
	return Query{Table: q.Table, Preds: preds}
}

// ReplacePred returns a copy of q with the predicate at index i replaced.
func (q Query) ReplacePred(i int, p Predicate) Query {
	preds := append([]Predicate(nil), q.Preds...)
	preds[i] = p
	return Query{Table: q.Table, Preds: preds}
}

// PredOn returns the index of the first predicate on attr, or -1.
func (q Query) PredOn(attr string) int {
	for i, p := range q.Preds {
		if p.Attr == attr {
			return i
		}
	}
	return -1
}

// Attrs returns the distinct attributes the query constrains, in first-use
// order.
func (q Query) Attrs() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range q.Preds {
		if !seen[p.Attr] {
			seen[p.Attr] = true
			out = append(out, p.Attr)
		}
	}
	return out
}

// NumPreds returns the number of predicates.
func (q Query) NumPreds() int { return len(q.Preds) }

// Empty reports whether any single predicate is unsatisfiable. (A
// conjunction with contradictory predicates over the same attribute may
// still be non-empty per this check; the engine resolves those by
// evaluation.)
func (q Query) Empty() bool {
	for _, p := range q.Preds {
		if p.Empty() {
			return true
		}
	}
	return false
}

// String renders the query in CQL syntax.
func (q Query) String() string {
	n := len("EXPLORE ") + len(q.Table) + len(" WHERE ")
	for _, p := range q.Preds {
		n += len(p.Attr) + 56 + len(" AND ")
	}
	b := make([]byte, 0, n)
	b = append(b, "EXPLORE "...)
	if q.Table == "" {
		b = append(b, '?')
	} else {
		b = append(b, q.Table...)
	}
	for i, p := range q.Preds {
		if i == 0 {
			b = append(b, " WHERE "...)
		} else {
			b = append(b, " AND "...)
		}
		b = p.appendText(b)
	}
	return string(b)
}

// Equal reports semantic equality (same table, same predicates in order).
func (q Query) Equal(o Query) bool {
	if q.Table != o.Table || len(q.Preds) != len(o.Preds) {
		return false
	}
	for i := range q.Preds {
		if !q.Preds[i].Equal(o.Preds[i]) {
			return false
		}
	}
	return true
}
