package cql

import (
	"fmt"
	"strconv"
	"strings"
)

// Statement is a parsed EXPLORE statement, before binding to a schema.
type Statement struct {
	// Table is the explored table name.
	Table string
	// Preds is the WHERE conjunction, in source order.
	Preds []Pred
	// Options holds the WITH clause, zero-valued fields meaning unset.
	Options Options
}

// Options carries the WITH clause knobs that map onto the pipeline
// configuration.
type Options struct {
	Maps       int     // WITH MAPS n
	Regions    int     // WITH REGIONS n
	Predicates int     // WITH PREDICATES n
	Splits     int     // WITH SPLITS n
	Cut        string  // WITH CUT median|equiwidth|variance (sketch: alias of median)
	Merge      string  // WITH MERGE compose|product
	Distance   string  // WITH DISTANCE vi|nvi|nmi
	Threshold  float64 // WITH THRESHOLD x (0 = unset)
	Sample     float64 // WITH SAMPLE fraction (0 = unset)
}

// Pred is one syntactic predicate. Exactly one concrete type implements
// each form.
type Pred interface {
	// Attr returns the attribute the predicate constrains.
	Attr() string
	// String renders the predicate in CQL syntax.
	String() string
}

// RangePred is `attr BETWEEN lo AND hi` or `attr IN [lo, hi)`.
type RangePred struct {
	Name           string
	Lo, Hi         float64
	LoIncl, HiIncl bool
	Pos            int
}

// Attr implements Pred.
func (p *RangePred) Attr() string { return p.Name }

func (p *RangePred) String() string {
	lb, rb := "[", "]"
	if !p.LoIncl {
		lb = "("
	}
	if !p.HiIncl {
		rb = ")"
	}
	return fmt.Sprintf("%s IN %s%s, %s%s", p.Name, lb, num(p.Lo), num(p.Hi), rb)
}

// SetPred is `attr IN ('a', 'b')` or `attr IN {'a', 'b'}`.
type SetPred struct {
	Name   string
	Values []string
	Pos    int
}

// Attr implements Pred.
func (p *SetPred) Attr() string { return p.Name }

func (p *SetPred) String() string {
	parts := make([]string, len(p.Values))
	for i, v := range p.Values {
		parts[i] = "'" + strings.ReplaceAll(v, "'", "''") + "'"
	}
	return fmt.Sprintf("%s IN {%s}", p.Name, strings.Join(parts, ", "))
}

// CmpPred is `attr < v`, `attr <= v`, `attr > v`, `attr >= v` for
// numeric v.
type CmpPred struct {
	Name string
	Op   TokenKind // TokLt, TokLe, TokGt, TokGe
	Val  float64
	Pos  int
}

// Attr implements Pred.
func (p *CmpPred) Attr() string { return p.Name }

func (p *CmpPred) String() string {
	op := map[TokenKind]string{TokLt: "<", TokLe: "<=", TokGt: ">", TokGe: ">="}[p.Op]
	return fmt.Sprintf("%s %s %s", p.Name, op, num(p.Val))
}

// EqPred is `attr = literal` where the literal is a number, string or
// boolean.
type EqPred struct {
	Name string
	// exactly one of the following is meaningful, per Kind
	Kind    LitKind
	NumVal  float64
	StrVal  string
	BoolVal bool
	Pos     int
}

// LitKind classifies EqPred literals.
type LitKind int

// Literal kinds.
const (
	LitNumber LitKind = iota
	LitString
	LitBool
)

// Attr implements Pred.
func (p *EqPred) Attr() string { return p.Name }

func (p *EqPred) String() string {
	switch p.Kind {
	case LitNumber:
		return fmt.Sprintf("%s = %s", p.Name, num(p.NumVal))
	case LitString:
		return fmt.Sprintf("%s = '%s'", p.Name, strings.ReplaceAll(p.StrVal, "'", "''"))
	default:
		return fmt.Sprintf("%s = %t", p.Name, p.BoolVal)
	}
}

// String renders the statement in parseable CQL.
func (s *Statement) String() string {
	var b strings.Builder
	b.WriteString("EXPLORE ")
	b.WriteString(s.Table)
	if len(s.Preds) > 0 {
		b.WriteString(" WHERE ")
		parts := make([]string, len(s.Preds))
		for i, p := range s.Preds {
			parts[i] = p.String()
		}
		b.WriteString(strings.Join(parts, " AND "))
	}
	b.WriteString(s.Options.String())
	return b.String()
}

// String renders the WITH clause canonically, with a leading space, or
// "" when no option is set.
func (o Options) String() string {
	var parts []string
	if o.Maps > 0 {
		parts = append(parts, fmt.Sprintf("MAPS %d", o.Maps))
	}
	if o.Regions > 0 {
		parts = append(parts, fmt.Sprintf("REGIONS %d", o.Regions))
	}
	if o.Predicates > 0 {
		parts = append(parts, fmt.Sprintf("PREDICATES %d", o.Predicates))
	}
	if o.Splits > 0 {
		parts = append(parts, fmt.Sprintf("SPLITS %d", o.Splits))
	}
	if o.Cut != "" {
		parts = append(parts, "CUT "+o.Cut)
	}
	if o.Merge != "" {
		parts = append(parts, "MERGE "+o.Merge)
	}
	if o.Distance != "" {
		parts = append(parts, "DISTANCE "+o.Distance)
	}
	if o.Threshold > 0 {
		parts = append(parts, "THRESHOLD "+num(o.Threshold))
	}
	if o.Sample > 0 {
		parts = append(parts, "SAMPLE "+num(o.Sample))
	}
	if len(parts) == 0 {
		return ""
	}
	return " WITH " + strings.Join(parts, " ")
}

func num(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
