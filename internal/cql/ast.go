package cql

import (
	"fmt"
	"strconv"
	"strings"
)

// tree is a parsed EXPLORE statement, before binding to a schema.
type tree struct {
	// Table is the explored table name.
	Table string
	// Preds is the WHERE conjunction, in source order.
	Preds []pred
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

// pred is one syntactic predicate. Exactly one concrete type implements
// each form.
type pred interface {
	// Attr returns the attribute the predicate constrains.
	Attr() string
}

// rangePred is `attr BETWEEN lo AND hi` or `attr IN [lo, hi)`.
type rangePred struct {
	Name           string
	Lo, Hi         float64
	LoIncl, HiIncl bool
}

// Attr implements pred.
func (p *rangePred) Attr() string { return p.Name }

// setPred is `attr IN ('a', 'b')` or `attr IN {'a', 'b'}`.
type setPred struct {
	Name   string
	Values []string
}

// Attr implements pred.
func (p *setPred) Attr() string { return p.Name }

// cmpPred is `attr < v`, `attr <= v`, `attr > v`, `attr >= v` for
// numeric v.
type cmpPred struct {
	Name string
	Op   TokenKind // TokLt, TokLe, TokGt, TokGe
	Val  float64
}

// Attr implements pred.
func (p *cmpPred) Attr() string { return p.Name }

// eqPred is `attr = literal` where the literal is a number, string or
// boolean.
type eqPred struct {
	Name string
	// exactly one of the following is meaningful, per Kind
	Kind    litKind
	NumVal  float64
	StrVal  string
	BoolVal bool
}

// litKind classifies eqPred literals.
type litKind int

// Literal kinds.
const (
	litNumber litKind = iota
	litString
	litBool
)

// Attr implements pred.
func (p *eqPred) Attr() string { return p.Name }

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
