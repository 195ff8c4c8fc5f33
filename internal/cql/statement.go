package cql

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/sample"
	"repro/internal/storage"
)

// Statement is one bound EXPLORE statement: the query it explores and
// the WITH clause it runs under, whose values the pipeline accepts.
type Statement struct {
	Query query.Query
	With  Options
}

// Parse lexes, parses and binds one EXPLORE statement against t: the
// query is type-checked against t's schema, and each WITH value must be
// one the pipeline runs under (the deprecated CUT sketch reads as
// median).
func Parse(input string, t *storage.Table) (Statement, error) {
	s, err := parse(input)
	if err != nil {
		return Statement{}, err
	}
	q, err := bind(s, t)
	if err != nil {
		return Statement{}, err
	}
	with, err := bindOptions(s.Options)
	if err != nil {
		return Statement{}, err
	}
	return Statement{Query: q, With: with}, nil
}

// String renders the statement canonically: its query's text, then its
// WITH clause. It is the input a response to the statement echoes.
func (st Statement) String() string { return st.Query.String() + st.With.String() }

// Key returns st's result-cache key on a Cartographer whose options are
// base: its query's text, then the WITH options whose values differ
// from base's. A statement whose clause restates base's values runs the
// same pipeline as its plain query, and shares its key.
func (st Statement) Key(base core.Options) string {
	return st.Query.String() + st.With.except(base).String()
}

// except returns o less the options that restate base's values. SAMPLE
// is kept: it picks the rows, not the pipeline.
func (o Options) except(base core.Options) Options {
	if o.Maps == base.MaxMaps {
		o.Maps = 0
	}
	if o.Regions == base.MaxRegions {
		o.Regions = 0
	}
	if o.Predicates == base.MaxPredicates {
		o.Predicates = 0
	}
	if o.Splits == base.Cut.Splits {
		o.Splits = 0
	}
	if core.NumericCut(o.Cut) == base.Cut.Numeric {
		o.Cut = ""
	}
	if core.MergeKind(o.Merge) == base.Merge {
		o.Merge = ""
	}
	if core.Distance(o.Distance) == base.Distance {
		o.Distance = ""
	}
	if o.Threshold == base.DependencyThreshold {
		o.Threshold = 0
	}
	return o
}

// ErrWithClause rejects a WITH clause given to a caller that runs the
// statement under options of its own (a session, the anytime rounds),
// or a WITH option other than SAMPLE given to a plan.
var ErrWithClause = errors.New("cql: WITH options are not accepted here")

// Plain returns the statement's query for those callers: a statement
// with a WITH clause fails with ErrWithClause, naming the clause.
func (st Statement) Plain() (query.Query, error) {
	if st.With != (Options{}) {
		return query.Query{}, fmt.Errorf("%w:%s", ErrWithClause, st.With)
	}
	return st.Query, nil
}

// Scan returns what st's base scan reads over a table of rows rows: its
// query, and under WITH SAMPLE f the sample's rows (nil for every row) —
// the plan EXPLAIN reports. Any other WITH option shapes the pipeline,
// not the scan, and fails with ErrWithClause rather than being dropped.
func (st Statement) Scan(rows int) (query.Query, *bitvec.Vector, error) {
	plain := st
	plain.With.Sample = 0
	if _, err := plain.Plain(); err != nil {
		return query.Query{}, nil, err
	}
	return st.Query, st.sample(rows), nil
}

// sample returns the rows WITH SAMPLE f explores over a table of rows
// rows, nil without a sample.
func (st Statement) sample(rows int) *bitvec.Vector {
	if st.With.Sample > 0 {
		return sample.Fraction(rows, st.With.Sample)
	}
	return nil
}

// ParseAndBind is Parse, returning the statement's parts.
//
// Deprecated: use Parse. bench/layers.go still calls it.
func ParseAndBind(input string, t *storage.Table) (query.Query, Options, error) {
	st, err := Parse(input, t)
	return st.Query, st.With, err
}

// Explore runs st on c, the table's one Cartographer: st's WITH clause
// overrides c's options for this call on a view that shares c's
// full-selection cut memo (core.Cartographer.With), and WITH SAMPLE f
// explores a uniform f-fraction of the rows (see internal/sample). Every
// runner of a statement calls it.
func Explore(ctx context.Context, c *core.Cartographer, st Statement) (*core.Result, error) {
	v, err := c.With(ApplyOptions(c.Options(), st.With))
	if err != nil {
		return nil, err
	}
	if s := st.sample(c.Table().NumRows()); s != nil {
		return v.ExploreSample(ctx, st.Query, s)
	}
	return v.ExploreCtx(ctx, st.Query)
}

// ApplyOptions overlays a statement's WITH clause, as Parse bound it,
// onto a base pipeline configuration: unset fields keep the base
// values. SAMPLE picks the rows, not the pipeline, and is left to
// Explore.
func ApplyOptions(base core.Options, o Options) core.Options {
	out := base
	if o.Maps > 0 {
		out.MaxMaps = o.Maps
	}
	if o.Regions > 0 {
		out.MaxRegions = o.Regions
	}
	if o.Predicates > 0 {
		out.MaxPredicates = o.Predicates
	}
	if o.Splits > 0 {
		out.Cut.Splits = o.Splits
	}
	if o.Cut != "" {
		out.Cut.Numeric = core.NumericCut(o.Cut)
	}
	if o.Merge != "" {
		out.Merge = core.MergeKind(o.Merge)
	}
	if o.Distance != "" {
		out.Distance = core.Distance(o.Distance)
	}
	if o.Threshold > 0 {
		out.DependencyThreshold = o.Threshold
	}
	return out
}

// bindOptions checks a WITH clause against the pipeline's own rules and
// returns it in canonical form. Each option is checked on its own, so
// overlaying the clause on the defaults and validating the result checks
// exactly the clause's values.
func bindOptions(o Options) (Options, error) {
	if o.Cut == "sketch" {
		// Deprecated alias: the GK sketch approximated the median, which
		// an exact selection now computes faster.
		o.Cut = string(core.CutMedian)
	}
	if err := ApplyOptions(core.DefaultOptions(), o).Validate(); err != nil {
		return Options{}, fmt.Errorf("cql: WITH%s: %w", o, err)
	}
	return o, nil
}
