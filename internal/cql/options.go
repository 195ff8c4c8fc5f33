package cql

import (
	"fmt"

	"repro/internal/core"
)

// ApplyOptions overlays a statement's WITH clause onto a base pipeline
// configuration, validating the names against the engine's strategies.
// Unset fields keep the base values. SAMPLE picks the rows, not the
// pipeline: callers pass sample.Fraction to Cartographer.ExploreSample.
func ApplyOptions(base core.Options, o Options) (core.Options, error) {
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
		switch core.NumericCut(o.Cut) {
		case core.CutEquiWidth, core.CutMedian, core.CutVariance:
			out.Cut.Numeric = core.NumericCut(o.Cut)
		case "sketch":
			// Deprecated alias: the GK sketch approximated the median,
			// which an exact selection now computes faster.
			out.Cut.Numeric = core.CutMedian
		default:
			return core.Options{}, fmt.Errorf("cql: unknown CUT strategy %q (want equiwidth, median or variance)", o.Cut)
		}
	}
	if o.Merge != "" {
		switch core.MergeKind(o.Merge) {
		case core.MergeProduct, core.MergeCompose:
			out.Merge = core.MergeKind(o.Merge)
		default:
			return core.Options{}, fmt.Errorf("cql: unknown MERGE kind %q (want product or compose)", o.Merge)
		}
	}
	if o.Distance != "" {
		switch core.Distance(o.Distance) {
		case core.DistVI, core.DistNVI, core.DistNMI:
			out.Distance = core.Distance(o.Distance)
		default:
			return core.Options{}, fmt.Errorf("cql: unknown DISTANCE %q (want vi, nvi or nmi)", o.Distance)
		}
	}
	if o.Threshold > 0 {
		out.DependencyThreshold = o.Threshold
	}
	return out, nil
}
