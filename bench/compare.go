package main

import (
	"errors"
	"fmt"
	"io"
	"sort"
)

// verdict of one workload × end-to-end metric.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// worsening is the share of old by which cur is worse, in the metric's
// own direction (negative when it got better).
func worsening(d metricDecl, old, cur float64) float64 {
	if old == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (old - cur) / old
	}
	return (cur - old) / old
}

// judge compares one metric. noise is the run's own unsteadiness (the
// relative MAD of throughput over the measured phase's five segments, the
// larger of the two sides): when it is wider than the bound, a delta
// within it proves nothing either way.
func judge(d metricDecl, old, cur, noise float64) string {
	switch w := worsening(d, old, cur); {
	case noise > d.Bound:
		return verdictUnresolved
	case w > d.Bound:
		return verdictRegressed
	default:
		return verdictOK
	}
}

func relativeNoise(r *result) float64 {
	m := r.Metrics["ops_per_s"]
	if m.Value == 0 {
		return 0
	}
	return m.MAD / m.Value
}

// compareFiles prints, per workload and end-to-end metric, old, new,
// delta, bound and verdict, with the per-layer deltas beneath as
// attribution. It returns an error when anything regressed.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	old, err := readReport(oldPath)
	if err != nil {
		return err
	}
	cur, err := readReport(newPath)
	if err != nil {
		return err
	}
	if old.Smoke || cur.Smoke {
		return errors.New("refusing to compare -smoke output: it is not a measurement")
	}
	if old.Env.Rows != cur.Env.Rows || old.Env.Seconds != cur.Env.Seconds {
		return fmt.Errorf("reports were not run alike: rows %d vs %d, seconds %g vs %g", old.Env.Rows, cur.Env.Rows, old.Env.Seconds, cur.Env.Seconds)
	}
	regressed := 0
	for _, name := range workloadNames {
		o, c := old.Workloads[name], cur.Workloads[name]
		if o == nil || c == nil || o.EndToEnd == nil || c.EndToEnd == nil {
			fmt.Fprintf(w, "%s: missing on one side, skipped\n", name)
			continue
		}
		noise := max(relativeNoise(o.EndToEnd), relativeNoise(c.EndToEnd))
		fmt.Fprintf(w, "%s (segment MAD of throughput %.1f%%)\n", name, noise*100)
		fmt.Fprintf(w, "  %-22s %14s %14s %9s %7s  %s\n", "metric", "old", "new", "delta", "bound", "verdict")
		for _, d := range endToEndDecls {
			ov, cv := o.EndToEnd.Metrics[d.Name].Value, c.EndToEnd.Metrics[d.Name].Value
			v := judge(d, ov, cv, noise)
			if v == verdictRegressed {
				regressed++
			}
			delta := 0.0
			if ov != 0 {
				delta = (cv - ov) / ov
			}
			fmt.Fprintf(w, "  %-22s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n", d.Name, ov, cv, delta*100, d.Bound*100, v)
		}
		// Any increase in failures is a regression, whatever the noise.
		of := float64(o.EndToEnd.Failed) / float64(max(o.EndToEnd.Attempted, 1))
		cf := float64(c.EndToEnd.Failed) / float64(max(c.EndToEnd.Attempted, 1))
		v := verdictOK
		if cf > of {
			v = verdictRegressed
			regressed++
		}
		fmt.Fprintf(w, "  %-22s %14.6f %14.6f %9s %7s  %s\n", "fail_ratio", of, cf, "", "any", v)
		if o.PerLayer != nil && c.PerLayer != nil {
			fmt.Fprintln(w, "  per-layer (attribution only, never gated):")
			names := make([]string, 0, len(c.PerLayer.Metrics))
			for n := range c.PerLayer.Metrics {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				ov, cv := o.PerLayer.Metrics[n].Value, c.PerLayer.Metrics[n].Value
				if ov == 0 && cv == 0 {
					continue
				}
				delta := "      n/a"
				if ov != 0 {
					delta = fmt.Sprintf("%+8.1f%%", (cv-ov)/ov*100)
				}
				fmt.Fprintf(w, "    %-34s %14.4f %14.4f %s\n", n, ov, cv, delta)
			}
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed", regressed)
	}
	return nil
}
