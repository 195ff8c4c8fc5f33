// Package exp is the experiment harness: one registered experiment per
// figure and claim of the paper. Each experiment regenerates its
// artifact as a printed table with PASS/FAIL checks; cmd/atlasbench
// runs them from the command line (-list prints the index) and
// bench_test.go runs them as Go benchmarks.
package exp

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	// ID is the experiment identifier (E1…E15).
	ID string
	// Title is a one-line description.
	Title string
	// Artifact names the paper figure/claim being regenerated.
	Artifact string
	// Run executes the experiment and writes its table(s) to w. When
	// quick is true, reduced input sizes are used (CI/bench mode).
	Run func(w io.Writer, quick bool) error
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("exp: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// All returns every experiment, ordered by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		// numeric-aware: E2 < E10
		a, b := out[i].ID, out[j].ID
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return out
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// table is a small tabwriter wrapper shared by the experiments.
type table struct {
	tw *tabwriter.Writer
}

func newTable(w io.Writer, headers ...string) *table {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	t := &table{tw: tw}
	t.row(toAnys(headers)...)
	return t
}

func toAnys(ss []string) []any {
	out := make([]any, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}

func (t *table) row(vals ...any) {
	for i, v := range vals {
		if i > 0 {
			fmt.Fprint(t.tw, "\t")
		}
		switch x := v.(type) {
		case float64:
			fmt.Fprintf(t.tw, "%.4g", x)
		default:
			fmt.Fprint(t.tw, v)
		}
	}
	fmt.Fprintln(t.tw)
}

func (t *table) flush() { t.tw.Flush() }

func section(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, "\n== "+format+" ==\n", args...)
}

func check(w io.Writer, ok bool, format string, args ...any) {
	mark := "PASS"
	if !ok {
		mark = "FAIL"
	}
	fmt.Fprintf(w, "[%s] "+format+"\n", append([]any{mark}, args...)...)
}

func pick(quick bool, quickVal, fullVal int) int {
	if quick {
		return quickVal
	}
	return fullVal
}
