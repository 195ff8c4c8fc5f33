package exp

import (
	"bytes"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	// E11 (the GK sketch cut) was retired with the sketch itself.
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E12", "E13", "E14", "E15"}
	if len(all) != len(want) {
		t.Fatalf("registered %d experiments, want %d (%v)", len(all), len(want), want)
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("experiment %d: id %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Artifact == "" || e.Run == nil {
			t.Errorf("%s incomplete: %+v", e.ID, e)
		}
	}
	if _, ok := ByID("E1"); !ok {
		t.Error("ByID(E1) failed")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("ByID(E99) should miss")
	}
}

// TestAllExperimentsPassQuick runs the full suite in quick mode and
// requires every embedded assertion to print PASS. This is the repo's
// end-to-end reproduction check.
func TestAllExperimentsPassQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take seconds; skipped in -short")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, true); err != nil {
				t.Fatalf("%s failed: %v\noutput so far:\n%s", e.ID, err, buf.String())
			}
			out := buf.String()
			if strings.Contains(out, "[FAIL]") {
				t.Errorf("%s has failing checks:\n%s", e.ID, out)
			}
			if !strings.Contains(out, "[PASS]") {
				t.Errorf("%s printed no checks:\n%s", e.ID, out)
			}
		})
	}
}
