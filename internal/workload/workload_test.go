package workload

import (
	"bufio"
	"bytes"
	"errors"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obsv"
)

func TestWorkloadRoundTrip(t *testing.T) {
	w := &Workload{
		Header: Header{Format: "atlas-workload", Version: FormatVersion, Table: "census", Start: time.Unix(100, 0).UTC()},
		Entries: []Entry{
			{Seq: 0, OffsetNs: 0, Op: "explore", Input: "EXPLORE census", Session: StatelessSession, DurNs: 1000},
			{Seq: 1, OffsetNs: 5000, Op: "session-explore", Input: "EXPLORE census WHERE age > 30", Session: 0, DurNs: 2000,
				Ledger: &LedgerSummary{ChunksScanned: 3, BytesRead: 4096}},
			{Seq: 2, OffsetNs: 9000, Op: "drill", Input: "drill map=0 region=1", Session: 0, Outcome: "error"},
			{Seq: 3, OffsetNs: 9500, Op: "explore", Input: "EXPLORE census", Session: StatelessSession, Outcome: "shed"},
		},
	}
	var buf bytes.Buffer
	if err := w.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w, got) {
		t.Fatalf("roundtrip mismatch:\nin:  %+v\nout: %+v", w, got)
	}
	if sessions := got.Sessions(); len(sessions) != 1 || sessions[0] != 0 {
		t.Fatalf("Sessions() = %v, want [0]", sessions)
	}
	replayable := 0
	for i := range got.Entries {
		if got.Entries[i].Replayable() {
			replayable++
		}
	}
	if replayable != 3 {
		t.Fatalf("replayable = %d, want 3 (ok+ok+error replay, shed does not)", replayable)
	}
}

func TestParseRejectsForeignInput(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"not json":      "hello\n",
		"wrong magic":   `{"format":"other","version":1}` + "\n",
		"wrong version": `{"format":"atlas-workload","version":99}` + "\n",
	}
	for name, in := range cases {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Parse accepted %q", name, in)
		}
	}
}

func TestCapInput(t *testing.T) {
	if got := CapInput("short", 100); got != "short" {
		t.Fatalf("within budget changed: %q", got)
	}
	long := strings.Repeat("x", 100)
	got := CapInput(long, 10)
	if !strings.HasPrefix(got, "xxxxxxxxxx…(+90 bytes)") {
		t.Fatalf("cap marker wrong: %q", got)
	}
	// Rune boundary: must not cut a multi-byte rune in half.
	multi := strings.Repeat("é", 50) // 2 bytes each
	capped := CapInput(multi, 11)    // lands mid-rune
	if !strings.Contains(capped, "…(+") {
		t.Fatalf("no marker on capped multibyte input: %q", capped)
	}
	head := capped[:strings.Index(capped, "…")]
	if !strings.HasSuffix(head, "é") || len(head)%2 != 0 {
		t.Fatalf("cut mid-rune: %q", head)
	}
	// Zero cap = default budget.
	if got := CapInput(strings.Repeat("y", DefaultInputCap+1), 0); len(got) <= DefaultInputCap {
		if !strings.Contains(got, "…(+") {
			t.Fatalf("default cap did not truncate with marker: %.40q", got)
		}
	}
}

func TestRecorderBoundsAndSink(t *testing.T) {
	var sink bytes.Buffer
	r := NewRecorder("census", RecorderOptions{MaxEntries: 2, InputCap: 16})
	r.SetSink(&sink)
	led := obsv.NewLedger()
	led.Finish()
	snap := led.Snapshot()
	for i := 0; i < 4; i++ {
		r.Observe("explore", strings.Repeat("q", 40), StatelessSession, "", time.Millisecond, &snap)
	}
	if r.Len() != 2 || r.Dropped() != 2 {
		t.Fatalf("Len=%d Dropped=%d, want 2/2", r.Len(), r.Dropped())
	}
	w := r.Snapshot()
	if len(w.Entries) != 2 {
		t.Fatalf("snapshot entries = %d, want 2", len(w.Entries))
	}
	for i, e := range w.Entries {
		if e.Seq != i {
			t.Errorf("entry %d Seq = %d", i, e.Seq)
		}
		if len(e.Input) > 16+len("…(+24 bytes)") {
			t.Errorf("input not capped: %q", e.Input)
		}
		if !strings.Contains(e.Input, "…(+") {
			t.Errorf("no truncation marker: %q", e.Input)
		}
	}
	// The sink keeps streaming past the in-memory bound: header + all 4.
	lines := strings.Count(sink.String(), "\n")
	if lines != 5 {
		t.Fatalf("sink has %d lines, want 5 (header + 4 entries)", lines)
	}
	parsed, err := Parse(&sink)
	if err != nil {
		t.Fatalf("sink output not a parsable workload: %v", err)
	}
	if len(parsed.Entries) != 4 {
		t.Fatalf("sink parsed %d entries, want 4", len(parsed.Entries))
	}
}

func TestCanonicalBody(t *testing.T) {
	// Top-level volatile fields (explore answers).
	a, err := CanonicalBody([]byte(`{"input":"q","elapsedMs":12.5,"ledger":{"rpcs":3},"maps":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := CanonicalBody([]byte(`{"input":"q","elapsedMs":99.9,"ledger":{"rpcs":7},"maps":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("volatile top-level fields survived: %q vs %q", a, b)
	}
	// Nested under "result" (session node answers).
	c, _ := CanonicalBody([]byte(`{"id":1,"result":{"input":"q","elapsedMs":1,"profile":{"x":1}}}`))
	d, _ := CanonicalBody([]byte(`{"id":1,"result":{"input":"q","elapsedMs":2}}`))
	if c != d {
		t.Fatalf("volatile result fields survived: %q vs %q", c, d)
	}
	// Non-JSON bodies canonicalize to trimmed text.
	e, _ := CanonicalBody([]byte("  plain text \n"))
	if e != "plain text" {
		t.Fatalf("non-JSON canonical = %q", e)
	}
}

func TestScoreReplayClassification(t *testing.T) {
	res := &ReplayResult{
		Wall: 2 * time.Second,
		Results: []EntryResult{
			{Status: http.StatusOK, Dur: 10 * time.Millisecond},
			{Status: http.StatusOK, Dur: 20 * time.Millisecond},
			{Status: http.StatusBadRequest, Dur: 1 * time.Millisecond},      // deterministic 4xx: completed
			{Status: http.StatusTooManyRequests, Dur: 1 * time.Millisecond}, // shed
			{Status: http.StatusServiceUnavailable, Dur: time.Millisecond},  // shed (drain)
			{Status: http.StatusInternalServerError, Dur: time.Millisecond}, // error
			{Err: "connection refused"},                                     // error
			{},                                                              // never issued: not counted
		},
	}
	sc := ScoreReplay(res, SLO{}, 4)
	if sc.Requests != 7 {
		t.Fatalf("Requests = %d, want 7 (unissued entries don't count)", sc.Requests)
	}
	if sc.Shed != 2 || sc.Errors != 2 || sc.Client4xx != 1 || sc.Completed != 3 {
		t.Fatalf("classification off: %+v", sc)
	}
	if sc.QPSPerCore <= 0 || sc.QPS != sc.QPSPerCore*4 {
		t.Fatalf("QPS accounting off: qps=%v per-core=%v", sc.QPS, sc.QPSPerCore)
	}
	if !sc.Pass || len(sc.Violations) != 0 {
		t.Fatalf("empty SLO must pass: %+v", sc.Violations)
	}

	strict := SLO{P99: 5 * time.Millisecond, MaxErrRate: 0, MaxErrRateSet: true, MaxShedRate: 0, MaxShedRateSet: true, MinQPSPerCore: 1e9}
	sc2 := ScoreReplay(res, strict, 4)
	if sc2.Pass {
		t.Fatal("strict SLO passed a run with errors, sheds, slow p99 and tiny QPS")
	}
	if len(sc2.Violations) < 3 {
		t.Fatalf("expected multiple violations, got %v", sc2.Violations)
	}
}

// TestParseLongLineNamedError: a line past the parser's bound fails with
// a workload: error naming the line, not a bare scanner error.
func TestParseLongLineNamedError(t *testing.T) {
	hdr := `{"format":"atlas-workload","version":1}` + "\n"
	long := `{"input":"` + strings.Repeat("x", maxLineBytes) + `"}` + "\n"
	for name, tc := range map[string]struct {
		in   string
		line string
	}{
		"header": {long, "workload: line 1: "},
		"entry":  {hdr + `{"seq":0}` + "\n" + long, "workload: line 3: "},
	} {
		_, err := Parse(strings.NewReader(tc.in))
		if err == nil || !strings.HasPrefix(err.Error(), tc.line) || !errors.Is(err, bufio.ErrTooLong) {
			t.Errorf("%s: Parse error %v, want %q wrapping bufio.ErrTooLong", name, err, tc.line)
		}
	}
}
