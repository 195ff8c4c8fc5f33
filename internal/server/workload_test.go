package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/workload"
)

// startCensusServer serves a small census table over the full API.
func startCensusServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Parallelism = 2
	srv := New(datagen.Census(4_000, 17), opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postBody(t *testing.T, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestWorkloadCaptureAndExport: queries flowing through the server are
// recorded with op kind, session affinity and outcome, and GET
// /api/workload exports them as a parsable workload file.
func TestWorkloadCaptureAndExport(t *testing.T) {
	_, ts := startCensusServer(t)

	if st, body := postBody(t, ts.URL+"/api/explore", `{"cql":"EXPLORE census"}`); st != http.StatusOK {
		t.Fatalf("explore: %d %s", st, body)
	}
	st, body := postBody(t, ts.URL+"/api/sessions", `{}`)
	if st != http.StatusCreated {
		t.Fatalf("session create: %d %s", st, body)
	}
	var sess struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(body, &sess); err != nil {
		t.Fatal(err)
	}
	sid := sess.ID
	base := ts.URL + "/api/sessions/" + itoa(sid)
	if st, body := postBody(t, base+"/explore", `{"cql":"EXPLORE census WHERE age BETWEEN 25 AND 60"}`); st != http.StatusOK {
		t.Fatalf("session explore: %d %s", st, body)
	}
	if st, body := postBody(t, base+"/drill", `{"map":0,"region":0}`); st != http.StatusOK {
		t.Fatalf("drill: %d %s", st, body)
	}
	// A failing query is captured too, as outcome "error"/4xx.
	postBody(t, ts.URL+"/api/explore", `{"cql":"EXPLORE nosuch"}`)

	resp, err := http.Get(ts.URL + "/api/workload")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Errorf("Content-Type = %q, want ndjson", ct)
	}
	w, err := workload.Parse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if w.Header.Table != "census" {
		t.Errorf("header table = %q", w.Header.Table)
	}
	if len(w.Entries) != 4 {
		t.Fatalf("captured %d entries, want 4 (session create is not a query): %+v", len(w.Entries), w.Entries)
	}
	wantOps := []string{"explore", "session-explore", "drill", "explore"}
	for i, e := range w.Entries {
		if e.Op != wantOps[i] {
			t.Errorf("entry %d op = %q, want %q", i, e.Op, wantOps[i])
		}
		if e.Seq != i {
			t.Errorf("entry %d seq = %d", i, e.Seq)
		}
	}
	if w.Entries[0].Session != workload.StatelessSession {
		t.Errorf("stateless explore recorded session %d", w.Entries[0].Session)
	}
	if w.Entries[1].Session != sid || w.Entries[2].Session != sid {
		t.Errorf("session ops recorded sessions %d/%d, want %d", w.Entries[1].Session, w.Entries[2].Session, sid)
	}
	if w.Entries[3].Outcome != "error" {
		t.Errorf("failed explore outcome = %q, want error", w.Entries[3].Outcome)
	}
	if w.Entries[0].Ledger == nil {
		t.Errorf("explore entry carries no ledger summary")
	}
	if w.Entries[0].DurNs <= 0 {
		t.Errorf("explore entry has no duration")
	}
}

// TestWorkloadInputCapped: a pathological input is truncated at the
// byte budget in both the workload entry and the query-log ring.
func TestWorkloadInputCapped(t *testing.T) {
	srv, ts := startCensusServer(t)
	huge := "EXPLORE census WHERE age > " + strings.Repeat("1", 3*workload.DefaultInputCap)
	postBody(t, ts.URL+"/api/explore", `{"cql":"`+huge+`"}`)

	w := srv.WorkloadSnapshot()
	if len(w.Entries) != 1 {
		t.Fatalf("captured %d entries", len(w.Entries))
	}
	in := w.Entries[0].Input
	if len(in) > workload.DefaultInputCap+32 {
		t.Fatalf("workload input not capped: %d bytes", len(in))
	}
	if !strings.Contains(in, "…(+") {
		t.Fatalf("no truncation marker: %.60q", in)
	}
	resp, err := http.Get(ts.URL + "/api/querylog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dto QueryLogDTO
	if err := json.NewDecoder(resp.Body).Decode(&dto); err != nil {
		t.Fatal(err)
	}
	if len(dto.Entries) == 0 {
		t.Fatal("empty query log")
	}
	if qin := dto.Entries[0].Input; len(qin) > workload.DefaultInputCap+32 || !strings.Contains(qin, "…(+") {
		t.Fatalf("query log input not capped: %d bytes, %.60q", len(qin), qin)
	}
}

// TestWorkloadReplayByteIdentity: a hand-written workload — three
// drill-down sessions interleaving explores and drills, stateless
// explores and one deterministic error — replayed concurrently (closed
// and open loop) answers byte-identically to the sequential reference
// pass, and scores cleanly.
func TestWorkloadReplayByteIdentity(t *testing.T) {
	_, ts := startCensusServer(t)
	const ms = int64(time.Millisecond)
	w := &workload.Workload{
		Header: workload.Header{Format: "atlas-workload", Version: workload.FormatVersion, Table: "census"},
		Entries: []workload.Entry{
			{Seq: 0, OffsetNs: 0, Op: "session-explore", Input: "EXPLORE census", Session: 0},
			{Seq: 1, OffsetNs: 1 * ms, Op: "session-explore", Input: "EXPLORE census WHERE age BETWEEN 25 AND 60", Session: 1},
			{Seq: 2, OffsetNs: 1 * ms, Op: "explore", Input: "EXPLORE census WHERE salary = '>50K'", Session: workload.StatelessSession},
			{Seq: 3, OffsetNs: 2 * ms, Op: "drill", Input: "drill map=0 region=1", Session: 0},
			{Seq: 4, OffsetNs: 2 * ms, Op: "session-explore", Input: "EXPLORE census WHERE salary = '>50K'", Session: 2},
			{Seq: 5, OffsetNs: 3 * ms, Op: "drill", Input: "drill map=0 region=0", Session: 1},
			{Seq: 6, OffsetNs: 3 * ms, Op: "explore", Input: "EXPLORE nosuch", Session: workload.StatelessSession, Outcome: "error"},
			{Seq: 7, OffsetNs: 4 * ms, Op: "drill", Input: "drill map=0 region=0", Session: 2},
			{Seq: 8, OffsetNs: 4 * ms, Op: "drill", Input: "drill map=0 region=0", Session: 0},
			{Seq: 9, OffsetNs: 5 * ms, Op: "session-explore", Input: "EXPLORE census WHERE age BETWEEN 25 AND 60", Session: 2},
			{Seq: 10, OffsetNs: 5 * ms, Op: "explore", Input: "EXPLORE census", Session: workload.StatelessSession},
		},
	}
	ctx := context.Background()
	ref, err := workload.Replay(ctx, w, workload.ReplayOptions{Target: ts.URL, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	closed, err := workload.Replay(ctx, w, workload.ReplayOptions{Target: ts.URL, Pacing: workload.ClosedLoop})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.VerifyIdentical(w, ref, closed); err != nil {
		t.Fatalf("closed-loop drift: %v", err)
	}
	open, err := workload.Replay(ctx, w, workload.ReplayOptions{Target: ts.URL, Pacing: workload.OpenLoop, Speed: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.VerifyIdentical(w, ref, open); err != nil {
		t.Fatalf("open-loop drift: %v", err)
	}
	sc := workload.ScoreReplay(closed, workload.SLO{MaxErrRateSet: true}, 2)
	if sc.Requests != len(w.Entries) {
		t.Fatalf("scored %d requests, want %d", sc.Requests, len(w.Entries))
	}
	if sc.Errors != 0 || sc.Shed != 0 || sc.Client4xx != 1 {
		t.Fatalf("replay saw errors=%d shed=%d 4xx=%d, want 0, 0, 1", sc.Errors, sc.Shed, sc.Client4xx)
	}
	if !sc.Pass {
		t.Fatalf("SLO violations: %v", sc.Violations)
	}
	if sc.P50 <= 0 || sc.P99 < sc.P50 {
		t.Fatalf("quantiles off: p50=%v p99=%v", sc.P50, sc.P99)
	}
}

// TestQueryLogFilters: the ?op= and ?since= filters of GET
// /api/querylog.
func TestQueryLogFilters(t *testing.T) {
	_, ts := startCensusServer(t)
	postBody(t, ts.URL+"/api/explore", `{"cql":"EXPLORE census"}`)
	st, body := postBody(t, ts.URL+"/api/sessions", `{}`)
	if st != http.StatusCreated {
		t.Fatalf("session create: %d %s", st, body)
	}
	var sess struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(body, &sess); err != nil {
		t.Fatal(err)
	}
	base := ts.URL + "/api/sessions/" + itoa(sess.ID)
	postBody(t, base+"/explore", `{"cql":"EXPLORE census"}`)
	postBody(t, base+"/drill", `{"map":0,"region":0}`)

	get := func(query string) QueryLogDTO {
		t.Helper()
		resp, err := http.Get(ts.URL + "/api/querylog" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /api/querylog%s: %d", query, resp.StatusCode)
		}
		var dto QueryLogDTO
		if err := json.NewDecoder(resp.Body).Decode(&dto); err != nil {
			t.Fatal(err)
		}
		return dto
	}

	all := get("")
	if len(all.Entries) != 3 {
		t.Fatalf("logged %d queries, want 3", len(all.Entries))
	}
	for _, op := range []string{"explore", "session-explore", "drill"} {
		dto := get("?op=" + op)
		if len(dto.Entries) != 1 || dto.Entries[0].Op != op {
			t.Fatalf("?op=%s returned %+v", op, dto.Entries)
		}
	}
	if dto := get("?op=nosuch"); len(dto.Entries) != 0 {
		t.Fatalf("?op=nosuch returned %d entries", len(dto.Entries))
	}

	// ?since=<seq> returns strictly newer entries (incremental tailing).
	var maxSeq, minSeq uint64
	minSeq = ^uint64(0)
	for _, e := range all.Entries {
		if e.Seq > maxSeq {
			maxSeq = e.Seq
		}
		if e.Seq < minSeq {
			minSeq = e.Seq
		}
	}
	if dto := get("?since=" + utoa(maxSeq)); len(dto.Entries) != 0 {
		t.Fatalf("?since=max returned %d entries, want 0", len(dto.Entries))
	}
	if dto := get("?since=" + utoa(minSeq)); len(dto.Entries) != 2 {
		t.Fatalf("?since=min returned %d entries, want 2 strictly newer", len(dto.Entries))
	}
	// Filters combine: op AND since.
	if dto := get("?op=explore&since=" + utoa(minSeq)); len(dto.Entries) != 0 {
		t.Fatalf("?op=explore&since=min returned %d entries, want 0", len(dto.Entries))
	}
	// Bad since is a 400, not a silent full dump.
	resp, err := http.Get(ts.URL + "/api/querylog?since=xyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("?since=xyz answered %d, want 400", resp.StatusCode)
	}
}

func itoa(i int) string { return strconv.Itoa(i) }

func utoa(u uint64) string { return strconv.FormatUint(u, 10) }
