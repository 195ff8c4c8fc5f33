package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/datagen"
)

// NodeDTO decodes one session node of a response body (see appendNode).
type NodeDTO struct {
	ID       int       `json:"id"`
	Parent   int       `json:"parent"`
	Children []int     `json:"children"`
	Result   ResultDTO `json:"result"`
}

func newTestServer(t testing.TB) *httptest.Server {
	t.Helper()
	tbl := datagen.Census(5000, 1)
	srv := New(tbl, core.DefaultOptions())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

func TestSchemaEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/api/schema")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var dto SchemaDTO
	if err := json.NewDecoder(resp.Body).Decode(&dto); err != nil {
		t.Fatal(err)
	}
	if dto.Table != "census" || dto.Rows != 5000 || len(dto.Fields) != 5 {
		t.Fatalf("schema = %+v", dto)
	}
}

func TestStatelessExplore(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/api/explore", map[string]string{
		"cql": "EXPLORE census WHERE age BETWEEN 17 AND 90",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var maps []MapDTO
	if err := json.Unmarshal(body["maps"], &maps); err != nil {
		t.Fatal(err)
	}
	if len(maps) == 0 {
		t.Fatal("no maps returned")
	}
	for _, m := range maps {
		if len(m.Regions) == 0 || len(m.Regions) > 8 {
			t.Fatalf("map regions = %d", len(m.Regions))
		}
	}
}

func TestExploreWithOptions(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/api/explore", map[string]string{
		"cql": "EXPLORE census WITH MAPS 1 MERGE product",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d body=%v", resp.StatusCode, body)
	}
	var maps []MapDTO
	if err := json.Unmarshal(body["maps"], &maps); err != nil {
		t.Fatal(err)
	}
	if len(maps) != 1 {
		t.Fatalf("maps = %d, want 1 (MAPS 1)", len(maps))
	}
}

// TestExploreCutSketchIsMedian: WITH CUT sketch, kept for captured
// workloads, answers exactly what WITH CUT median answers.
func TestExploreCutSketchIsMedian(t *testing.T) {
	ts := newTestServer(t)
	answer := func(cql string) map[string]json.RawMessage {
		resp, body := postJSON(t, ts.URL+"/api/explore", map[string]string{"cql": cql})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q: status = %d body=%v", cql, resp.StatusCode, body)
		}
		return body
	}
	sketch := answer("EXPLORE census WHERE age > 20 WITH CUT sketch")
	median := answer("EXPLORE census WHERE age > 20 WITH CUT median")
	for _, key := range []string{"input", "totalRows", "baseCount", "maps", "flagged"} {
		if !bytes.Equal(sketch[key], median[key]) {
			t.Errorf("%s: sketch %s, median %s", key, sketch[key], median[key])
		}
	}
}

func TestExploreBadCQL(t *testing.T) {
	ts := newTestServer(t)
	cases := []string{
		"SELECT 1",
		"EXPLORE census WHERE ghost = 1",
		"EXPLORE census WITH CUT bogus",
		"EXPLORE wrongtable",
	}
	for _, q := range cases {
		resp, body := postJSON(t, ts.URL+"/api/explore", map[string]string{"cql": q})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%q: status = %d body=%v", q, resp.StatusCode, body)
		}
		if _, ok := body["error"]; !ok {
			t.Errorf("%q: missing error field", q)
		}
	}
}

func TestExploreMalformedBody(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/api/explore", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestSessionLifecycle(t *testing.T) {
	ts := newTestServer(t)
	// create
	resp, body := postJSON(t, ts.URL+"/api/sessions", map[string]string{})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	var id int
	if err := json.Unmarshal(body["id"], &id); err != nil {
		t.Fatal(err)
	}
	base := fmt.Sprintf("%s/api/sessions/%d", ts.URL, id)

	// explore
	resp, body = postJSON(t, base+"/explore", map[string]string{"cql": "EXPLORE census"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore status = %d body=%v", resp.StatusCode, body)
	}
	var nodeID int
	if err := json.Unmarshal(body["id"], &nodeID); err != nil {
		t.Fatal(err)
	}
	if nodeID != 0 {
		t.Fatalf("first node id = %d", nodeID)
	}

	// drill
	resp, body = postJSON(t, base+"/drill", map[string]int{"map": 0, "region": 0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drill status = %d body=%v", resp.StatusCode, body)
	}
	var parent int
	if err := json.Unmarshal(body["parent"], &parent); err != nil {
		t.Fatal(err)
	}
	if parent != 0 {
		t.Fatalf("drill parent = %d", parent)
	}

	// current
	hresp, err := http.Get(base)
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var cur NodeDTO
	if err := json.NewDecoder(hresp.Body).Decode(&cur); err != nil {
		t.Fatal(err)
	}
	if cur.ID != 1 {
		t.Fatalf("current = %d", cur.ID)
	}

	// back
	resp, body = postJSON(t, base+"/back", map[string]string{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("back status = %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body["id"], &nodeID); err != nil {
		t.Fatal(err)
	}
	if nodeID != 0 {
		t.Fatalf("back node = %d", nodeID)
	}

	// back at root fails
	resp, _ = postJSON(t, base+"/back", map[string]string{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("back at root status = %d", resp.StatusCode)
	}

	// history
	hresp2, err := http.Get(base + "/history")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp2.Body.Close()
	var hist []NodeDTO
	if err := json.NewDecoder(hresp2.Body).Decode(&hist); err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Fatalf("history = %d nodes", len(hist))
	}
}

// TestSessionExploreRejectsWith: a session explores under its server's
// options, so a WITH clause is a 400 naming it, not an answer that drops
// it.
func TestSessionExploreRejectsWith(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/api/sessions", map[string]string{})
	var id int
	if resp.StatusCode != http.StatusCreated || json.Unmarshal(body["id"], &id) != nil {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	resp, body = postJSON(t, fmt.Sprintf("%s/api/sessions/%d/explore", ts.URL, id), map[string]string{"cql": "EXPLORE census WITH SAMPLE 0.1"})
	var msg string
	if err := json.Unmarshal(body["error"], &msg); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, cql.ErrWithClause.Error()) {
		t.Fatalf("session explore WITH SAMPLE: status %d, error %q; want 400 naming %q", resp.StatusCode, msg, cql.ErrWithClause)
	}
}

// TestExplainRejectsWith: EXPLAIN plans the base scan, which only WITH
// SAMPLE shapes, so any other WITH option answers 400 naming
// cql.ErrWithClause instead of a plan that ignores it, and a sample is
// planned.
func TestExplainRejectsWith(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/api/explain", map[string]string{"cql": "EXPLORE census WITH MAPS 2"})
	var msg string
	if err := json.Unmarshal(body["error"], &msg); err != nil {
		t.Fatalf("status %d, no error message: %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, cql.ErrWithClause.Error()) {
		t.Fatalf("explain WITH MAPS 2: status %d, error %q; want 400 naming %q", resp.StatusCode, msg, cql.ErrWithClause)
	}
	if resp, _ := postJSON(t, ts.URL+"/api/explain", map[string]string{"cql": "EXPLORE census WITH SAMPLE 0.1"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("explain WITH SAMPLE 0.1: status %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/api/explain", map[string]string{"cql": "EXPLORE census"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("explain without WITH: status %d", resp.StatusCode)
	}
}

// TestExploreBadWithValue400: a WITH value the pipeline cannot run
// under is the client's fault, a 400 naming the option, like any other
// CQL error.
func TestExploreBadWithValue400(t *testing.T) {
	ts := newTestServer(t)
	for _, opt := range []string{"SPLITS 1", "REGIONS 1"} {
		resp, body := postJSON(t, ts.URL+"/api/explore", map[string]string{"cql": "EXPLORE census WITH " + opt})
		var msg string
		if err := json.Unmarshal(body["error"], &msg); err != nil {
			t.Fatalf("WITH %s: status %d, no error message: %v", opt, resp.StatusCode, err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, opt) {
			t.Errorf("WITH %s: status %d, error %q; want 400 naming %q", opt, resp.StatusCode, msg, opt)
		}
	}
}

// TestInvalidDefaultsAnswerTheirError: a server built with options that
// fail validation answers every exploration, and a new session, with
// that validation error instead of failing on a missing Cartographer.
func TestInvalidDefaultsAnswerTheirError(t *testing.T) {
	opts := core.DefaultOptions()
	opts.MaxRegions = 1
	ts := httptest.NewServer(New(datagen.Census(500, 1), opts).Handler())
	defer ts.Close()
	for _, path := range []string{"/api/explore", "/api/sessions"} {
		resp, body := postJSON(t, ts.URL+path, map[string]string{"cql": "EXPLORE census WITH MAPS 2"})
		var msg string
		if err := json.Unmarshal(body["error"], &msg); err != nil || !strings.Contains(msg, "MaxRegions") {
			t.Errorf("%s: status %d, error %q (%v); want the options' validation error", path, resp.StatusCode, msg, err)
		}
	}
}

func TestSessionNotFound(t *testing.T) {
	ts := newTestServer(t)
	resp, _ := postJSON(t, ts.URL+"/api/sessions/99/explore", map[string]string{"cql": "EXPLORE census"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	resp2, _ := postJSON(t, ts.URL+"/api/sessions/abc/explore", map[string]string{"cql": "EXPLORE census"})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp2.StatusCode)
	}
}

func TestDescribeEndpoint(t *testing.T) {
	ts := newTestServer(t)
	_, body := postJSON(t, ts.URL+"/api/sessions", map[string]string{})
	var id int
	if err := json.Unmarshal(body["id"], &id); err != nil {
		t.Fatal(err)
	}
	base := fmt.Sprintf("%s/api/sessions/%d", ts.URL, id)
	resp, _ := postJSON(t, base+"/explore", map[string]string{"cql": "EXPLORE census"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore status = %d", resp.StatusCode)
	}
	dresp, err := http.Post(base+"/describe", "application/json",
		bytes.NewReader([]byte(`{"map":0,"region":0}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("describe status = %d", dresp.StatusCode)
	}
	var profiles []ProfileDTO
	if err := json.NewDecoder(dresp.Body).Decode(&profiles); err != nil {
		t.Fatal(err)
	}
	if len(profiles) == 0 {
		t.Fatal("no profiles")
	}
	for _, p := range profiles {
		if p.Attr == "" || p.Summary == "" {
			t.Fatalf("incomplete profile %+v", p)
		}
	}
	// out-of-range region
	bresp, _ := postJSON(t, base+"/describe", map[string]int{"map": 0, "region": 999})
	if bresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad describe status = %d", bresp.StatusCode)
	}
}

func TestPersonalizedEndpoint(t *testing.T) {
	ts := newTestServer(t)
	_, body := postJSON(t, ts.URL+"/api/sessions", map[string]string{})
	var id int
	if err := json.Unmarshal(body["id"], &id); err != nil {
		t.Fatal(err)
	}
	base := fmt.Sprintf("%s/api/sessions/%d", ts.URL, id)
	if resp, _ := postJSON(t, base+"/explore", map[string]string{"cql": "EXPLORE census"}); resp.StatusCode != http.StatusOK {
		t.Fatal("explore failed")
	}
	// drilling builds interest; then personalized order is served
	if resp, _ := postJSON(t, base+"/drill", map[string]int{"map": 0, "region": 0}); resp.StatusCode != http.StatusOK {
		t.Fatal("drill failed")
	}
	if resp, _ := postJSON(t, base+"/back", map[string]string{}); resp.StatusCode != http.StatusOK {
		t.Fatal("back failed")
	}
	presp, err := http.Get(base + "/personalized")
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("personalized status = %d", presp.StatusCode)
	}
	var maps []MapDTO
	if err := json.NewDecoder(presp.Body).Decode(&maps); err != nil {
		t.Fatal(err)
	}
	if len(maps) == 0 {
		t.Fatal("no personalized maps")
	}
}

func TestDrillBeforeExplore(t *testing.T) {
	ts := newTestServer(t)
	_, body := postJSON(t, ts.URL+"/api/sessions", map[string]string{})
	var id int
	if err := json.Unmarshal(body["id"], &id); err != nil {
		t.Fatal(err)
	}
	resp, _ := postJSON(t, fmt.Sprintf("%s/api/sessions/%d/drill", ts.URL, id), map[string]int{"map": 0, "region": 0})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}
