package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/datagen"
	"repro/internal/obsv"
	"repro/internal/session"
	"repro/internal/storage"
)

// The oracle below is the result-body path the server used before
// result bodies were memoized: per-request DTOs encoded by
// json.NewEncoder. Every result-bearing route must answer with exactly
// its bytes.

type oracleRegion struct {
	Query string  `json:"query"`
	Count int     `json:"count"`
	Cover float64 `json:"cover"`
}

type oracleMap struct {
	Attrs   []string       `json:"attrs"`
	Entropy float64        `json:"entropy"`
	Regions []oracleRegion `json:"regions"`
}

type oracleResult struct {
	Input           string               `json:"input"`
	TotalRows       int                  `json:"totalRows"`
	BaseCount       int                  `json:"baseCount"`
	ElapsedMs       float64              `json:"elapsedMs"`
	Maps            []oracleMap          `json:"maps"`
	Flagged         []string             `json:"flagged,omitempty"`
	Profile         *obsv.SpanJSON       `json:"profile,omitempty"`
	ProfilePerfetto json.RawMessage      `json:"profilePerfetto,omitempty"`
	Ledger          *obsv.LedgerSnapshot `json:"ledger,omitempty"`
}

type oracleNode struct {
	ID       int          `json:"id"`
	Parent   int          `json:"parent"`
	Children []int        `json:"children"`
	Result   oracleResult `json:"result"`
}

func oracleResultDTO(r *core.Result) oracleResult {
	out := oracleResult{
		Input:     r.Input.String(),
		TotalRows: r.TotalRows,
		BaseCount: r.BaseCount,
		ElapsedMs: float64(r.Elapsed.Microseconds()) / 1000.0,
	}
	for _, m := range r.Maps {
		md := oracleMap{Attrs: m.Attrs, Entropy: m.Entropy}
		for _, reg := range m.Regions {
			md.Regions = append(md.Regions, oracleRegion{
				Query: reg.Query.String(),
				Count: reg.Count,
				Cover: reg.Cover,
			})
		}
		out.Maps = append(out.Maps, md)
	}
	for _, f := range r.Flagged {
		out.Flagged = append(out.Flagged, fmt.Sprintf("%s (%s)", f.Attr, f.Reason))
	}
	return out
}

func oracleNodeDTO(n *session.Node) oracleNode {
	return oracleNode{
		ID:       n.ID,
		Parent:   n.Parent,
		Children: append([]int(nil), n.Children...),
		Result:   oracleResultDTO(n.Result),
	}
}

func oracleEncode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withRequestFields copies the per-request fields of a response (its
// ledger and profiles, which no oracle can recompute) onto the oracle
// DTO, decoded into their program types so that the oracle encodes
// them itself.
func withRequestFields(t *testing.T, dto *oracleResult, body []byte, inNode bool) {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &fields); err != nil {
		t.Fatalf("response is not a JSON object: %v\n%s", err, body)
	}
	if inNode {
		raw := fields["result"]
		fields = nil
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatal(err)
		}
	}
	if raw, ok := fields["ledger"]; ok {
		dto.Ledger = new(obsv.LedgerSnapshot)
		if err := json.Unmarshal(raw, dto.Ledger); err != nil {
			t.Fatal(err)
		}
	}
	if raw, ok := fields["profile"]; ok {
		dto.Profile = new(obsv.SpanJSON)
		if err := json.Unmarshal(raw, dto.Profile); err != nil {
			t.Fatal(err)
		}
	}
	if raw, ok := fields["profilePerfetto"]; ok {
		dto.ProfilePerfetto = append(json.RawMessage(nil), raw...)
	}
}

// identityTable holds a near-unique key and a constant column (both
// flagged by screening), category values JSON escapes (<, &, U+2028)
// and CQL quotes ('), a numeric and a boolean column.
func identityTable(t *testing.T) *storage.Table {
	t.Helper()
	schema, err := storage.NewSchema(
		storage.Field{Name: "id", Type: storage.Int64},
		storage.Field{Name: "kind", Type: storage.String},
		storage.Field{Name: "score", Type: storage.Float64},
		storage.Field{Name: "ok", Type: storage.Bool},
		storage.Field{Name: "src", Type: storage.String},
	)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []string{"a<b", "x&y", "it's", "line\u2028sep", "plain"}
	b := storage.NewBuilder("t", schema)
	for i := range 3000 {
		b.MustAppendRow(int64(i), kinds[(i*7)%len(kinds)], float64((i*37)%1000)/8, i%3 == 0, "feed")
	}
	return b.MustBuild()
}

type identityRig struct {
	t   *testing.T
	srv *Server
	url string
	// seen collects every body checked, for the coverage assertions.
	seen bytes.Buffer
}

func newIdentityRig(t *testing.T, tbl *storage.Table) *identityRig {
	opts := core.DefaultOptions()
	opts.Parallelism = 2
	srv := New(tbl, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &identityRig{t: t, srv: srv, url: ts.URL}
}

// do sends one request, fails on any status but 200, and returns the
// response headers and the full body.
func (g *identityRig) do(method, path, body string) (http.Header, []byte) {
	g.t.Helper()
	req, err := http.NewRequest(method, g.url+path, strings.NewReader(body))
	if err != nil {
		g.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		g.t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		g.t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		g.t.Fatalf("%s %s: status %d: %s", method, path, resp.StatusCode, b)
	}
	return resp.Header, b
}

func (g *identityRig) newSession() int {
	g.t.Helper()
	req, _ := http.NewRequest(http.MethodPost, g.url+"/api/sessions", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		g.t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct{ ID int }
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		g.t.Fatal(err)
	}
	return out.ID
}

// session returns the live session id, waiting out its prefetches so
// that the oracle reads settled nodes.
func (g *identityRig) session(id int) *session.Session {
	g.t.Helper()
	sess, ok := g.srv.sessions.acquire(id)
	if !ok {
		g.t.Fatalf("no session %d", id)
	}
	g.srv.sessions.release(id)
	sess.Wait()
	return sess
}

func (g *identityRig) check(what string, hdr http.Header, got, want []byte, wantCache string) {
	g.t.Helper()
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		g.t.Errorf("%s: Content-Type %q", what, ct)
	}
	if v := hdr.Get(headerResultCache); v != wantCache {
		g.t.Errorf("%s: %s = %q, want %q", what, headerResultCache, v, wantCache)
	}
	if !bytes.Equal(got, want) {
		g.t.Errorf("%s: body differs from the oracle\n got: %s\nwant: %s", what, got, want)
	}
	g.seen.Write(got)
}

// covered fails unless some checked body holds each of the markers.
func (g *identityRig) covered(markers ...string) {
	g.t.Helper()
	for _, m := range markers {
		if !bytes.Contains(g.seen.Bytes(), []byte(m)) {
			g.t.Errorf("no checked body holds %s", m)
		}
	}
}

func cacheVerdict(cached bool) string {
	if cached {
		return "hit"
	}
	return "miss"
}

// checkNode compares a node-bearing response against the oracle's
// rendering of the session's node. attached marks the routes that run
// a query and so carry a ledger and the cache header.
func (g *identityRig) checkNode(what string, hdr http.Header, body []byte, n *session.Node, attached bool) {
	g.t.Helper()
	dto := oracleNodeDTO(n)
	wantCache := ""
	if attached {
		withRequestFields(g.t, &dto.Result, body, true)
		wantCache = cacheVerdict(n.Cached)
	}
	g.check(what, hdr, body, oracleEncode(g.t, dto), wantCache)
}

func (g *identityRig) sessionExplore(sid int, query, cql string) {
	g.t.Helper()
	hdr, body := g.do(http.MethodPost, fmt.Sprintf("/api/sessions/%d/explore%s", sid, query), fmt.Sprintf(`{"cql":%q}`, cql))
	cur, err := g.session(sid).Current()
	if err != nil {
		g.t.Fatal(err)
	}
	g.checkNode(fmt.Sprintf("session %d explore%s %q", sid, query, cql), hdr, body, cur, true)
}

func (g *identityRig) drill(sid, m, r int, query string) {
	g.t.Helper()
	hdr, body := g.do(http.MethodPost, fmt.Sprintf("/api/sessions/%d/drill%s", sid, query), fmt.Sprintf(`{"map":%d,"region":%d}`, m, r))
	cur, err := g.session(sid).Current()
	if err != nil {
		g.t.Fatal(err)
	}
	g.checkNode(fmt.Sprintf("session %d drill %d/%d%s", sid, m, r, query), hdr, body, cur, true)
}

func (g *identityRig) back(sid int) {
	g.t.Helper()
	hdr, body := g.do(http.MethodPost, fmt.Sprintf("/api/sessions/%d/back", sid), "")
	cur, err := g.session(sid).Current()
	if err != nil {
		g.t.Fatal(err)
	}
	g.checkNode(fmt.Sprintf("session %d back", sid), hdr, body, cur, false)
}

func (g *identityRig) current(sid int) {
	g.t.Helper()
	hdr, body := g.do(http.MethodGet, fmt.Sprintf("/api/sessions/%d", sid), "")
	cur, err := g.session(sid).Current()
	if err != nil {
		g.t.Fatal(err)
	}
	g.checkNode(fmt.Sprintf("session %d current", sid), hdr, body, cur, false)
}

func (g *identityRig) history(sid int) {
	g.t.Helper()
	hdr, body := g.do(http.MethodGet, fmt.Sprintf("/api/sessions/%d/history", sid), "")
	var want []oracleNode
	for _, n := range g.session(sid).History() {
		want = append(want, oracleNodeDTO(n))
	}
	g.check(fmt.Sprintf("session %d history", sid), hdr, body, oracleEncode(g.t, want), "")
}

func (g *identityRig) explore(query, text, wantCache string) {
	g.t.Helper()
	hdr, body := g.do(http.MethodPost, "/api/explore"+query, fmt.Sprintf(`{"cql":%q}`, text))
	_, res, _, err := g.srv.runCQL(context.Background(), text)
	if err != nil {
		g.t.Fatal(err)
	}
	st, err := cql.Parse(text, g.srv.table)
	if err != nil {
		g.t.Fatal(err)
	}
	dto := oracleResultDTO(res)
	dto.Input = st.String() // a statement's input echoes its WITH clause
	withRequestFields(g.t, &dto, body, false)
	g.check(fmt.Sprintf("explore%s %q", query, text), hdr, body, oracleEncode(g.t, dto), wantCache)
}

// TestResultBodiesMatchOracle: every result-bearing route answers with
// the oracle's bytes, Content-Type and cache verdict — session explore
// (miss, then another session's hit), drill, back (the parent with its
// children), current, history and stateless explore, with and without
// profiles, over flagged columns, category values that JSON and CQL
// escape, a WITH override, a sample and an empty base selection. A
// stateless explore's input is its statement's canonical text, WITH
// clause included.
func TestResultBodiesMatchOracle(t *testing.T) {
	g := newIdentityRig(t, identityTable(t))
	s0, s1 := g.newSession(), g.newSession()

	g.history(s0) // no node yet: the body is null
	g.sessionExplore(s0, "", "EXPLORE t")
	g.sessionExplore(s1, "", "EXPLORE t")
	g.drill(s0, 0, 0, "")
	g.drill(s0, 0, 1, "?profile=1")
	g.current(s0)
	g.back(s0)
	g.drill(s1, 1, 0, "?profile=perfetto")
	g.back(s1)
	g.history(s0)
	g.history(s1)
	g.sessionExplore(s1, "?profile=1", "EXPLORE t WHERE kind IN ('it''s', 'a<b')")
	g.sessionExplore(s1, "", "EXPLORE t WHERE score BETWEEN 5000 AND 6000")
	g.current(s1)
	g.history(s1)

	g.explore("", "EXPLORE t WHERE score BETWEEN 10 AND 90", "miss")
	g.explore("", "EXPLORE t WHERE score BETWEEN 10 AND 90", "hit")
	g.explore("?profile=perfetto", "EXPLORE t WITH MAPS 2", "miss")
	g.explore("?profile=1", "EXPLORE t WITH MAPS 2", "hit")
	g.explore("", "EXPLORE t WHERE score BETWEEN 5000 AND 6000", "hit")
	g.explore("", "EXPLORE t WHERE score BETWEEN 10 AND 90 WITH SAMPLE 0.4", "miss")
	g.explore("?profile=1", "EXPLORE t WHERE score BETWEEN 10 AND 90 WITH SAMPLE 0.4", "hit")

	g.covered(`"totalRows":1200,`, `"flagged":[`, `"baseCount":0,`, `"maps":null`, `"children":null`, `"children":[`,
		`\u003c`, `\u0026`, `\u2028`, `''`, `"profile":{`, `"profilePerfetto":`, `"ledger":{`, "null\n")
}

// TestResultBodiesMatchOracleCensus repeats the session walk on census.
func TestResultBodiesMatchOracleCensus(t *testing.T) {
	g := newIdentityRig(t, datagen.Census(4000, 3))
	s0 := g.newSession()
	g.sessionExplore(s0, "", "EXPLORE census WHERE age BETWEEN 17 AND 90")
	g.drill(s0, 0, 0, "")
	g.drill(s0, 1, 1, "")
	g.back(s0)
	g.current(s0)
	g.history(s0)
	g.explore("", "EXPLORE census WHERE age BETWEEN 17 AND 90", "hit")
}
