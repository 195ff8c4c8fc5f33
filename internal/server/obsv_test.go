package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/obsv"
	"repro/internal/remote"
	"repro/internal/storage"
)

// Prometheus text-format line shapes (exposition format 0.0.4).
var (
	promHelpRe   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$`)
	promTypeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	promSampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+$`)
)

// parsePrometheus asserts every line of a text exposition parses and
// returns the metric family names (from # TYPE lines).
func parsePrometheus(t *testing.T, text string) []string {
	t.Helper()
	var families []string
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case promHelpRe.MatchString(line):
		case promTypeRe.MatchString(line):
			families = append(families, promTypeRe.FindStringSubmatch(line)[1])
		case promSampleRe.MatchString(line):
			val := line[strings.LastIndexByte(line, ' ')+1:]
			if _, err := strconv.ParseFloat(val, 64); err != nil && val != "+Inf" && val != "-Inf" && val != "NaN" {
				t.Fatalf("unparseable sample value in %q", line)
			}
		default:
			t.Fatalf("line does not parse as Prometheus text format: %q", line)
		}
	}
	return families
}

// TestMetricsEndpointPrometheus is the metrics acceptance test: a
// coordinator over a remote sharded store must expose a parseable
// Prometheus page with at least 12 metric families spanning the
// server, engine, store and fabric layers.
func TestMetricsEndpointPrometheus(t *testing.T) {
	remoteManifest, _ := startRemoteManifest(t, 2)
	opts := core.DefaultOptions()
	opts.Parallelism = 2
	srv, err := NewFromStoreWith(remoteManifest, opts, StoreConfig{
		Remote: remote.NewOpener(remote.Options{Timeout: 10 * time.Second}),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	// One exploration so the counters have moved.
	req := httptest.NewRequest(http.MethodPost, "/api/explore",
		bytes.NewReader(mustJSON(t, map[string]string{"cql": "EXPLORE census WHERE age BETWEEN 25 AND 60"})))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("explore: HTTP %d: %s", w.Code, w.Body.String())
	}
	if rid := w.Header().Get("X-Atlas-Request-Id"); !strings.HasPrefix(rid, "q-") {
		t.Errorf("no request id on the response: %q", rid)
	}

	req = httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	families := parsePrometheus(t, w.Body.String())
	if len(families) < 12 {
		t.Errorf("only %d metric families, want >= 12:\n%v", len(families), families)
	}
	byName := map[string]bool{}
	for _, f := range families {
		byName[f] = true
	}
	for _, want := range []string{
		"atlas_http_requests_total",      // server layer
		"atlas_explore_duration_seconds", // server layer
		"atlas_engine_chunks_pruned_total",
		"atlas_store_bytes_read_total",
		"atlas_fabric_rpcs_total",
		"atlas_result_cache_hits_total", // shared result cache
		"atlas_result_cache_misses_total",
		"atlas_result_cache_coalesced_total",
		"atlas_result_cache_evictions_total",
		"atlas_result_cache_bytes",
	} {
		if !byName[want] {
			t.Errorf("metric family %q missing from /metrics", want)
		}
	}
	// The scrape itself passes through the middleware, so the counter
	// covers the explore plus this request.
	text := w.Body.String()
	m := regexp.MustCompile(`(?m)^atlas_http_requests_total (\d+)$`).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("no atlas_http_requests_total sample:\n%s", text)
	}
	if n, _ := strconv.Atoi(m[1]); n < 2 {
		t.Errorf("request counter at %d, want >= 2", n)
	}
	if !strings.Contains(text, `layer="fabric"`) || !strings.Contains(text, `layer="engine"`) {
		t.Errorf("layer labels missing:\n%s", text)
	}
}

// TestExploreProfileParam: ?profile=1 returns the span tree inline in
// the DTO, rooted at "explore" and satisfying the tree invariants, with
// remote shard-server spans nested under the coordinator's RPCs.
func TestExploreProfileParam(t *testing.T) {
	remoteManifest, _ := startRemoteManifest(t, 2)
	opts := core.DefaultOptions()
	opts.Parallelism = 2
	srv, err := NewFromStoreWith(remoteManifest, opts, StoreConfig{
		Remote: remote.NewOpener(remote.Options{Timeout: 10 * time.Second}),
	})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/api/explore?profile=1",
		bytes.NewReader(mustJSON(t, map[string]string{"cql": "EXPLORE census"})))
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("explore: HTTP %d: %s", w.Code, w.Body.String())
	}
	var dto ResultDTO
	if err := json.Unmarshal(w.Body.Bytes(), &dto); err != nil {
		t.Fatal(err)
	}
	if dto.Profile == nil {
		t.Fatal("profile=1 returned no span tree")
	}
	if dto.Profile.Name != "explore" {
		t.Errorf("profile root is %q, want explore", dto.Profile.Name)
	}
	assertProfileTree(t, dto.Profile)
	rpcs, nremote := 0, 0
	var walk func(*obsv.SpanJSON)
	walk = func(sp *obsv.SpanJSON) {
		if strings.HasPrefix(sp.Name, "rpc ") {
			rpcs++
		}
		if sp.Remote {
			nremote++
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	walk(dto.Profile)
	if rpcs == 0 || nremote == 0 {
		t.Errorf("profile has %d rpc spans and %d remote subtrees, want both > 0", rpcs, nremote)
	}

	// Without the parameter, no profile rides along.
	req = httptest.NewRequest(http.MethodPost, "/api/explore",
		bytes.NewReader(mustJSON(t, map[string]string{"cql": "EXPLORE census"})))
	w = httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, req)
	var plain ResultDTO
	if err := json.Unmarshal(w.Body.Bytes(), &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Profile != nil {
		t.Error("unprofiled explore returned a span tree")
	}
}

func datagenCensus(t *testing.T) *storage.Table {
	t.Helper()
	return datagen.Census(5000, 1)
}

func assertProfileTree(t *testing.T, sp *obsv.SpanJSON) {
	t.Helper()
	if sp.DurNs <= 0 {
		t.Fatalf("span %q has non-positive duration %d", sp.Name, sp.DurNs)
	}
	for _, c := range sp.Children {
		if c.StartNs < sp.StartNs || c.StartNs+c.DurNs > sp.StartNs+sp.DurNs {
			t.Fatalf("child %q escapes parent %q", c.Name, sp.Name)
		}
		assertProfileTree(t, c)
	}
}

// TestSessionExploreProfileParam covers the session path: profile=1 on
// a session explore attaches the tree to the node's result.
func TestSessionExploreProfileParam(t *testing.T) {
	ts := newTestServer(t)
	var sid struct{ ID int }
	resp, err := http.Post(ts.URL+"/api/sessions", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&sid); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Post(fmt.Sprintf("%s/api/sessions/%d/explore?profile=1", ts.URL, sid.ID),
		"application/json", bytes.NewReader(mustJSON(t, map[string]string{"cql": "EXPLORE census"})))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session explore: HTTP %d", resp.StatusCode)
	}
	var node NodeDTO
	if err := json.NewDecoder(resp.Body).Decode(&node); err != nil {
		t.Fatal(err)
	}
	if node.Result.Profile == nil {
		t.Fatal("session explore profile=1 returned no span tree")
	}
	assertProfileTree(t, node.Result.Profile)
}

// TestSlowQueryLog: explorations at or above the threshold land in the
// log with their request id and CQL; the slow-query counter moves.
func TestSlowQueryLog(t *testing.T) {
	tbl := datagenCensus(t)
	srv := New(tbl, core.DefaultOptions())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	var mu sync.Mutex
	var lines []string
	srv.SetSlowQueryLog(time.Nanosecond, func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	resp, err := http.Post(ts.URL+"/api/explore", "application/json",
		bytes.NewReader(mustJSON(t, map[string]string{"cql": "EXPLORE census"})))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore: HTTP %d", resp.StatusCode)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 {
		t.Fatalf("slow-query log has %d lines, want 1: %v", len(lines), lines)
	}
	line := lines[0]
	if !strings.Contains(line, "slow query:") || !strings.Contains(line, "rid=q-") ||
		!strings.Contains(line, `cql="EXPLORE census"`) {
		t.Errorf("malformed slow-query line: %q", line)
	}
	if got := srv.metrics.slowQueries.Value(); got != 1 {
		t.Errorf("slow-query counter at %d, want 1", got)
	}
}

// TestStatsServerSection: /api/stats now carries the HTTP layer's own
// counters with explore latency quantiles.
func TestStatsServerSection(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/api/explore", "application/json",
		bytes.NewReader(mustJSON(t, map[string]string{"cql": "EXPLORE census"})))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dto StatsDTO
	if err := json.NewDecoder(resp.Body).Decode(&dto); err != nil {
		t.Fatal(err)
	}
	if dto.Server == nil {
		t.Fatal("/api/stats has no server section")
	}
	if dto.Server.Explores < 1 || dto.Server.Requests < 2 {
		t.Errorf("server section did not count: %+v", dto.Server)
	}
	if dto.Server.ExploreP99s < dto.Server.ExploreP50s {
		t.Errorf("p99 %v below p50 %v", dto.Server.ExploreP99s, dto.Server.ExploreP50s)
	}
}

// TestMetricInventoryMatchesREADME: the metrics table in README lists
// exactly the atlas_* families a coordinator registers. The coordinator
// serves a remote sharded store, so the store, fabric and fleet families
// register too, and answers one explore, so the per-op histogram does.
func TestMetricInventoryMatchesREADME(t *testing.T) {
	remoteManifest, _ := startRemoteManifest(t, 2)
	srv, err := NewFromStoreWith(remoteManifest, core.DefaultOptions(), StoreConfig{
		Remote: remote.NewOpener(remote.Options{Timeout: 10 * time.Second}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/explore",
		bytes.NewReader(mustJSON(t, map[string]string{"cql": "EXPLORE census WHERE age > 30"}))))
	if w.Code != http.StatusOK {
		t.Fatalf("explore: HTTP %d: %s", w.Code, w.Body.String())
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	registered := map[string]bool{}
	for _, f := range parsePrometheus(t, w.Body.String()) {
		if strings.HasPrefix(f, "atlas_") {
			registered[f] = true
		}
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "### Metrics (`GET /metrics`)")
	if !ok {
		t.Fatal("README has no Metrics section")
	}
	section, _, _ = strings.Cut(section, "\n### ")
	documented := map[string]bool{}
	name := regexp.MustCompile("`(atlas_[^`]*)`")
	brace := regexp.MustCompile(`\{([^}]*)\}`)
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
			// Expand one {a,b,…} group: atlas_x_{a,b}_total names two.
			g := brace.FindStringSubmatchIndex(m[1])
			if g == nil {
				documented[m[1]] = true
				continue
			}
			for _, alt := range strings.Split(m[1][g[2]:g[3]], ",") {
				documented[m[1][:g[0]]+alt+m[1][g[1]:]] = true
			}
		}
	}
	for f := range registered {
		if !documented[f] {
			t.Errorf("%s is registered but has no row in README's metrics table", f)
		}
	}
	for f := range documented {
		if !registered[f] {
			t.Errorf("README's metrics table lists %s, which the coordinator does not register", f)
		}
	}
}
