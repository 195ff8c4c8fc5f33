package atlas

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/server"
)

func TestFacadeExplore(t *testing.T) {
	tbl := CensusDataset(10000, 1)
	ex, err := New(tbl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Explore("EXPLORE census WHERE age BETWEEN 17 AND 90")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Maps) == 0 {
		t.Fatal("no maps")
	}
	if ex.Table() != tbl {
		t.Fatal("Table accessor wrong")
	}
}

func TestFacadeExploreWithSample(t *testing.T) {
	tbl := CensusDataset(20000, 2)
	ex, err := New(tbl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Explore("EXPLORE census WITH SAMPLE 0.1")
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRows != 2000 {
		t.Fatalf("sampled TotalRows = %d, want 2000", res.TotalRows)
	}
	if len(res.Maps) == 0 {
		t.Fatal("no maps on sample")
	}
}

func TestFacadeExploreErrors(t *testing.T) {
	ex, err := New(CensusDataset(100, 3), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"garbage", "EXPLORE census WHERE nope = 1", "EXPLORE census WITH DISTANCE bogus"} {
		if _, err := ex.Explore(q); err == nil {
			t.Errorf("Explore(%q) should fail", q)
		}
	}
}

// TestCutSketchAliasesMedian: the deprecated sketch strategy — as CQL
// WITH CUT sketch and as the CutSketch constant — answers exactly what
// the median strategy answers.
func TestCutSketchAliasesMedian(t *testing.T) {
	tbl := SkySurveyDataset(5000, 2)
	explore := func(opts Options, cql string) string {
		t.Helper()
		ex, err := New(tbl, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ex.Explore(cql)
		if err != nil {
			t.Fatal(err)
		}
		res.Elapsed = 0
		return FormatResult(res)
	}
	want := explore(DefaultOptions(), "EXPLORE sky WITH CUT median")
	if got := explore(DefaultOptions(), "EXPLORE sky WITH CUT sketch"); got != want {
		t.Errorf("WITH CUT sketch:\n%s\nWITH CUT median:\n%s", got, want)
	}
	opts := DefaultOptions()
	opts.Cut.Numeric = CutSketch
	if got := explore(opts, "EXPLORE sky"); got != want {
		t.Errorf("CutSketch:\n%s\nCutMedian:\n%s", got, want)
	}
}

func TestFacadeExploreQueryAndCount(t *testing.T) {
	ex, err := New(CensusDataset(5000, 4), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery("census", NewIn("sex", "Male"))
	n, err := ex.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || n == 5000 {
		t.Fatalf("Count = %d", n)
	}
	res, err := ex.ExploreQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.BaseCount != n {
		t.Fatalf("BaseCount = %d, want %d", res.BaseCount, n)
	}
}

func TestFacadeAnytime(t *testing.T) {
	ex, err := New(CensusDataset(20000, 5), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.ExploreAnytime(context.Background(), "EXPLORE census", DefaultAnytimeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Final == nil || len(res.Rounds) == 0 {
		t.Fatal("anytime returned nothing")
	}
}

// TestFacadeStatementPlainRejectsWith: Parse keeps a statement's WITH
// clause, and Plain — what the REPL's explore, a session, takes — refuses
// it by name.
func TestFacadeStatementPlainRejectsWith(t *testing.T) {
	ex, err := New(CensusDataset(200, 6), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st, err := ex.Parse("EXPLORE census WITH MAPS 2")
	if err != nil || st.With.Maps != 2 || st.String() != "EXPLORE census WITH MAPS 2" {
		t.Fatalf("Parse: %+v, %v", st, err)
	}
	if _, err := st.Plain(); !errors.Is(err, ErrWithClause) {
		t.Fatalf("Plain with WITH MAPS 2: %v, want ErrWithClause", err)
	}
}

// TestFacadeExplainRejectsWith: EXPLAIN plans the base scan, which only
// WITH SAMPLE shapes, so any other WITH option is refused by name rather
// than dropped, and a sample is planned.
func TestFacadeExplainRejectsWith(t *testing.T) {
	ex, err := New(CensusDataset(200, 6), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Explain("EXPLORE census WITH MAPS 2"); !errors.Is(err, ErrWithClause) {
		t.Fatalf("Explain with WITH MAPS 2: %v, want ErrWithClause", err)
	}
	if _, err := ex.Explain("EXPLORE census WITH SAMPLE 0.1 MAPS 2"); !errors.Is(err, ErrWithClause) {
		t.Fatalf("Explain with WITH SAMPLE 0.1 MAPS 2: %v, want ErrWithClause", err)
	}
	if _, err := ex.Explain("EXPLORE census WITH SAMPLE 0.1"); err != nil {
		t.Fatalf("Explain with WITH SAMPLE 0.1: %v", err)
	}
	if _, err := ex.Explain("EXPLORE census"); err != nil {
		t.Fatalf("Explain without WITH: %v", err)
	}
}

// TestFacadeAnytimeRejectsWith: the anytime rounds choose their own
// samples, so a WITH clause is refused by name rather than dropped.
func TestFacadeAnytimeRejectsWith(t *testing.T) {
	ex, err := New(CensusDataset(200, 6), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.ExploreAnytime(context.Background(), "EXPLORE census WITH SAMPLE 0.5", DefaultAnytimeOptions()); !errors.Is(err, ErrWithClause) {
		t.Fatalf("ExploreAnytime with WITH SAMPLE 0.5: %v, want ErrWithClause", err)
	}
}

// TestFacadeAndServerSampleAlike: one sampled statement answers with the
// same rows and maps through the façade and through POST /api/explore.
func TestFacadeAndServerSampleAlike(t *testing.T) {
	tbl := CensusDataset(5000, 4)
	const text = "EXPLORE census WHERE age BETWEEN 20 AND 60 WITH SAMPLE 0.2"
	ex, err := New(tbl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ex.Explore(text)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(tbl, DefaultOptions()).Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/api/explore", "application/json", strings.NewReader(fmt.Sprintf(`{"cql":%q}`, text)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got server.ResultDTO
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || got.TotalRows != 1000 || got.TotalRows != want.TotalRows || got.BaseCount != want.BaseCount {
		t.Fatalf("status %d, %d of %d rows over HTTP; the façade: %d of %d, want 1000 in all", resp.StatusCode, got.BaseCount, got.TotalRows, want.BaseCount, want.TotalRows)
	}
	var maps []server.MapDTO
	for _, m := range want.Maps {
		md := server.MapDTO{Attrs: m.Attrs, Entropy: m.Entropy}
		for ri, reg := range m.Regions {
			md.Regions = append(md.Regions, server.RegionDTO{Query: m.RegionText(ri), Count: reg.Count, Cover: reg.Cover})
		}
		maps = append(maps, md)
	}
	if len(maps) == 0 || !reflect.DeepEqual(got.Maps, maps) {
		t.Fatalf("maps differ:\nHTTP:    %+v\nfaçade:  %+v", got.Maps, maps)
	}
}

func TestFacadeSession(t *testing.T) {
	ex, err := New(CensusDataset(3000, 6), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := ex.NewSession()
	st, err := ex.Parse("EXPLORE census")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Explore(st.Query); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DrillDown(0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCSVRoundTrip(t *testing.T) {
	tbl := CensusDataset(100, 7)
	var sb strings.Builder
	if err := WriteCSV(tbl, &sb); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCSV("census", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 100 {
		t.Fatalf("rows = %d", got.NumRows())
	}
}

func TestFacadeJoinFK(t *testing.T) {
	orders, customers := OrdersDataset(1000, 50, 8)
	j, err := JoinFK(orders, "cid", customers, "cid", "orders_joined")
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 1000 {
		t.Fatalf("join rows = %d", j.NumRows())
	}
	ex, err := New(j, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Explore("EXPLORE orders_joined")
	if err != nil {
		t.Fatal(err)
	}
	// the planted cross-table dependency must surface as one map
	found := false
	for _, m := range res.Maps {
		if m.Key() == "amount,segment" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing {amount,segment} map; got %v", keysOf(res))
	}
}

// TestPaperFigure2 is the paper's introductory census query, run
// through the CQL facade: {age, sex} and {education, salary} each come
// back as one map, and the independent eye_color stays alone.
func TestPaperFigure2(t *testing.T) {
	ex, err := New(CensusDataset(10000, 7), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Explore("EXPLORE census")
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, m := range res.Maps {
		keys[m.Key()] = true
	}
	for _, want := range []string{"age,sex", "education,salary", "eye_color"} {
		if !keys[want] {
			t.Errorf("no {%s} map; got %v", want, keysOf(res))
		}
	}
	for k := range keys {
		if strings.Contains(k, "eye_color") && k != "eye_color" {
			t.Errorf("eye_color merged into {%s}", k)
		}
	}
}

// TestPaperJoinFactTableAlone is Section 5.2's multi-table claim: the
// {amount, segment} dependency spans the FK join, so exploring the fact
// table alone cannot expose it, while the joined table does.
func TestPaperJoinFactTableAlone(t *testing.T) {
	orders, customers := OrdersDataset(20000, 500, 13)
	joined, err := JoinFK(orders, "cid", customers, "cid", "orders_x_customers")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		tbl  *Table
		want bool
	}{{orders, false}, {joined, true}} {
		ex, err := New(c.tbl, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		res, err := ex.Explore("EXPLORE " + c.tbl.Name())
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, m := range res.Maps {
			found = found || m.Key() == "amount,segment"
		}
		if found != c.want {
			t.Errorf("%s: {amount,segment} map found = %v, want %v; maps %v", c.tbl.Name(), found, c.want, keysOf(res))
		}
	}
}

func keysOf(r *Result) []string {
	out := make([]string, len(r.Maps))
	for i, m := range r.Maps {
		out[i] = m.Key()
	}
	return out
}

func TestFacadeDatasets(t *testing.T) {
	if tbl, labels := BodyMetricsDataset(100, 1); tbl.NumRows() != 100 || len(labels) != 100 {
		t.Fatal("body metrics wrong")
	}
	if tbl := SkySurveyDataset(100, 1); tbl.NumRows() != 100 {
		t.Fatal("sky survey wrong")
	}
}

func TestFormatResult(t *testing.T) {
	ex, err := New(CensusDataset(2000, 9), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Explore("EXPLORE census")
	if err != nil {
		t.Fatal(err)
	}
	s := FormatResult(res)
	if !strings.Contains(s, "rows selected") || !strings.Contains(s, "#1 map on") {
		t.Fatalf("FormatResult = %q", s)
	}
}

func TestFacadeLoadCSVFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/d.csv"
	tbl := CensusDataset(50, 10)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(tbl, f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := LoadCSVFile("census", path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 50 || got.Name() != "census" {
		t.Fatalf("rows=%d name=%s", got.NumRows(), got.Name())
	}
	// default name = path
	got2, err := LoadCSVFile("", path)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Name() != path {
		t.Fatalf("name = %s", got2.Name())
	}
	if _, err := LoadCSVFile("", dir+"/missing.csv"); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestFacadeSummarize(t *testing.T) {
	sums, err := Summarize(CensusDataset(100, 11))
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 5 {
		t.Fatalf("summaries = %d", len(sums))
	}
	if sums[0].Name != "age" || sums[0].Min < 17 {
		t.Fatalf("age summary = %+v", sums[0])
	}
}

func TestFacadeDescribeAndExamples(t *testing.T) {
	ex, err := New(CensusDataset(5000, 12), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	region := NewQuery("census", NewIn("salary", ">50K"))
	profiles, err := ex.DescribeRegion(region)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) == 0 {
		t.Fatal("no profiles")
	}
	rows, err := ex.RegionExamples(region, 3, 1)
	if err != nil || len(rows) != 3 {
		t.Fatalf("examples = %d err %v", len(rows), err)
	}
	reps, err := ex.RepresentativeExamples(region, 2)
	if err != nil || len(reps) != 2 {
		t.Fatalf("representatives = %d err %v", len(reps), err)
	}
}

func TestFacadeFigure5Dataset(t *testing.T) {
	tbl, labels := Figure5Dataset(200, 1)
	if tbl.NumRows() != 200 || len(labels) != 200 {
		t.Fatal("shape wrong")
	}
	for _, l := range labels {
		if l < 0 || l > 3 {
			t.Fatalf("label %d", l)
		}
	}
}

func TestFacadeExploreSampleEdge(t *testing.T) {
	ex, err := New(CensusDataset(100, 13), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// SAMPLE too small for one row still works (clamped to 1)
	res, err := ex.Explore("EXPLORE census WITH SAMPLE 0.001")
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRows != 1 {
		t.Fatalf("TotalRows = %d", res.TotalRows)
	}
}
