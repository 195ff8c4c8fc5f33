package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

func TestLoadTableBundledDatasets(t *testing.T) {
	cases := []struct {
		dataset string
		rows    int
	}{
		{"census", 100},
		{"body", 100},
		{"sky", 100},
		{"orders", 100},
	}
	for _, c := range cases {
		tbl, err := loadTable(c.dataset, c.rows, 1, "", "")
		if err != nil {
			t.Errorf("%s: %v", c.dataset, err)
			continue
		}
		if tbl.NumRows() == 0 {
			t.Errorf("%s: empty table", c.dataset)
		}
	}
	if _, err := loadTable("nope", 10, 1, "", ""); err == nil {
		t.Error("unknown dataset should fail")
	}
}

func TestLoadTableCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.csv")
	if err := os.WriteFile(path, []byte("x,y\n1,a\n2,b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tbl, err := loadTable("", 0, 0, path, "mytable")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Name() != "mytable" || tbl.NumRows() != 2 {
		t.Fatalf("table = %s rows %d", tbl.Name(), tbl.NumRows())
	}
	if _, err := loadTable("", 0, 0, filepath.Join(dir, "missing.csv"), ""); err == nil {
		t.Error("missing file should fail")
	}
}

func TestIngestAndLoadStore(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "data.csv")
	if err := os.WriteFile(csvPath, []byte("x,y\n1,a\n2,b\n,c\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := runIngest([]string{"-csv", csvPath, "-table", "mytable", "-chunk", "64"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	storePath := filepath.Join(dir, "data.atl")
	if _, err := os.Stat(storePath); err != nil {
		t.Fatalf("default output path not written: %v", err)
	}
	if !strings.Contains(out.String(), "3 rows") {
		t.Errorf("ingest summary = %q", out.String())
	}
	handle, err := atlas.OpenStoreWith(storePath, atlas.StoreOpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer handle.Close()
	tbl := handle.Table()
	if tbl.Name() != "mytable" || tbl.NumRows() != 3 {
		t.Fatalf("store table = %s rows %d", tbl.Name(), tbl.NumRows())
	}
	if !tbl.Column(0).IsNull(2) {
		t.Error("NULL cell lost through ingest round trip")
	}
	// Required flag and bad chunk sizes error out.
	if err := runIngest(nil, &out); err == nil {
		t.Error("missing -csv must fail")
	}
	if err := runIngest([]string{"-csv", csvPath, "-chunk", "100"}, &out); err == nil {
		t.Error("chunk size not a multiple of 64 must fail")
	}
}

// TestReplay replays a hand-built three-entry workload — a stateless
// explore, then a session explore and a drill — against the in-process
// census in both pacings, and checks that -pacing and -speed refuse
// values they would otherwise have reinterpreted.
func TestReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "workload.jsonl")
	jsonl := `{"format":"atlas-workload","version":1,"table":"census","start":"2026-01-01T00:00:00Z"}
{"seq":0,"offsetNs":0,"op":"explore","input":"EXPLORE census WHERE age BETWEEN 25 AND 60","session":-1}
{"seq":1,"offsetNs":1000000,"op":"session-explore","input":"EXPLORE census WHERE age > 50","session":0}
{"seq":2,"offsetNs":2000000,"op":"drill","input":"drill map=0 region=0","session":0}
`
	if err := os.WriteFile(path, []byte(jsonl), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-slo-strict", path},
		{"-pacing", "open", "-speed", "10", "-slo-strict", path},
	} {
		var out strings.Builder
		if err := runReplay(args, &out); err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out.String())
		}
		for _, want := range []string{"3 entries, 1 sessions", "byte-identical", "3 requests", "SLO: pass"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%v: output lacks %q:\n%s", args, want, out.String())
			}
		}
	}
	if err := runReplay([]string{"-pacing", "opne", path}, io.Discard); !errors.Is(err, errPacing) {
		t.Errorf("-pacing opne: err = %v, want %v", err, errPacing)
	}
	if err := runReplay([]string{"-speed", "-1", path}, io.Discard); !errors.Is(err, errSpeed) {
		t.Errorf("-speed -1: err = %v, want %v", err, errSpeed)
	}
	if err := runReplay([]string{path, "-slo-strict"}, io.Discard); err == nil {
		t.Error("a flag after the workload file must fail, not be ignored")
	}
}
