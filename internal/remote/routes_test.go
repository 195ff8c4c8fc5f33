package remote

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/datagen"
)

// TestReadmeShardRoutes: README's list of shard routes names exactly the
// routes Server.Handler mounts, and each of them answers.
func TestReadmeShardRoutes(t *testing.T) {
	routes := func(path, pattern string) []string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, m := range regexp.MustCompile(pattern).FindAllStringSubmatch(string(data), -1) {
			if r := m[1] + " " + m[2]; !slices.Contains(out, r) {
				out = append(out, r)
			}
		}
		slices.Sort(out)
		return out
	}
	documented := routes("../../README.md", `(GET|POST) +(/shard/v1/[a-z]+)`)
	mounted := routes("server.go", `HandleFunc\("(GET|POST) (/shard/v1/[a-z]+)"`)
	if !slices.Equal(documented, mounted) {
		t.Fatalf("README lists shard routes %q; the server mounts %q", documented, mounted)
	}

	path := filepath.Join(t.TempDir(), "t.atl")
	if err := colstore.WriteFile(path, datagen.Census(300, 1), 64); err != nil {
		t.Fatal(err)
	}
	st, err := colstore.OpenWith(path, colstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	h := NewServer(st).Handler()
	for _, r := range mounted {
		method, target, _ := strings.Cut(r, " ")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, target, nil))
		if w.Code == http.StatusNotFound || w.Code == http.StatusMethodNotAllowed {
			t.Errorf("%s: HTTP %d", r, w.Code)
		}
	}
}
