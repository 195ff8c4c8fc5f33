package remote

import (
	"errors"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/query"
	"repro/internal/session"
	"repro/internal/shard"
)

// failure-injection coverage: a remote shard that times out, truncates
// a payload or serves corrupt bytes must fail the exploration with an
// error NAMING that shard — never a panic, and never a silently partial
// map.

// exploreRemote opens the fabric manifest and runs one exploration,
// recovering any panic into a test failure.
func exploreRemote(t *testing.T, manifest string, opener *Opener, q query.Query) (res *core.Result, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("remote exploration panicked: %v", r)
		}
	}()
	set, oerr := shard.OpenWith(manifest, shard.Options{Remote: opener})
	if oerr != nil {
		return nil, oerr
	}
	defer set.Close()
	opts := core.DefaultOptions()
	opts.Parallelism = 2
	cart, cerr := core.NewCartographerWith(set.Table(), opts, set.Provider(opts.Parallelism))
	if cerr != nil {
		return nil, cerr
	}
	return cart.Explore(q)
}

// assertNamedShardError checks that err names the failing shard's URL
// through a *ShardError in its chain.
func assertNamedShardError(t *testing.T, err error, url string) {
	t.Helper()
	if err == nil {
		t.Fatal("expected an error naming the failing shard, got success")
	}
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("error chain carries no *ShardError: %v", err)
	}
	if se.Location != url {
		t.Errorf("ShardError names %q, want %q", se.Location, url)
	}
	if !strings.Contains(err.Error(), url) {
		t.Errorf("error text %q does not name the shard %q", err.Error(), url)
	}
}

// dataPlane reports whether a request is on the data path (chunks or
// statistics); metadata requests stay healthy so the set opens and the
// failure hits mid-exploration — the harder case.
func dataPlane(r *http.Request) bool {
	return strings.HasSuffix(r.URL.Path, "/chunk") || strings.HasSuffix(r.URL.Path, "/cut")
}

func TestRemoteShardTimeout(t *testing.T) {
	tbl := datagen.Census(4_000, 17)
	local := writeShardedInputs(t, tbl, 2, 256)
	f := startFabric(t, local, func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if dataPlane(r) {
				time.Sleep(500 * time.Millisecond)
			}
			h.ServeHTTP(w, r)
		})
	})
	opener := NewOpener(Options{Timeout: 100 * time.Millisecond, Retries: -1})
	res, err := exploreRemote(t, f.manifest, opener, query.New("census", query.NewRange("age", 18, 80)))
	if res != nil {
		t.Error("got a result from an exploration whose shard timed out; partial answers must not be served")
	}
	assertNamedShardError(t, err, f.servers[1].URL)
}

// truncating serves the real chunk answer but cuts the body in half,
// keeping the declared length — the mid-transfer connection loss shape.
func truncating(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/chunk") {
			h.ServeHTTP(w, r)
			return
		}
		rec := newRecorder()
		h.ServeHTTP(rec, r)
		for k, vs := range rec.hdr {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		body := rec.body
		w.Header().Set("Content-Length", strconv.Itoa(len(body)/2))
		w.WriteHeader(rec.status)
		_, _ = w.Write(body[:len(body)/2])
	})
}

func TestRemoteTruncatedChunk(t *testing.T) {
	tbl := datagen.Census(4_000, 19)
	local := writeShardedInputs(t, tbl, 2, 256)
	f := startFabric(t, local, func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return truncating(h)
	})
	opener := NewOpener(Options{Timeout: 2 * time.Second, Retries: -1})
	res, err := exploreRemote(t, f.manifest, opener, query.New("census", query.NewRange("age", 18, 80)))
	if res != nil {
		t.Error("got a result despite truncated chunk payloads")
	}
	assertNamedShardError(t, err, f.servers[0].URL)
	if !strings.Contains(strings.ToLower(err.Error()), "truncat") && !strings.Contains(strings.ToLower(err.Error()), "eof") {
		t.Errorf("error %q does not mention truncation", err.Error())
	}
}

// corrupting flips a byte of every chunk payload while leaving the CRC
// header intact, so the client's checksum must catch it.
func corrupting(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/chunk") {
			h.ServeHTTP(w, r)
			return
		}
		rec := newRecorder()
		h.ServeHTTP(rec, r)
		for k, vs := range rec.hdr {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		body := append([]byte(nil), rec.body...)
		if len(body) > 0 {
			body[len(body)/2] ^= 0xff
		}
		w.WriteHeader(rec.status)
		_, _ = w.Write(body)
	})
}

func TestRemoteCorruptChunk(t *testing.T) {
	tbl := datagen.Census(4_000, 23)
	local := writeShardedInputs(t, tbl, 2, 256)
	f := startFabric(t, local, func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		return corrupting(h)
	})
	opener := NewOpener(Options{Timeout: 2 * time.Second, Retries: 1})
	res, err := exploreRemote(t, f.manifest, opener, query.New("census", query.NewRange("age", 18, 80)))
	if res != nil {
		t.Error("got a result despite CRC-mismatched chunk payloads")
	}
	assertNamedShardError(t, err, f.servers[1].URL)
	if !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("error %q does not mention the checksum", err.Error())
	}
	// The client retried the corrupt payload before giving up.
	if opener.Stats().Retries == 0 {
		t.Error("corrupt payloads were not retried")
	}
}

// TestRemoteStatsPlaneError injects a 500 on the statistics plane and
// checks the session path also fails with a named error.
func TestRemoteStatsPlaneError(t *testing.T) {
	tbl := datagen.Census(4_000, 29)
	local := writeShardedInputs(t, tbl, 2, 256)
	f := startFabric(t, local, func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/cut") {
				http.Error(w, "synthetic shard failure", http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	opener := NewOpener(Options{Timeout: 2 * time.Second, Retries: -1})
	set, err := shard.OpenWith(f.manifest, shard.Options{Remote: opener})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	opts := core.DefaultOptions()
	opts.Parallelism = 1
	cart, err := core.NewCartographerWith(set.Table(), opts, set.Provider(1))
	if err != nil {
		t.Fatal(err)
	}
	sess := session.New(cart)
	if _, err := sess.Explore(query.New("census")); err == nil {
		t.Fatal("session exploration succeeded despite a failing statistics plane")
	} else {
		assertNamedShardError(t, err, f.servers[0].URL)
	}
}

// TestRemoteOpenerRequired checks the configuration error of opening a
// remote manifest without a fabric opener.
func TestRemoteOpenerRequired(t *testing.T) {
	tbl := datagen.Census(2_000, 31)
	local := writeShardedInputs(t, tbl, 2, 256)
	f := startFabric(t, local, nil)
	if _, err := shard.OpenWith(f.manifest, shard.Options{}); err == nil {
		t.Fatal("opening a remote manifest without a remote opener should fail")
	} else if !strings.Contains(err.Error(), "remote") {
		t.Errorf("error %q does not explain the missing opener", err)
	}
}

// recorder is a minimal ResponseWriter capture for the injectors.
type recorder struct {
	hdr    http.Header
	status int
	body   []byte
}

func newRecorder() *recorder { return &recorder{hdr: http.Header{}, status: http.StatusOK} }

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(status int) { r.status = status }

func (r *recorder) Write(p []byte) (int, error) {
	r.body = append(r.body, p...)
	return len(p), nil
}
