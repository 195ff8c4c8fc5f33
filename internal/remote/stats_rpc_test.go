package remote

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/colstore"
	"repro/internal/datagen"
	"repro/internal/obsv"
	"repro/internal/shard"
)

// TestServerStatsRPC: GET /shard/v1/stats reports the shard server's
// own counters through the fabric client, keeps serving while the
// server drains, and carries the build version.
func TestServerStatsRPC(t *testing.T) {
	manifest := writeShardedInputs(t, datagen.Census(3_000, 23), 2, 256)
	f := startFabric(t, manifest, nil)

	be, err := testOpener().OpenShard(context.Background(), []string{f.servers[0].URL}, colstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := be.ServerStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The open's meta request and this stats request are counted.
	if st.Requests < 2 {
		t.Errorf("Requests = %d, want >= 2 after an open", st.Requests)
	}
	if st.BytesOut == 0 {
		t.Errorf("BytesOut = 0 after served responses")
	}
	if st.Draining {
		t.Error("fresh server reports draining")
	}

	// Draining servers still answer the stats RPC — drain must be
	// observable, and report itself.
	f.shardSrv[0].SetDraining(true)
	st2, err := be.ServerStats(context.Background())
	if err != nil {
		t.Fatalf("stats RPC refused during drain: %v", err)
	}
	if !st2.Draining {
		t.Error("draining server reports Draining=false")
	}
	if st2.Requests < st.Requests {
		t.Errorf("request counter went backwards: %d -> %d", st.Requests, st2.Requests)
	}
	f.shardSrv[0].SetDraining(false)

	// The DTO carries the build version (used by fleet dashboards to
	// spot mixed-version deployments).
	var dto shardStatsDTO
	c := be.(*Client)
	if err := c.getJSON(context.Background(), "stats", "/shard/v1/stats", nil, &dto); err != nil {
		t.Fatal(err)
	}
	if dto.Version != obsv.Version {
		t.Errorf("stats version = %q, want %q", dto.Version, obsv.Version)
	}
}

// TestSetShardServerStats: the Set-level seam the coordinator's fleet
// poller uses — remote shards poll, local shards report unpolled.
func TestSetShardServerStats(t *testing.T) {
	manifest := writeShardedInputs(t, datagen.Census(3_000, 23), 2, 256)
	f := startFabric(t, manifest, nil)
	set, err := shard.OpenWith(f.manifest, shard.Options{Remote: testOpener()})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	for i := 0; i < 2; i++ {
		st, polled, err := set.ShardServerStats(context.Background(), i)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if !polled {
			t.Fatalf("shard %d not polled over the fabric", i)
		}
		if st.Requests == 0 {
			t.Errorf("shard %d reports zero requests after opens", i)
		}
	}

	localSet, err := shard.OpenWith(manifest, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer localSet.Close()
	_, polled, err := localSet.ShardServerStats(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if polled {
		t.Error("local shard claimed to be polled over the fabric")
	}
}

// TestCutRetryAfterFailure: a cut whose caller gave up, or whose cut
// RPC failed, leaves nothing behind. The error is a *ShardError
// (carrying the CancelledError when the caller gave up), and the next
// cut costs exactly one cut RPC and answers.
func TestCutRetryAfterFailure(t *testing.T) {
	manifest := writeShardedInputs(t, datagen.Census(3_000, 29), 1, 256)
	for _, tc := range []struct {
		name   string
		cancel bool
	}{{"cancelled", true}, {"failed", false}} {
		t.Run(tc.name, func(t *testing.T) {
			var cutRPCs, failNext atomic.Int64
			failNext.Store(1)
			f := startFabric(t, manifest, func(_ int, h http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if strings.HasSuffix(r.URL.Path, "/cut") {
						cutRPCs.Add(1)
						if !tc.cancel && failNext.Add(-1) == 0 {
							http.Error(w, "synthetic cut failure", http.StatusInternalServerError)
							return
						}
					}
					h.ServeHTTP(w, r)
				})
			})
			opener := NewOpener(Options{Retries: -1})
			be, err := opener.OpenShard(context.Background(), []string{f.servers[0].URL}, colstore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer be.Close()
			age := be.Meta().Schema.Index("age")

			ctx, cancel := context.WithCancel(context.Background())
			if tc.cancel {
				cancel()
			}
			var a shard.CutAnswer
			err = be.Cut(ctx, shard.CutRequest{Kind: shard.CutValues, Cols: []int{age}}, &a)
			cancel()
			var se *ShardError
			if !errors.As(err, &se) {
				t.Fatalf("first cut: err = %v, want a *ShardError", err)
			}
			var ce *obsv.CancelledError
			if tc.cancel != errors.As(err, &ce) {
				t.Errorf("first cut: err = %v, carries CancelledError = %v, want %v", err, !tc.cancel, tc.cancel)
			}

			before := cutRPCs.Load()
			if err := be.Cut(context.Background(), shard.CutRequest{Kind: shard.CutValues, Cols: []int{age}}, &a); err != nil {
				t.Fatalf("retry after a %s first cut: %v", tc.name, err)
			}
			if got := cutRPCs.Load() - before; got != 1 {
				t.Errorf("retry cost %d cut RPCs, want exactly 1", got)
			}
			if len(a.Values) != 1 || len(a.Values[0].Vals) == 0 {
				t.Error("retry answered no ages")
			}
		})
	}
}
