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
	// The open itself already cost meta and zones RPCs.
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

	localSet, err := shard.Open(manifest)
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

// TestBatchStatsRetryAfterFailure: a first statistics demand that is
// cancelled, or whose batchstats RPC fails, caches nothing and poisons
// nothing. The error is a *ShardError (carrying the CancelledError when
// the caller gave up), the next demand costs exactly one batchstats RPC
// and no other statistics call, and later demands answer from memory.
func TestBatchStatsRetryAfterFailure(t *testing.T) {
	manifest := writeShardedInputs(t, datagen.Census(3_000, 29), 1, 256)
	for _, tc := range []struct {
		name   string
		cancel bool
	}{{"cancelled", true}, {"failed", false}} {
		t.Run(tc.name, func(t *testing.T) {
			var batchRPCs, otherStats, failNext atomic.Int64
			failNext.Store(1)
			f := startFabric(t, manifest, func(_ int, h http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					switch p := r.URL.Path; {
					case strings.HasSuffix(p, "/batchstats"):
						batchRPCs.Add(1)
						if !tc.cancel && failNext.Add(-1) == 0 {
							http.Error(w, "synthetic batch failure", http.StatusInternalServerError)
							return
						}
					case strings.HasSuffix(p, "/values"), strings.HasSuffix(p, "/catcounts"), strings.HasSuffix(p, "/boolcounts"):
						// Per-attribute statistics paths: a client that
						// gave up on the batch would land here.
						otherStats.Add(1)
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

			ctx, cancel := context.WithCancel(context.Background())
			if tc.cancel {
				cancel()
			}
			_, err = be.NumericValues(ctx, "age")
			cancel()
			var se *ShardError
			if !errors.As(err, &se) {
				t.Fatalf("first demand: err = %v, want a *ShardError", err)
			}
			var ce *obsv.CancelledError
			if tc.cancel != errors.As(err, &ce) {
				t.Errorf("first demand: err = %v, carries CancelledError = %v, want %v", err, !tc.cancel, tc.cancel)
			}

			before := batchRPCs.Load()
			if _, err := be.NumericValues(context.Background(), "age"); err != nil {
				t.Fatalf("retry after a %s first demand: %v", tc.name, err)
			}
			if got := batchRPCs.Load() - before; got != 1 || otherStats.Load() != 0 {
				t.Errorf("retry cost %d batchstats and %d other statistics RPCs, want exactly 1 batchstats", got, otherStats.Load())
			}
			if _, _, err := be.CategoryCounts(context.Background(), "sex"); err != nil {
				t.Fatal(err)
			}
			if got := batchRPCs.Load() - before; got != 1 || otherStats.Load() != 0 {
				t.Errorf("a cached demand went to the wire: %d batchstats, %d other statistics RPCs", got, otherStats.Load())
			}
		})
	}
}
