package server

import (
	"context"
	"strconv"
	"sync"
	"time"

	"repro/internal/obsv"
	"repro/internal/par"
	"repro/internal/shard"
)

// This file is the fleet rollup: the coordinator polls each remote
// shard server's own counters (GET /shard/v1/stats, one RPC per shard)
// and aggregates them into atlas_fabric_shard_* metric families on its
// own /metrics and the fabric section of /api/stats — one Prometheus
// scrape sees the whole deployment. Polls are cached with a short TTL
// and refreshed from the registry's scrape hook, so a scrape costs at
// most one concurrent round of stats RPCs and /api/stats piggybacks on
// the same snapshot.

// fleetPollTTL is how stale a cached fleet snapshot may be before the
// next scrape re-polls.
const fleetPollTTL = time.Second

// fleetPollTimeout bounds one polling round; a hung shard server costs
// a scrape this much at worst, never a wedged scrape.
const fleetPollTimeout = 2 * time.Second

// fleetShard is one shard's polled state.
type fleetShard struct {
	// Shard and Location identify the shard (manifest order, primary
	// location).
	Shard    int
	Location string
	// Remote reports whether the shard is served over the fabric; local
	// shards are never polled.
	Remote bool
	// Polled reports a successful stats RPC this round; false with a
	// nil Err means the backend lacks the capability (an old server).
	Polled bool
	// Err is the open or RPC failure of an attempted poll.
	Err error
	// Stats is the server's counter snapshot — on a failed poll, the
	// last good one (counters should not bounce to zero because one
	// probe timed out).
	Stats shard.ServerStats
}

// fleetPoller caches per-shard server stats behind a TTL.
type fleetPoller struct {
	set *shard.Set
	// ttl/timeout are configurable for tests; newFleetPoller sets the
	// production defaults.
	ttl     time.Duration
	timeout time.Duration

	mu       sync.Mutex
	last     []fleetShard
	lastPoll time.Time
}

func newFleetPoller(set *shard.Set) *fleetPoller {
	return &fleetPoller{set: set, ttl: fleetPollTTL, timeout: fleetPollTimeout}
}

// remoteShards lists the manifest indexes served over the fabric.
func (f *fleetPoller) remoteShards() []int {
	var out []int
	for i, sf := range f.set.Manifest().Shards {
		if shard.IsRemoteLocation(sf.File) {
			out = append(out, i)
		}
	}
	return out
}

// cached returns the last snapshot without polling (nil before the
// first poll).
func (f *fleetPoller) cached() []fleetShard {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.last
}

// snapshot returns the per-shard stats, re-polling concurrently when
// the cache is older than the TTL.
func (f *fleetPoller) snapshot() []fleetShard {
	f.mu.Lock()
	if f.last != nil && time.Since(f.lastPoll) < f.ttl {
		out := f.last
		f.mu.Unlock()
		return out
	}
	prev := f.last
	f.mu.Unlock()

	m := f.set.Manifest()
	out := make([]fleetShard, len(m.Shards))
	ctx, cancel := context.WithTimeout(context.Background(), f.timeout)
	defer cancel()
	_ = par.For(len(m.Shards), len(m.Shards), func(i int) error {
		fs := fleetShard{Shard: i, Location: m.Shards[i].File, Remote: shard.IsRemoteLocation(m.Shards[i].File)}
		if fs.Remote {
			st, polled, err := f.set.ShardServerStats(ctx, i)
			fs.Err = err
			fs.Polled = polled && err == nil
			if fs.Polled {
				fs.Stats = st
			} else if prev != nil && i < len(prev) {
				fs.Stats = prev[i].Stats
			}
		}
		out[i] = fs
		return nil
	})
	f.mu.Lock()
	f.last, f.lastPoll = out, time.Now()
	f.mu.Unlock()
	return out
}

// register wires the fleet's metric families into the coordinator
// registry: a scrape hook refreshes the snapshot once, then per-shard
// funcs read it. Families are distinct from the opener-side
// atlas_fabric_* counters (which count the coordinator's OWN traffic);
// these are the shard servers' counters, labeled by shard and location.
func (f *fleetPoller) register(r *obsv.Registry) {
	remotes := f.remoteShards()
	if len(remotes) == 0 {
		return
	}
	r.OnScrape(func() { f.snapshot() })
	r.GaugeFunc("atlas_fabric_shards", "remote shard servers in the manifest", nil, func() float64 {
		return float64(len(remotes))
	})
	r.GaugeFunc("atlas_fabric_shards_healthy", "remote shard servers answering the stats RPC", nil, func() float64 {
		n := 0
		for _, fs := range f.cached() {
			if fs.Remote && fs.Polled && !fs.Stats.Draining {
				n++
			}
		}
		return float64(n)
	})
	m := f.set.Manifest()
	for _, i := range remotes {
		i := i
		lbl := map[string]string{"shard": strconv.Itoa(i), "location": m.Shards[i].File}
		at := func(get func(fleetShard) float64) func() float64 {
			return func() float64 {
				if c := f.cached(); i < len(c) {
					return get(c[i])
				}
				return 0
			}
		}
		r.GaugeFunc("atlas_fabric_shard_up", "1 when the shard server answered the last stats poll", lbl, at(func(fs fleetShard) float64 {
			if fs.Polled {
				return 1
			}
			return 0
		}))
		r.GaugeFunc("atlas_fabric_shard_draining", "1 while the shard server drains", lbl, at(func(fs fleetShard) float64 {
			if fs.Stats.Draining {
				return 1
			}
			return 0
		}))
		r.CounterFunc("atlas_fabric_shard_requests_total", "fabric requests the shard server has served", lbl, at(func(fs fleetShard) float64 {
			return float64(fs.Stats.Requests)
		}))
		r.CounterFunc("atlas_fabric_shard_bytes_out_total", "response bytes the shard server has sent", lbl, at(func(fs fleetShard) float64 {
			return float64(fs.Stats.BytesOut)
		}))
		r.CounterFunc("atlas_fabric_shard_stat_computes_total", "cut answers computed on the shard server", lbl, at(func(fs fleetShard) float64 {
			return float64(fs.Stats.StatComputes)
		}))
		r.CounterFunc("atlas_fabric_shard_chunk_serves_total", "chunk payloads the shard server has served", lbl, at(func(fs fleetShard) float64 {
			return float64(fs.Stats.ChunkServes)
		}))
		r.GaugeFunc("atlas_fabric_shard_cache_hit_rate", "shard server decoded-chunk cache hit fraction", lbl, at(func(fs fleetShard) float64 {
			return fs.Stats.CacheHitRate()
		}))
	}
}

// FabricShardDTO is one shard server's rollup on /api/stats.
type FabricShardDTO struct {
	Shard    int    `json:"shard"`
	Location string `json:"location"`
	OK       bool   `json:"ok"`
	Error    string `json:"error,omitempty"`
	// Unsupported marks backends without the stats RPC.
	Unsupported   bool    `json:"unsupported,omitempty"`
	Requests      int64   `json:"requests"`
	BytesOut      int64   `json:"bytesOut"`
	StatComputes  int64   `json:"statComputes"`
	ChunkServes   int64   `json:"chunkServes"`
	CacheHitRate  float64 `json:"cacheHitRate"`
	Draining      bool    `json:"draining,omitempty"`
	BytesRead     int64   `json:"bytesRead,omitempty"`
	ChunksDecoded int64   `json:"chunksDecoded,omitempty"`
}

// fleetStats builds the per-shard rollup for /api/stats; nil when the
// server has no remote shards.
func (s *Server) fleetStats() []FabricShardDTO {
	if s.fleet == nil || len(s.fleet.remoteShards()) == 0 {
		return nil
	}
	var out []FabricShardDTO
	for _, fs := range s.fleet.snapshot() {
		if !fs.Remote {
			continue
		}
		d := FabricShardDTO{
			Shard:         fs.Shard,
			Location:      fs.Location,
			OK:            fs.Polled,
			Unsupported:   !fs.Polled && fs.Err == nil,
			Requests:      fs.Stats.Requests,
			BytesOut:      fs.Stats.BytesOut,
			StatComputes:  fs.Stats.StatComputes,
			ChunkServes:   fs.Stats.ChunkServes,
			CacheHitRate:  fs.Stats.CacheHitRate(),
			Draining:      fs.Stats.Draining,
			BytesRead:     fs.Stats.BytesRead,
			ChunksDecoded: fs.Stats.ChunksDecoded,
		}
		if fs.Err != nil {
			d.Error = fs.Err.Error()
		}
		out = append(out, d)
	}
	return out
}
