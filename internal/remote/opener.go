package remote

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/colstore"
	"repro/internal/shard"
)

// Options tunes an Opener's clients.
type Options struct {
	// Timeout bounds each request, connection included (default 30s).
	Timeout time.Duration
	// Retries is the number of extra attempts after a transient failure
	// (network error, 5xx, CRC mismatch, truncation), on top of the one
	// attempt every replica always gets. 0 uses the default of 2;
	// negative disables extra retries.
	Retries int
	// RetryWait is the base backoff before re-attempting the SAME
	// replica (default 50ms). It grows exponentially with consecutive
	// same-replica attempts, jittered ±50%; rotating to a different
	// replica never sleeps.
	RetryWait time.Duration
	// MaxRetryWait caps the exponential backoff (default 2s).
	MaxRetryWait time.Duration
	// BreakerThreshold is how many consecutive failures trip one
	// replica's circuit breaker, taking it out of rotation. 0 uses the
	// default of 3; negative disables the breakers.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped replica stays out of
	// rotation before the next touch probes it half-open (default 2s).
	BreakerCooldown time.Duration
	// MaxInflight bounds concurrent requests per shard (default 32).
	MaxInflight int
	// Transport overrides the pooled HTTP transport (tests, custom TLS).
	Transport http.RoundTripper
}

// Opener opens fabric clients for http(s):// shard locations — the
// shard.RemoteOpener a coordinator passes to shard.OpenWith. All
// clients of one Opener share a pooled transport (connection reuse
// across shards of the same host) and one traffic counter set.
type Opener struct {
	opts  Options
	hc    *http.Client
	stats counters
}

// NewOpener builds an Opener; zero Options give production defaults.
func NewOpener(o Options) *Opener {
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	switch {
	case o.Retries == 0:
		o.Retries = 2
	case o.Retries < 0:
		o.Retries = 0
	}
	if o.RetryWait <= 0 {
		o.RetryWait = 50 * time.Millisecond
	}
	if o.MaxRetryWait <= 0 {
		o.MaxRetryWait = 2 * time.Second
	}
	switch {
	case o.BreakerThreshold == 0:
		o.BreakerThreshold = 3
	case o.BreakerThreshold < 0:
		// Disabled: a threshold no failure streak reaches.
		o.BreakerThreshold = int(^uint(0) >> 1)
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 2 * time.Second
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 32
	}
	transport := o.Transport
	if transport == nil {
		transport = &http.Transport{
			MaxIdleConns:        128,
			MaxIdleConnsPerHost: 32,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	return &Opener{opts: o, hc: &http.Client{Timeout: o.Timeout, Transport: transport}}
}

// OpenShard implements shard.RemoteOpener: it dials the shard's meta
// and zones endpoints (rotating across the replica locations, primary
// first) and returns a backend whose chunk fetches feed the set's
// shared decoded-chunk cache (store.Cache; a private cache is created
// when the caller shares none). The open's round trips run under ctx —
// when a query forces a deferred shard open, they are traced and billed
// to that query.
func (o *Opener) OpenShard(ctx context.Context, locations []string, store colstore.Options) (shard.RemoteBackend, error) {
	if len(locations) == 0 {
		return nil, fmt.Errorf("remote: no locations to open")
	}
	cache := store.Cache
	if cache == nil {
		cache = colstore.NewChunkCache(colstore.ResolveCacheBudget(store.CacheBytes))
	}
	reps := make([]*replica, 0, len(locations))
	seen := make(map[string]bool, len(locations))
	for _, loc := range locations {
		u := strings.TrimRight(loc, "/")
		if seen[u] {
			continue
		}
		seen[u] = true
		reps = append(reps, &replica{url: u})
	}
	c := &Client{
		primary:          reps[0].url,
		reps:             reps,
		hc:               o.hc,
		sem:              make(chan struct{}, o.opts.MaxInflight),
		retries:          o.opts.Retries,
		retryWait:        o.opts.RetryWait,
		maxRetryWait:     o.opts.MaxRetryWait,
		breakerThreshold: o.opts.BreakerThreshold,
		breakerCooldown:  o.opts.BreakerCooldown,
		cache:            cache,
		stats:            &o.stats,
	}
	if err := c.init(ctx); err != nil {
		return nil, err
	}
	c.warmReplicas()
	return c, nil
}

// Close closes the pooled transport's idle keep-alive connections (and
// with them their read/write goroutines). Call it once the sets opened
// through this Opener are closed; an Opener used again simply redials.
func (o *Opener) Close() {
	o.hc.CloseIdleConnections()
}

// Stats is the aggregate fabric traffic of an Opener's clients.
type Stats struct {
	// RPCs counts requests sent (per attempt).
	RPCs int64
	// BytesIn counts response body bytes received.
	BytesIn int64
	// ChunkFetches counts chunk payloads fetched and decoded (cache
	// misses that went over the wire).
	ChunkFetches int64
	// Retries counts extra attempts after transient failures.
	Retries int64
	// Failovers counts retries that rotated to a different replica.
	Failovers int64
	// BreakerTrips counts circuit breakers newly tripped (a replica
	// leaving rotation after its failure threshold).
	BreakerTrips int64
}

// Stats snapshots the aggregate counters.
func (o *Opener) Stats() Stats {
	return Stats{
		RPCs:         o.stats.rpcs.Load(),
		BytesIn:      o.stats.bytesIn.Load(),
		ChunkFetches: o.stats.chunkFetches.Load(),
		Retries:      o.stats.retries.Load(),
		Failovers:    o.stats.failovers.Load(),
		BreakerTrips: o.stats.breakerTrips.Load(),
	}
}
