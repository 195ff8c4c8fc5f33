package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/colstore"
	"repro/internal/obsv"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/storage"
)

// ShardError is the named per-shard failure of the fabric: every error
// a Client returns is wrapped in one, so an exploration that dies
// because a remote shard timed out, truncated a payload or served
// corrupt bytes says WHICH shard and WHAT operation — never a bare
// transport error, and never a silently partial answer.
type ShardError struct {
	// Location is the shard's URL as the manifest names it.
	Location string
	// Op is the failing operation ("chunk", "values", "meta", ...).
	Op string
	// RequestID is the query request id the failing RPC belonged to
	// ("" when the request carried none) — the join key between a
	// client-side error and the server's slow-query/error log lines.
	RequestID string
	// Err is the final underlying failure (after retries).
	Err error
}

func (e *ShardError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("remote shard %s: %s: %v (rid %s)", e.Location, e.Op, e.Err, e.RequestID)
	}
	return fmt.Sprintf("remote shard %s: %s: %v", e.Location, e.Op, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// httpStatusError is a non-200 answer; statuses below 500 are not
// retried (the request itself is wrong).
type httpStatusError struct {
	status int
	msg    string
}

func (e *httpStatusError) Error() string {
	return fmt.Sprintf("HTTP %d: %s", e.status, e.msg)
}

// counters aggregates fabric traffic across every client of one Opener.
type counters struct {
	rpcs         atomic.Int64
	bytesIn      atomic.Int64
	chunkFetches atomic.Int64
	retries      atomic.Int64
	failovers    atomic.Int64
	breakerTrips atomic.Int64
}

// Client speaks the fabric protocol to one shard — a replica set of
// servers holding the same immutable shard file. It implements
// shard.RemoteBackend and is its own storage.ChunkSource, so a
// shard.Set routes through it exactly as it routes through a local
// file. Requests share a pooled transport, are bounded in flight
// per shard, and every fetched chunk is CRC-checked before it is
// decoded. Failures rotate to the next healthy replica (see
// replica.go); retries against the same replica back off exponentially
// with jitter.
type Client struct {
	primary string     // manifest's primary location — names this shard in errors
	reps    []*replica // dial order: primary first, then replicas
	cur     atomic.Int32
	hc      *http.Client
	sem     chan struct{}

	retries          int
	retryWait        time.Duration
	maxRetryWait     time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration

	cache *colstore.ChunkCache
	stats *counters // opener-wide aggregates
	// Per-shard counters behind IOStats (a Set sums its shards', so
	// these must not alias the opener-wide totals).
	ownBytes  atomic.Int64
	ownChunks atomic.Int64

	// Shard snapshot, fetched at open.
	table     string
	rows      int
	chunkSize int
	version   byte
	schema    *storage.Schema
	zones     [][]storage.ZoneMap

	// dicts memoizes string dictionaries per column, each behind its own
	// lock so first touches of different columns fetch concurrently; a
	// failed fetch is not cached (the next touch retries).
	dicts []dictSlot

	// Batch statistics cache: the first statistics-plane demand fetches
	// every attribute's stats in ONE round trip (POST batchstats) and
	// answers later calls from memory — the table is immutable, so the
	// answers never go stale. batchOff remembers a server without the
	// endpoint (404); per-attribute calls then carry the load, so old
	// servers keep working.
	statsMu   sync.Mutex
	batchOff  bool
	numStats  map[string][]float64
	catStats  map[string]catCountsDTO
	boolStats map[string]boolCountsDTO

	prefetching atomic.Int64
	closed      atomic.Bool
}

var _ shard.RemoteBackend = (*Client)(nil)

type dictSlot struct {
	mu   sync.Mutex
	vals []string
	done bool
}

// init fetches and validates the shard's metadata and zone maps. The
// context is the caller's: when a query forces a deferred shard open,
// the open's own RPCs are traced and billed to that query.
func (c *Client) init(ctx context.Context) error {
	data, _, err := c.do(ctx, "meta", http.MethodGet, "/shard/v1/meta", nil, nil, nil)
	if err != nil {
		return err
	}
	var meta metaDTO
	if err := json.Unmarshal(data, &meta); err != nil {
		return &ShardError{Location: c.primary, Op: "meta", Err: err}
	}
	if meta.Rows < 0 || meta.ChunkSize <= 0 || meta.ChunkSize%64 != 0 {
		return &ShardError{Location: c.primary, Op: "meta", Err: fmt.Errorf("implausible shape rows=%d chunkSize=%d", meta.Rows, meta.ChunkSize)}
	}
	if meta.Version < 1 || meta.Version > int(colstore.Version) {
		return &ShardError{Location: c.primary, Op: "meta", Err: fmt.Errorf("unsupported chunk encoding version %d (this client handles 1..%d)", meta.Version, colstore.Version)}
	}
	fields := make([]storage.Field, len(meta.Columns))
	for i, col := range meta.Columns {
		typ, err := parseTypeName(col.Type)
		if err != nil {
			return &ShardError{Location: c.primary, Op: "meta", Err: err}
		}
		fields[i] = storage.Field{Name: col.Name, Type: typ}
	}
	schema, err := storage.NewSchema(fields...)
	if err != nil {
		return &ShardError{Location: c.primary, Op: "meta", Err: err}
	}
	c.table, c.rows, c.chunkSize = meta.Table, meta.Rows, meta.ChunkSize
	c.version = byte(meta.Version)
	c.schema = schema
	c.dicts = make([]dictSlot, len(fields))

	data, _, err = c.do(ctx, "zones", http.MethodGet, "/shard/v1/zones", nil, nil, nil)
	if err != nil {
		return err
	}
	var zdto zonesDTO
	if err := json.Unmarshal(data, &zdto); err != nil {
		return &ShardError{Location: c.primary, Op: "zones", Err: err}
	}
	numChunks := c.numChunks()
	if len(zdto.Zones) != len(fields) {
		return &ShardError{Location: c.primary, Op: "zones", Err: fmt.Errorf("%d zone columns for %d fields", len(zdto.Zones), len(fields))}
	}
	zones := make([][]storage.ZoneMap, len(fields))
	for ci, col := range zdto.Zones {
		if len(col) != numChunks {
			return &ShardError{Location: c.primary, Op: "zones", Err: fmt.Errorf("column %d has %d zone maps for %d chunks", ci, len(col), numChunks)}
		}
		zones[ci] = make([]storage.ZoneMap, numChunks)
		for k, d := range col {
			zm, err := zoneFromDTO(d)
			if err != nil {
				return &ShardError{Location: c.primary, Op: "zones", Err: err}
			}
			zones[ci][k] = zm
		}
	}
	c.zones = zones
	return nil
}

// warmReplicas establishes a pooled connection to every non-primary
// replica with a best-effort asynchronous health ping (bypassing do(),
// so breakers and traffic counters see nothing). Failover is then a
// connection-pool hit instead of a fresh dial racing the failed
// connection's teardown — a cold dial issued while an aborted
// connection is being torn down can lose a segment and eat the
// kernel's minimum retransmission timeout (~200ms) before the replica
// answers.
func (c *Client) warmReplicas() {
	for _, r := range c.reps[1:] {
		go func(url string) {
			resp, err := c.hc.Get(url + "/shard/v1/health")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(r.url)
	}
}

func (c *Client) numChunks() int {
	if c.rows == 0 {
		return 0
	}
	return (c.rows + c.chunkSize - 1) / c.chunkSize
}

// ---- transport ----

// do runs one fabric request with bounded in-flight admission,
// replica rotation and per-shard retries. check validates a successful
// response (length and CRC tests); its failures are retried like
// transport errors, because a truncated or corrupted body may be
// transient. A failed attempt strikes that replica's circuit breaker
// and the next attempt rotates forward to the next admissible replica
// — sleeping (jittered exponential backoff) only when it lands on the
// same replica again, because waiting is pointless when a different
// healthy peer can answer now. The final error is a *ShardError naming
// this shard by its primary location (and the request id, when the
// context carries one).
//
// When ctx carries a trace span, the whole operation records under one
// "rpc <op>" span with one child per attempt; the server's own span
// subtree comes back in the response headers and is grafted under the
// attempt that succeeded. Untraced contexts skip all of it.
func (c *Client) do(ctx context.Context, op, method, path string, q url.Values, body []byte, check func([]byte, http.Header) error) ([]byte, http.Header, error) {
	rid := obsv.RequestIDFrom(ctx)
	if c.closed.Load() {
		return nil, nil, &ShardError{Location: c.primary, Op: op, RequestID: rid, Err: errors.New("client closed")}
	}
	select {
	case c.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, nil, &ShardError{Location: c.primary, Op: op, RequestID: rid, Err: obsv.Cancelled(ctx, "fabric.admit")}
	}
	defer func() { <-c.sem }()
	rctx, rsp := obsv.StartSpan(ctx, "rpc "+op)
	defer rsp.End()
	rsp.SetAttr("shard", c.primary)
	var lastErr error
	// At least one attempt per replica, plus the configured retries:
	// Retries only bounds extra attempts, it never hides a live replica.
	attempts := c.retries + len(c.reps)
	start := int(c.cur.Load())
	prev, sameStreak := -1, 0
	for attempt := 0; attempt < attempts; attempt++ {
		if ctx.Err() != nil {
			// The caller is gone or out of time: stop retrying. Whatever
			// the last replica did, the cause here is ours — no strike.
			return nil, nil, &ShardError{Location: c.primary, Op: op, RequestID: rid, Err: obsv.Cancelled(ctx, "fabric.rpc")}
		}
		i := c.pick(start, time.Now())
		r := c.reps[i]
		if attempt > 0 {
			c.stats.retries.Add(1)
			if i != prev {
				c.stats.failovers.Add(1)
				sameStreak = 0
			} else {
				sameStreak++
				if !sleepCtx(ctx, backoffJitter(c.retryWait, sameStreak, c.maxRetryWait)) {
					return nil, nil, &ShardError{Location: c.primary, Op: op, RequestID: rid, Err: obsv.Cancelled(ctx, "fabric.backoff")}
				}
			}
		}
		prev = i
		actx, asp := obsv.StartSpan(rctx, "attempt")
		asp.SetAttr("replica", r.url)
		// Per-attempt budget: when the caller's deadline leaves room for
		// more attempts, cap this one at half the remaining budget, so a
		// hung replica is escaped by the attempt timeout with budget left
		// to fail over instead of burning the whole query deadline.
		cancelAttempt := func() {}
		if dl, ok := ctx.Deadline(); ok && attempt < attempts-1 {
			if remaining := time.Until(dl); remaining > 2*minAttemptBudget {
				var cancel context.CancelFunc
				actx, cancel = context.WithTimeout(actx, remaining/2)
				cancelAttempt = cancel
			}
		}
		began := time.Now()
		data, hdr, err := c.doOnce(actx, r.url, method, path, q, body, rid)
		if err == nil && check != nil {
			err = check(data, hdr)
		}
		cancelAttempt()
		elapsed := time.Since(began)
		if err == nil {
			r.onSuccess(elapsed)
			asp.End()
			c.cur.Store(int32(i))
			return data, hdr, nil
		}
		lastErr = err
		asp.SetAttr("error", err.Error())
		var hs *httpStatusError
		if errors.As(err, &hs) && hs.status < 500 {
			// The request itself is wrong; no replica can fix it, and the
			// replica answered — no breaker strike.
			asp.End()
			break
		}
		if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
			// The attempt died of OUR caller's cancellation (or deadline),
			// not the replica's: an impatient client must not trip a
			// healthy replica's breaker. A per-attempt timeout expiring
			// while the caller is still live is NOT this case — that one
			// strikes below, because the replica really did hang.
			asp.End()
			return nil, nil, &ShardError{Location: c.primary, Op: op, RequestID: rid, Err: obsv.Cancelled(ctx, "fabric.rpc")}
		}
		// The time burned on a failed attempt — timeout included — is
		// charged to the replica that failed, so ShardHealth latencies
		// stay honest about what failovers actually cost.
		if r.onFailure(err, c.breakerThreshold, c.breakerCooldown, time.Now(), elapsed) {
			c.stats.breakerTrips.Add(1)
			asp.SetAttr("breakerTripped", true)
		}
		asp.End()
		start = i + 1 // rotate past the replica that just failed
	}
	return nil, nil, &ShardError{Location: c.primary, Op: op, RequestID: rid, Err: lastErr}
}

// minAttemptBudget is the smallest remaining-deadline slice worth
// splitting for failover: below twice this, the attempt just rides the
// caller's own deadline.
const minAttemptBudget = 25 * time.Millisecond

// sleepCtx sleeps for d unless ctx is done first; it reports whether
// the full sleep happened.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// pick chooses the replica for the next attempt: the first breaker-
// admissible replica scanning forward from start (sticky on the last
// replica that answered, so a healthy fabric never flaps). When every
// breaker is tripped and cooling, the one reopening soonest is chosen
// — a late answer beats none.
func (c *Client) pick(start int, now time.Time) int {
	n := len(c.reps)
	for off := 0; off < n; off++ {
		i := (start + off) % n
		if c.reps[i].allow(now) {
			return i
		}
	}
	best, bestAt := start%n, time.Time{}
	if best < 0 {
		best += n
	}
	for i, r := range c.reps {
		at := r.reopenTime()
		if bestAt.IsZero() || at.Before(bestAt) {
			best, bestAt = i, at
		}
	}
	return best
}

// Replicas implements shard.RemoteBackend: each replica's breaker
// state for ShardHealth and GET /api/shards.
func (c *Client) Replicas() []shard.ReplicaHealth {
	now := time.Now()
	out := make([]shard.ReplicaHealth, len(c.reps))
	for i, r := range c.reps {
		state, fails, attempts, failures, lastErr, lat := r.health(now)
		out[i] = shard.ReplicaHealth{URL: r.url, State: state, Fails: fails, Attempts: attempts, Failures: failures, Err: lastErr, Latency: lat}
	}
	return out
}

// doOnce runs one attempt. Besides the opener-wide and per-shard
// counters, the attempt bills the context's resource ledger at the very
// same sites: one RPC, and the response body both as wire traffic
// (fabric plane) and as bytes read (store plane — ownBytes is what this
// shard's IOStats reports as BytesRead).
func (c *Client) doOnce(ctx context.Context, base, method, path string, q url.Values, body []byte, rid string) ([]byte, http.Header, error) {
	u := base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	sp := obsv.SpanFrom(ctx)
	if sp != nil {
		req.Header.Set(headerTrace, sp.TraceHeaderValue())
	}
	if rid != "" {
		req.Header.Set(headerRequestID, rid)
	}
	if dl, ok := ctx.Deadline(); ok {
		// Ship the remaining budget (milliseconds) so the server aborts
		// statcompute/chunk work its caller will never read.
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.Header.Set(headerDeadline, strconv.FormatInt(ms, 10))
		}
	}
	led := obsv.LedgerFrom(ctx)
	c.stats.rpcs.Add(1)
	led.RPC()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	c.stats.bytesIn.Add(int64(len(data)))
	c.ownBytes.Add(int64(len(data)))
	led.WireBytes(int64(len(data)))
	led.ReadBytes(int64(len(data)))
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, &httpStatusError{status: resp.StatusCode, msg: strings.TrimSpace(string(data))}
	}
	if sp != nil {
		if enc := resp.Header.Get(headerSpans); enc != "" {
			if remote, err := obsv.DecodeSpanTree(enc); err == nil {
				sp.Graft(remote)
			}
		}
	}
	return data, resp.Header, nil
}

// getJSON runs a GET and decodes its JSON answer.
func (c *Client) getJSON(ctx context.Context, op, path string, q url.Values, into any) error {
	data, _, err := c.do(ctx, op, http.MethodGet, path, q, nil, nil)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return &ShardError{Location: c.primary, Op: op, RequestID: obsv.RequestIDFrom(ctx), Err: err}
	}
	return nil
}

// postJSON runs a POST with a JSON body and decodes the JSON answer.
func (c *Client) postJSON(ctx context.Context, op, path string, reqBody, into any) error {
	body, err := json.Marshal(reqBody)
	if err != nil {
		return &ShardError{Location: c.primary, Op: op, Err: err}
	}
	data, _, err := c.do(ctx, op, http.MethodPost, path, nil, body, nil)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return &ShardError{Location: c.primary, Op: op, RequestID: obsv.RequestIDFrom(ctx), Err: err}
	}
	return nil
}

// ---- shard.Backend ----

// Meta implements shard.Backend.
func (c *Client) Meta() shard.BackendMeta {
	return shard.BackendMeta{Table: c.table, Rows: c.rows, ChunkSize: c.chunkSize, Schema: c.schema}
}

// Zones implements shard.Backend.
func (c *Client) Zones() [][]storage.ZoneMap { return c.zones }

// Dicts implements shard.Backend, fetching each string dictionary once
// (per-column locks, so different columns' first touches overlap). The
// first-touch fetch runs under the caller's context — so a chunk load's
// implied dictionary round trip is traced and billed with the query
// that caused it.
func (c *Client) Dicts(ctx context.Context, ci int) ([]string, error) {
	if ci < 0 || ci >= c.schema.NumFields() {
		return nil, &ShardError{Location: c.primary, Op: "dict", Err: fmt.Errorf("column %d out of range", ci)}
	}
	if c.schema.Field(ci).Type != storage.String {
		return nil, nil
	}
	slot := &c.dicts[ci]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.done {
		return slot.vals, nil
	}
	if vals, ok := c.cachedBatchDict(ci); ok {
		// A batch stats fetch already carried this dictionary (catcounts
		// answers include it); no separate dict round trip needed.
		slot.vals, slot.done = vals, true
		return slot.vals, nil
	}
	var dto dictDTO
	if err := c.getJSON(ctx, "dict", "/shard/v1/dict", url.Values{"col": {strconv.Itoa(ci)}}, &dto); err != nil {
		return nil, err
	}
	if dto.Values == nil {
		dto.Values = []string{}
	}
	slot.vals, slot.done = dto.Values, true
	return slot.vals, nil
}

// Source implements shard.Backend: the client is its own chunk source.
func (c *Client) Source() storage.ChunkSource { return c }

// Close implements shard.Backend: drops this shard's cached payloads.
// The pooled transport belongs to the Opener and stays usable.
func (c *Client) Close() error {
	if !c.closed.Swap(true) {
		c.cache.Drop(c)
	}
	return nil
}

// IOStats implements shard.Backend: THIS shard's bytes over the wire
// and chunk fetches, so /api/stats and the bench counters see remote
// I/O the way they see file I/O (a Set sums these across its shards).
func (c *Client) IOStats() colstore.IOStats {
	return colstore.IOStats{
		BytesRead:     c.ownBytes.Load(),
		ChunksDecoded: c.ownChunks.Load(),
	}
}

// ---- chunk plane ----

// FetchChunk implements storage.ChunkSource: cache lookup, then one
// RPC + CRC check + decode on a miss. Payload contents are identical to
// a local open of the same shard file — the wire carries the file's own
// chunk encoding. The request context rides into the RPC, so a traced
// exploration sees which phase pulled which chunk over the wire.
func (c *Client) FetchChunk(ctx context.Context, ci, k int) (*storage.ChunkPayload, bool, error) {
	if ci < 0 || ci >= c.schema.NumFields() || k < 0 || k >= c.numChunks() {
		return nil, false, &ShardError{Location: c.primary, Op: "chunk", Err: fmt.Errorf("chunk (%d,%d) out of range", ci, k)}
	}
	return c.cache.Get(ctx, c, ci, k, func() (*storage.ChunkPayload, error) {
		return c.loadChunk(ctx, ci, k)
	})
}

// loadChunk is the cache-miss path of FetchChunk.
func (c *Client) loadChunk(ctx context.Context, ci, k int) (*storage.ChunkPayload, error) {
	dictLen := 0
	if c.schema.Field(ci).Type == storage.String {
		dict, err := c.Dicts(ctx, ci)
		if err != nil {
			return nil, err
		}
		dictLen = len(dict)
	}
	check := func(data []byte, hdr http.Header) error {
		if lenStr := hdr.Get(headerChunkLen); lenStr != "" {
			if want, err := strconv.Atoi(lenStr); err == nil && want != len(data) {
				return fmt.Errorf("truncated chunk (%d,%d): got %d of %d bytes", ci, k, len(data), want)
			}
		}
		crcStr := hdr.Get(headerChunkCRC)
		if crcStr == "" {
			return fmt.Errorf("chunk (%d,%d): missing CRC header", ci, k)
		}
		want, err := strconv.ParseUint(crcStr, 16, 32)
		if err != nil {
			return fmt.Errorf("chunk (%d,%d): bad CRC header %q", ci, k, crcStr)
		}
		if got := crc32.ChecksumIEEE(data); got != uint32(want) {
			return fmt.Errorf("chunk (%d,%d): checksum mismatch (header %08x, computed %08x)", ci, k, want, got)
		}
		return nil
	}
	q := url.Values{"col": {strconv.Itoa(ci)}, "chunk": {strconv.Itoa(k)}}
	data, _, err := c.do(ctx, "chunk", http.MethodGet, "/shard/v1/chunk", q, nil, check)
	if err != nil {
		return nil, err
	}
	chunkRows := c.chunkSize
	if hi := (k + 1) * c.chunkSize; hi > c.rows {
		chunkRows = c.rows - k*c.chunkSize
	}
	p, err := colstore.DecodeChunk(data, c.schema.Field(ci), dictLen, chunkRows, k, c.version)
	if err != nil {
		return nil, &ShardError{Location: c.primary, Op: "chunk", Err: fmt.Errorf("chunk (%d,%d): %w", ci, k, err)}
	}
	c.stats.chunkFetches.Add(1)
	c.ownChunks.Add(1)
	obsv.LedgerFrom(ctx).StoreChunkDecoded()
	return p, nil
}

// maxClientPrefetch bounds a shard's concurrent speculative fetches.
const maxClientPrefetch = 2

// PrefetchChunk implements storage.ChunkSource: an asynchronous,
// single-flight, eviction-aware fetch of the chunk a sequential scan
// will touch next — this is where the fabric hides its round-trip
// latency. Skipped when the chunk is resident, the cache has no room,
// or enough prefetches are already in flight. The speculative RPC
// carries the request's values (resource ledger, request ID) detached
// from its cancellation, so the fetch it hides latency for is the query
// it bills.
func (c *Client) PrefetchChunk(ctx context.Context, ci, k int) {
	if c.closed.Load() || ci < 0 || ci >= c.schema.NumFields() || k < 0 || k >= c.numChunks() {
		return
	}
	if c.cache.Contains(c, ci, k) {
		return
	}
	chunkRows := c.chunkSize
	if hi := (k + 1) * c.chunkSize; hi > c.rows {
		chunkRows = c.rows - k*c.chunkSize
	}
	if !c.cache.HasRoom(int64(chunkRows) * 8) {
		return
	}
	if c.prefetching.Add(1) > maxClientPrefetch {
		c.prefetching.Add(-1)
		return
	}
	// Detach from cancellation and drop the trace span: the flight may
	// outlive the request, and a span ended after its parent would
	// malform the exported tree. The ledger and request ID stay.
	ctx = obsv.WithSpan(context.WithoutCancel(ctx), nil)
	go func() {
		defer c.prefetching.Add(-1)
		_, _, _ = c.FetchChunk(ctx, ci, k)
	}()
}

// ---- statistics plane (shard.RemoteBackend) ----

// loadBatchStats fetches EVERY attribute's statistics in one round
// trip on the first statistics-plane demand and reports whether the
// cache is usable. Servers without the endpoint (old deployments
// answer 404) or serving an undecodable body turn the batch off for
// this client; callers then fall back to the per-attribute endpoints,
// which also own error reporting — a dead batch plane never masks a
// live per-attribute answer.
func (c *Client) loadBatchStats(ctx context.Context) bool {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	if c.numStats != nil {
		return true
	}
	if c.batchOff {
		return false
	}
	req := batchReqDTO{Attrs: make([]string, c.schema.NumFields())}
	for i := range req.Attrs {
		req.Attrs[i] = c.schema.Field(i).Name
	}
	body, err := json.Marshal(req)
	if err != nil {
		c.batchOff = true
		return false
	}
	check := func(data []byte, _ http.Header) error {
		_, _, _, _, err := c.parseBatchStats(data)
		return err
	}
	data, _, err := c.do(ctx, "batchstats", http.MethodPost, "/shard/v1/batchstats", nil, body, check)
	if err != nil {
		c.batchOff = true
		return false
	}
	num, cat, boolc, _, err := c.parseBatchStats(data)
	if err != nil {
		c.batchOff = true
		return false
	}
	c.numStats, c.catStats, c.boolStats = num, cat, boolc
	return true
}

// parseBatchStats decodes and validates a batchstats body (it doubles
// as the retryable response check of the batch RPC).
func (c *Client) parseBatchStats(data []byte) (map[string][]float64, map[string]catCountsDTO, map[string]boolCountsDTO, int, error) {
	hdr, blob, err := decodeBatch(data)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	num := make(map[string][]float64)
	cat := make(map[string]catCountsDTO)
	boolc := make(map[string]boolCountsDTO)
	for _, st := range hdr.Stats {
		switch st.Kind {
		case "numeric":
			if st.Off < 0 || st.Count < 0 || st.Off+st.Count*8 > len(blob) {
				return nil, nil, nil, 0, fmt.Errorf("batch stat %q: %d values at offset %d overflow %d blob bytes", st.Attr, st.Count, st.Off, len(blob))
			}
			vals, err := decodeFloats(blob[st.Off : st.Off+st.Count*8])
			if err != nil {
				return nil, nil, nil, 0, err
			}
			num[st.Attr] = vals
		case "cat":
			if len(st.Dict) != len(st.Counts) {
				return nil, nil, nil, 0, fmt.Errorf("batch stat %q: %d dictionary entries with %d counts", st.Attr, len(st.Dict), len(st.Counts))
			}
			d := st.Dict
			if d == nil {
				d = []string{}
			}
			cat[st.Attr] = catCountsDTO{Dict: d, Counts: st.Counts}
		case "bool":
			boolc[st.Attr] = boolCountsDTO{Falses: st.Falses, Trues: st.Trues}
		default:
			return nil, nil, nil, 0, fmt.Errorf("batch stat %q: unknown kind %q", st.Attr, st.Kind)
		}
	}
	return num, cat, boolc, len(hdr.Stats), nil
}

// batchNumeric answers NumericValues from the batch cache. The slice
// is copied out: callers sort their copy in place, and the cached row
// order must survive for the next exploration's sketch replay.
func (c *Client) batchNumeric(ctx context.Context, attr string) ([]float64, bool) {
	if !c.loadBatchStats(ctx) {
		return nil, false
	}
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	vals, ok := c.numStats[attr]
	if !ok {
		return nil, false
	}
	out := make([]float64, len(vals))
	copy(out, vals)
	return out, true
}

// batchCat answers CategoryCounts from the batch cache (counts copied;
// the shared dictionary is read-only by contract).
func (c *Client) batchCat(ctx context.Context, attr string) ([]string, []int, bool) {
	if !c.loadBatchStats(ctx) {
		return nil, nil, false
	}
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	dto, ok := c.catStats[attr]
	if !ok {
		return nil, nil, false
	}
	counts := make([]int, len(dto.Counts))
	copy(counts, dto.Counts)
	return dto.Dict, counts, true
}

// batchBool answers BoolCounts from the batch cache.
func (c *Client) batchBool(ctx context.Context, attr string) (int, int, bool) {
	if !c.loadBatchStats(ctx) {
		return 0, 0, false
	}
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	dto, ok := c.boolStats[attr]
	if !ok {
		return 0, 0, false
	}
	return dto.Falses, dto.Trues, true
}

// cachedBatchDict returns column ci's dictionary if a batch fetch
// already brought it over — without triggering one: the dictionary
// plane must stay cheap for opens and selective scans that never touch
// statistics.
func (c *Client) cachedBatchDict(ci int) ([]string, bool) {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	if c.numStats == nil {
		return nil, false
	}
	dto, ok := c.catStats[c.schema.Field(ci).Name]
	if !ok {
		return nil, false
	}
	return dto.Dict, true
}

// NumericValues implements shard.RemoteBackend: the shard's non-NULL
// values in row order, as one binary stream.
func (c *Client) NumericValues(ctx context.Context, attr string) ([]float64, error) {
	if vals, ok := c.batchNumeric(ctx, attr); ok {
		return vals, nil
	}
	check := func(data []byte, hdr http.Header) error {
		if cs := hdr.Get(headerCount); cs != "" {
			if want, err := strconv.Atoi(cs); err == nil && want*8 != len(data) {
				return fmt.Errorf("truncated value stream for %q: got %d of %d bytes", attr, len(data), want*8)
			}
		}
		if len(data)%8 != 0 {
			return fmt.Errorf("value stream for %q: %d bytes is not a multiple of 8", attr, len(data))
		}
		return nil
	}
	data, _, err := c.do(ctx, "values", http.MethodGet, "/shard/v1/values", url.Values{"attr": {attr}}, nil, check)
	if err != nil {
		return nil, err
	}
	vals, err := decodeFloats(data)
	if err != nil {
		return nil, &ShardError{Location: c.primary, Op: "values", Err: err}
	}
	return vals, nil
}

// CategoryCounts implements shard.RemoteBackend (local dictionary space).
func (c *Client) CategoryCounts(ctx context.Context, attr string) ([]string, []int, error) {
	if dict, counts, ok := c.batchCat(ctx, attr); ok {
		return dict, counts, nil
	}
	var dto catCountsDTO
	if err := c.getJSON(ctx, "catcounts", "/shard/v1/catcounts", url.Values{"attr": {attr}}, &dto); err != nil {
		return nil, nil, err
	}
	if len(dto.Dict) != len(dto.Counts) {
		return nil, nil, &ShardError{Location: c.primary, Op: "catcounts", Err: fmt.Errorf("%d dictionary entries with %d counts", len(dto.Dict), len(dto.Counts))}
	}
	return dto.Dict, dto.Counts, nil
}

// BoolCounts implements shard.RemoteBackend.
func (c *Client) BoolCounts(ctx context.Context, attr string) (int, int, error) {
	if falses, trues, ok := c.batchBool(ctx, attr); ok {
		return falses, trues, nil
	}
	var dto boolCountsDTO
	if err := c.getJSON(ctx, "boolcounts", "/shard/v1/boolcounts", url.Values{"attr": {attr}}, &dto); err != nil {
		return 0, 0, err
	}
	return dto.Falses, dto.Trues, nil
}

// ColumnPartials implements shard.RemoteBackend: every requested column's
// mergeable bundle in one round trip.
func (c *Client) ColumnPartials(ctx context.Context, specs []shard.PartialSpec) ([]*shard.ColumnPartial, error) {
	req := partialsReqDTO{Specs: make([]partialSpecDTO, len(specs))}
	for i, s := range specs {
		d := partialSpecDTO{Col: s.Col, UseHist: s.UseHist}
		if s.UseHist {
			d.Lo, d.Hi = fbits(s.Lo), fbits(s.Hi)
		}
		req.Specs[i] = d
	}
	var dtos []partialDTO
	if err := c.postJSON(ctx, "partials", "/shard/v1/partials", req, &dtos); err != nil {
		return nil, err
	}
	if len(dtos) != len(specs) {
		return nil, &ShardError{Location: c.primary, Op: "partials", Err: fmt.Errorf("%d partials for %d specs", len(dtos), len(specs))}
	}
	out := make([]*shard.ColumnPartial, len(dtos))
	for i, d := range dtos {
		p, err := partialFromDTO(d)
		if err != nil {
			return nil, &ShardError{Location: c.primary, Op: "partials", Err: err}
		}
		out[i] = p
	}
	return out, nil
}

// PredicateBits implements shard.RemoteBackend: the predicate's exact
// selection bitmap alongside its count, answered where the shard lives,
// so the coordinator assembles non-empty session bases without touching
// the chunk plane. Old servers ignore the wantBits request field and
// answer count-only; words is nil then and the caller decides (empty
// stays chunk-free, non-empty falls back to scanning).
func (c *Client) PredicateBits(ctx context.Context, p query.Predicate) (int, []uint64, error) {
	d := predToDTO(p)
	d.WantBits = true
	var dto countDTO
	if err := c.postJSON(ctx, "predcount", "/shard/v1/predcount", d, &dto); err != nil {
		return 0, nil, err
	}
	if dto.Bits == "" {
		return dto.Count, nil, nil
	}
	words, err := decodeWords(dto.Bits)
	if err != nil {
		return 0, nil, &ShardError{Location: c.primary, Op: "predcount", Err: err}
	}
	if want := (c.rows + 63) / 64; len(words) != want {
		return 0, nil, &ShardError{Location: c.primary, Op: "predcount", Err: fmt.Errorf("predicate bitmap has %d words for %d rows", len(words), c.rows)}
	}
	if tail := uint(c.rows % 64); tail != 0 && len(words) > 0 && words[len(words)-1]>>tail != 0 {
		return 0, nil, &ShardError{Location: c.primary, Op: "predcount", Err: fmt.Errorf("predicate bitmap sets bits past row %d", c.rows)}
	}
	return dto.Count, words, nil
}

// ServerStats implements shard.RemoteBackend: one RPC fetching
// the shard server's own counter snapshot for fleet rollup.
func (c *Client) ServerStats(ctx context.Context) (shard.ServerStats, error) {
	var dto shardStatsDTO
	if err := c.getJSON(ctx, "stats", "/shard/v1/stats", nil, &dto); err != nil {
		return shard.ServerStats{}, err
	}
	return shard.ServerStats{
		Requests:      dto.Requests,
		BytesOut:      dto.BytesOut,
		StatComputes:  dto.StatComputes,
		ChunkServes:   dto.ChunkServes,
		Draining:      dto.Draining,
		BytesRead:     dto.BytesRead,
		ChunksDecoded: dto.ChunksDecoded,
		CacheHits:     dto.CacheHits,
		CacheBytes:    dto.CacheBytes,
	}, nil
}

// Health implements shard.RemoteBackend: one uncached round trip,
// timed.
func (c *Client) Health(ctx context.Context) (time.Duration, error) {
	start := time.Now()
	var dto healthDTO
	if err := c.getJSON(ctx, "health", "/shard/v1/health", nil, &dto); err != nil {
		return 0, err
	}
	if !dto.OK {
		return 0, &ShardError{Location: c.primary, Op: "health", Err: errors.New("shard reports not ok")}
	}
	return time.Since(start), nil
}
