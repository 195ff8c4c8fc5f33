package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/colstore"
	"repro/internal/obsv"
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
	// Op is the failing operation ("chunk", "cut", "meta", ...).
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
// file. Requests share a pooled transport, are bounded in flight per
// shard and read into recycled buffers; chunks travel a window per
// request, every one CRC-checked before it is decoded. Failures rotate
// to the next healthy replica (see replica.go); retries against the same
// replica back off exponentially with jitter.
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
	bufs  *bufPool  // opener-wide recycled response buffers
	// Per-shard counters behind IOStats (a Set sums its shards', so
	// these must not alias the opener-wide totals).
	ownBytes  atomic.Int64
	ownChunks atomic.Int64

	// meta is the shard's open snapshot, fetched at open.
	meta shard.BackendMeta

	closed atomic.Bool
}

var _ shard.RemoteBackend = (*Client)(nil)

// init fetches and checks the shard's open snapshot in one round trip.
// The context is the caller's: when a query forces a deferred shard
// open, the open's RPC is traced and billed to that query.
func (c *Client) init(ctx context.Context) error {
	var dto metaDTO
	if err := c.getJSON(ctx, "meta", "/shard/v1/meta", nil, &dto); err != nil {
		return err
	}
	meta, err := dto.snapshot()
	if err != nil {
		return &ShardError{Location: c.primary, Op: "meta", Err: err}
	}
	c.meta = meta
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
	return (c.meta.Rows + c.meta.ChunkSize - 1) / c.meta.ChunkSize
}

// ---- transport ----

// do runs one fabric request with bounded in-flight admission,
// replica rotation and per-shard retries. A successful response body —
// at most limit bytes when limit > 0 — is handed to read, which must
// copy out whatever it keeps: the buffer is recycled once read returns.
// read's failures (malformed, truncated or corrupted bodies) are retried
// like transport errors, because they may be transient. A failed
// attempt strikes that replica's circuit breaker
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
func (c *Client) do(ctx context.Context, op, method, path string, q url.Values, body []byte, limit int64, read func([]byte) error) error {
	rid := obsv.RequestIDFrom(ctx)
	if c.closed.Load() {
		return &ShardError{Location: c.primary, Op: op, RequestID: rid, Err: errors.New("client closed")}
	}
	select {
	case c.sem <- struct{}{}:
	case <-ctx.Done():
		return &ShardError{Location: c.primary, Op: op, RequestID: rid, Err: obsv.Cancelled(ctx, "fabric.admit")}
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
			return &ShardError{Location: c.primary, Op: op, RequestID: rid, Err: obsv.Cancelled(ctx, "fabric.rpc")}
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
					return &ShardError{Location: c.primary, Op: op, RequestID: rid, Err: obsv.Cancelled(ctx, "fabric.backoff")}
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
		err := c.doOnce(actx, r.url, method, path, q, body, rid, limit, read)
		cancelAttempt()
		elapsed := time.Since(began)
		if err == nil {
			r.onSuccess(elapsed)
			asp.End()
			c.cur.Store(int32(i))
			return nil
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
			return &ShardError{Location: c.primary, Op: op, RequestID: rid, Err: obsv.Cancelled(ctx, "fabric.rpc")}
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
	return &ShardError{Location: c.primary, Op: op, RequestID: rid, Err: lastErr}
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
// shard's IOStats reports as BytesRead). A body with a declared length
// is read into one recycled buffer of exactly that size, after the
// length is checked against limit — so a lying Content-Length costs
// nothing — and handed to read.
func (c *Client) doOnce(ctx context.Context, base, method, path string, q url.Values, body []byte, rid string, limit int64, read func([]byte) error) error {
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
		return err
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
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && limit > 0 && resp.ContentLength > limit {
		return fmt.Errorf("declared body of %d bytes exceeds the %d bytes the request can encode to", resp.ContentLength, limit)
	}
	var data []byte
	// A declared length sizes the buffer only when it is bounded — by
	// limit, or by what the pool keeps — so a lying Content-Length on an
	// unbounded answer costs no more than the bytes that really arrive.
	if n := resp.ContentLength; n >= 0 && resp.StatusCode == http.StatusOK && (limit > 0 || n <= poolBufMax) {
		data = c.bufs.get(int(n))
		defer func() { c.bufs.put(data) }()
		var got int
		got, err = io.ReadFull(resp.Body, data)
		if err != nil {
			err = fmt.Errorf("truncated body: %d of %d bytes: %w", got, n, err)
		}
		data = data[:got]
	} else {
		data, err = io.ReadAll(resp.Body)
	}
	c.stats.bytesIn.Add(int64(len(data)))
	c.ownBytes.Add(int64(len(data)))
	led.WireBytes(int64(len(data)))
	led.ReadBytes(int64(len(data)))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return &httpStatusError{status: resp.StatusCode, msg: strings.TrimSpace(string(data))}
	}
	if limit > 0 && int64(len(data)) > limit {
		return fmt.Errorf("body of %d bytes exceeds the %d bytes the request can encode to", len(data), limit)
	}
	if sp != nil {
		if enc := resp.Header.Get(headerSpans); enc != "" {
			if remote, err := obsv.DecodeSpanTree(enc); err == nil {
				sp.Graft(remote)
			}
		}
	}
	return read(data)
}

// getJSON runs a GET and decodes its JSON answer; a malformed answer is
// retried like a truncated one.
func (c *Client) getJSON(ctx context.Context, op, path string, q url.Values, into any) error {
	return c.do(ctx, op, http.MethodGet, path, q, nil, 0, func(data []byte) error {
		return json.Unmarshal(data, into)
	})
}

// postJSON runs a POST with a JSON body and decodes the JSON answer.
func (c *Client) postJSON(ctx context.Context, op, path string, reqBody, into any) error {
	body, err := json.Marshal(reqBody)
	if err != nil {
		return &ShardError{Location: c.primary, Op: op, Err: err}
	}
	return c.do(ctx, op, http.MethodPost, path, nil, body, 0, func(data []byte) error {
		return json.Unmarshal(data, into)
	})
}

// ---- shard.Backend ----

// Meta implements shard.Backend.
func (c *Client) Meta() shard.BackendMeta { return c.meta }

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

// FetchChunk implements storage.ChunkSource: a cache lookup, then — on a
// miss — a window of one through fetchChunks, the path every chunk takes
// over the wire. Payload contents are identical to a local open of the
// same shard file: the wire carries the file's own chunk encoding. The
// request context rides into the RPC, so a traced exploration sees which
// phase pulled which chunk over the wire.
func (c *Client) FetchChunk(ctx context.Context, ci, k int) (*storage.ChunkPayload, bool, error) {
	if ci < 0 || ci >= c.meta.Schema.NumFields() || k < 0 || k >= c.numChunks() {
		return nil, false, &ShardError{Location: c.primary, Op: "chunk", Err: fmt.Errorf("chunk (%d,%d) out of range", ci, k)}
	}
	return c.cache.Get(ctx, c, ci, k, func() (*storage.ChunkPayload, error) {
		ps, err := c.fetchChunks(ctx, ci, []int{k})
		if err != nil {
			return nil, err
		}
		return ps[0], nil
	})
}

// PrefetchChunks implements storage.ChunkSource: when the window's first
// chunk — the scan's next — is neither resident nor loading, the
// window's non-resident chunks are claimed as single-flight cache slots,
// which the scan's FetchChunk of each joins or hits, and loaded in one
// round trip under ctx before the call returns. The window is demand, so
// its loads may evict LRU entries, but windowCap keeps it from evicting
// itself or a concurrent window. A failed or cancelled load caches
// nothing and re-arms every claimed slot: the scan's own fetch retries
// and reports the failure.
func (c *Client) PrefetchChunks(ctx context.Context, ci int, ks []int) {
	if c.closed.Load() || ci < 0 || ci >= c.meta.Schema.NumFields() {
		return
	}
	for i, k := range ks {
		if k < 0 || k >= c.numChunks() || i > 0 && k <= ks[i-1] {
			return
		}
	}
	if len(ks) == 0 || c.cache.Contains(c, ci, ks[0]) {
		return // the scan's next chunk is there or on its way
	}
	cl := c.cache.Claim(c, ci, ks, c.windowCap())
	if len(cl.Ks) == 0 {
		return
	}
	ps, err := c.fetchChunks(ctx, ci, cl.Ks)
	for i, p := range ps {
		cl.Fill(i, p)
	}
	cl.Finish(err)
}

// windowCap is the most chunks one window may claim: PrefetchWindow, and
// under a bounded cache no more than an eighth of its budget holds (at 8
// decoded bytes a row) — none when not even one chunk fits.
func (c *Client) windowCap() int {
	n := storage.PrefetchWindow
	if b := c.cache.Budget(); b > 0 {
		n = min(n, int(b/8/(int64(c.meta.ChunkSize)*8)))
	}
	return n
}

// chunkRows returns the row count of chunk k.
func (c *Client) chunkRows(k int) int {
	return min(c.meta.ChunkSize, c.meta.Rows-k*c.meta.ChunkSize)
}

// fetchChunks is the chunk plane's one fetch: chunks ks (ascending) of
// column ci in one POST, answered by one framed body. The body is read
// into a recycled buffer sized from its declared length — bounded, like
// every frame, by what the requested chunks can encode to — its frames
// checked against the request and their CRCs, and each chunk decoded
// from its sub-slice into fresh payload arrays, so no payload aliases
// the buffer. A bad answer is retried like a truncated one. Each chunk
// is billed as a store decode; the RPC once.
func (c *Client) fetchChunks(ctx context.Context, ci int, ks []int) ([]*storage.ChunkPayload, error) {
	f := c.meta.Schema.Field(ci)
	dictLen := len(c.meta.Dicts[ci])
	body, err := json.Marshal(chunkReqDTO{Col: ci, Chunks: ks})
	if err != nil {
		return nil, &ShardError{Location: c.primary, Op: "chunk", Err: err}
	}
	frameLimit := func(k int) int { return colstore.MaxChunkBytes(c.chunkRows(k)) }
	var limit int64
	for _, k := range ks {
		limit += int64(frameHeaderLen + frameLimit(k))
	}
	ps := make([]*storage.ChunkPayload, len(ks))
	read := func(data []byte) error {
		raws, err := parseFrames(data, ks, frameLimit)
		if err != nil {
			return err
		}
		for i, raw := range raws {
			if ps[i], err = colstore.DecodeChunk(raw, f, dictLen, c.chunkRows(ks[i]), ks[i], colstore.Version); err != nil {
				return fmt.Errorf("chunk (%d,%d): %w", ci, ks[i], err)
			}
		}
		return nil
	}
	if err := c.do(ctx, "chunk", http.MethodPost, "/shard/v1/chunk", nil, body, limit, read); err != nil {
		return nil, err
	}
	c.stats.chunkFetches.Add(int64(len(ks)))
	c.ownChunks.Add(int64(len(ks)))
	led := obsv.LedgerFrom(ctx)
	for range ks {
		led.StoreChunkDecoded()
	}
	return ps, nil
}

// ---- statistics plane (shard.RemoteBackend) ----

// Cut implements shard.RemoteBackend: one POST /shard/v1/cut carrying
// the request — the shard's slice of the selection, none for all its
// rows — answered by one CRC'd frame, checked against the request and
// decoded into a's recycled slices. A bad answer is retried like a
// truncated one.
func (c *Client) Cut(ctx context.Context, req shard.CutRequest, a *shard.CutAnswer) error {
	for _, ci := range req.Cols {
		if ci < 0 || ci >= c.meta.Schema.NumFields() {
			return &ShardError{Location: c.primary, Op: "cut", Err: fmt.Errorf("column %d out of range", ci)}
		}
	}
	if len(req.Cols) == 0 {
		return &ShardError{Location: c.primary, Op: "cut", Err: errors.New("cut of no column")}
	}
	body := appendCutRequest(nil, req, c.meta.Schema.Field(req.Cols[0]).Type)
	read := func(data []byte) error { return parseCutAnswer(data, req, c.meta.Schema, c.meta.Rows, a) }
	return c.do(ctx, "cut", http.MethodPost, "/shard/v1/cut", nil, body, cutAnswerLimit(req, c.meta.Rows), read)
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
