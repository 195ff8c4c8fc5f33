package obsv

import (
	"sync/atomic"
	"time"
)

// QueryLogEntry is one finished query as remembered by the log: what
// ran, how long it took, what it cost, and — for slow or failed
// queries — the full span tree for post-hoc debugging.
type QueryLogEntry struct {
	// Seq is the entry's position in the log's lifetime sequence
	// (monotonically increasing; newest entries have the highest Seq).
	Seq uint64 `json:"seq"`
	// Time is when the query finished.
	Time time.Time `json:"time"`
	// RequestID correlates with X-Atlas-Request-Id and slow-log lines.
	RequestID string `json:"rid,omitempty"`
	// Op names the operation: "explore", "session-explore", "drill".
	Op string `json:"op"`
	// Input is the query text (or a drill-down descriptor).
	Input string `json:"input"`
	// DurNs is the wall-clock duration.
	DurNs int64 `json:"durNs"`
	// Err is the error message of a failed query, "" on success.
	Err string `json:"error,omitempty"`
	// Outcome classifies how the query ended: "" (ok) or "error" for
	// ordinary completions, "cancelled" for caller-abandoned queries,
	// "deadline" for wall-clock deadline expiries, "shed" for requests
	// the admission gate refused.
	Outcome string `json:"outcome,omitempty"`
	// Slow marks entries at or over the server's slow-query threshold.
	Slow bool `json:"slow,omitempty"`
	// Cached marks queries the result cache answered: no pipeline ran, so
	// the ledger bills no scan work.
	Cached bool `json:"cached,omitempty"`
	// Ledger is the query's resource bill.
	Ledger *LedgerSnapshot `json:"ledger,omitempty"`
	// Profile is the query's span tree, retained only for slow or
	// failed entries (fast successes drop it to bound memory).
	Profile *SpanJSON `json:"profile,omitempty"`
}

// QueryLog is a bounded, lock-free ring of finished queries. Writers
// claim a slot with one atomic increment and publish the entry with one
// atomic pointer store; readers snapshot without blocking writers.
// Entries are immutable once published.
type QueryLog struct {
	seq   atomic.Uint64
	slots []atomic.Pointer[QueryLogEntry]
}

// DefaultQueryLogDepth is the ring capacity servers use.
const DefaultQueryLogDepth = 256

// NewQueryLog builds a ring remembering the last capacity entries
// (minimum 1).
func NewQueryLog(capacity int) *QueryLog {
	if capacity < 1 {
		capacity = 1
	}
	return &QueryLog{slots: make([]atomic.Pointer[QueryLogEntry], capacity)}
}

// Add publishes one entry, overwriting the oldest once the ring is
// full. The entry's Seq is assigned here. Safe for concurrent use.
func (q *QueryLog) Add(e *QueryLogEntry) {
	if q == nil || e == nil {
		return
	}
	e.Seq = q.seq.Add(1) - 1
	q.slots[e.Seq%uint64(len(q.slots))].Store(e)
}

// Depth returns how many entries the ring currently holds.
func (q *QueryLog) Depth() int {
	if q == nil {
		return 0
	}
	n := q.seq.Load()
	if n > uint64(len(q.slots)) {
		return len(q.slots)
	}
	return int(n)
}

// Total returns the lifetime number of entries ever logged.
func (q *QueryLog) Total() uint64 {
	if q == nil {
		return 0
	}
	return q.seq.Load()
}

// Entries snapshots the ring, newest first. Entries overwritten while
// snapshotting may appear out of order; the per-entry Seq disambiguates
// (and the result is re-sorted by it, descending).
func (q *QueryLog) Entries() []*QueryLogEntry {
	if q == nil {
		return nil
	}
	hi := q.seq.Load()
	n := uint64(len(q.slots))
	lo := uint64(0)
	if hi > n {
		lo = hi - n
	}
	out := make([]*QueryLogEntry, 0, hi-lo)
	for s := hi; s > lo; s-- {
		e := q.slots[(s-1)%n].Load()
		if e != nil {
			out = append(out, e)
		}
	}
	// A racing writer can overwrite a slot between the seq read and the
	// slot load; restore newest-first order and drop duplicates.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Seq < out[j].Seq; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	dedup := out[:0]
	var prev *QueryLogEntry
	for _, e := range out {
		if prev == nil || e.Seq != prev.Seq {
			dedup = append(dedup, e)
		}
		prev = e
	}
	return dedup
}
