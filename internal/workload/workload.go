// Package workload captures, serializes and replays query workloads —
// the traffic shape the paper's interactive exploration loop produces:
// bursty, session-affine mixes of stateless explores, session explores
// and drill-downs. A workload travels as versioned JSONL (one header
// line, then one line per query), records arrival offsets relative to
// the capture start, and is bounded by construction: inputs are capped
// at a byte budget and the in-memory recorder stops at a fixed entry
// count. Recorded workloads replay against a live server (replay.go)
// and score against SLO thresholds (slo.go).
package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
	"unicode/utf8"

	"repro/internal/obsv"
)

// FormatVersion is the workload file format version this package reads
// and writes. Readers reject other versions instead of guessing.
const FormatVersion = 1

// formatName is the header's magic: it keeps a workload file from being
// confused with any other JSONL stream.
const formatName = "atlas-workload"

// DefaultInputCap is the byte budget of one recorded input. Pathological
// CQL strings are truncated with an ellipsis marker, so a recorded
// workload's size is bounded by its entry count, never by its queries.
const DefaultInputCap = 2048

// DefaultMaxEntries bounds the in-memory recorder: capture stops (and
// counts drops) past it, keeping the retained prefix coherent — every
// session's ops from the capture start, none missing in the middle.
const DefaultMaxEntries = 65536

// StatelessSession marks entries that ran outside any drill-down
// session (POST /api/explore).
const StatelessSession = -1

// Header is the first JSONL line of a workload file.
type Header struct {
	// Format is the magic name ("atlas-workload").
	Format string `json:"format"`
	// Version is the format version (FormatVersion).
	Version int `json:"version"`
	// Table names the table the workload ran against.
	Table string `json:"table"`
	// Start is when capture began; entry offsets are relative to it.
	Start time.Time `json:"start"`
}

// LedgerSummary is the compact resource bill recorded per entry — the
// fields a replay report compares, not the full per-phase breakdown.
type LedgerSummary struct {
	ChunksScanned int64 `json:"chunksScanned,omitempty"`
	ChunksPruned  int64 `json:"chunksPruned,omitempty"`
	ChunksDecoded int64 `json:"chunksDecoded,omitempty"`
	BytesRead     int64 `json:"bytesRead,omitempty"`
	RPCs          int64 `json:"rpcs,omitempty"`
	BytesWire     int64 `json:"bytesWire,omitempty"`
}

// SummarizeLedger compacts a query's ledger snapshot for recording.
func SummarizeLedger(s *obsv.LedgerSnapshot) *LedgerSummary {
	if s == nil {
		return nil
	}
	return &LedgerSummary{
		ChunksScanned: s.ChunksScanned,
		ChunksPruned:  s.ChunksPruned,
		ChunksDecoded: s.ChunksDecoded,
		BytesRead:     s.BytesRead,
		RPCs:          s.RPCs,
		BytesWire:     s.BytesWire,
	}
}

// Entry is one captured query: what ran, where it belonged, when it
// arrived relative to the capture start, and how it ended.
type Entry struct {
	// Seq is the entry's position in capture order.
	Seq int `json:"seq"`
	// OffsetNs is the query's arrival, nanoseconds after Header.Start.
	OffsetNs int64 `json:"offsetNs"`
	// Op is "explore", "session-explore" or "drill".
	Op string `json:"op"`
	// Input is the CQL text or drill descriptor, capped at the input
	// byte budget.
	Input string `json:"input"`
	// Session is the drill-down session the query belonged to;
	// StatelessSession (-1) for stateless explores and shed requests
	// whose session was never resolved.
	Session int `json:"session"`
	// DurNs is the observed wall-clock duration.
	DurNs int64 `json:"durNs,omitempty"`
	// Outcome classifies the ending: "" (ok), "error", "cancelled",
	// "deadline" or "shed". Replay re-runs "" and "error" entries (both
	// are deterministic); lifecycle outcomes are offered-load context.
	Outcome string `json:"outcome,omitempty"`
	// Ledger is the entry's compact resource bill, when one was kept.
	Ledger *LedgerSummary `json:"ledger,omitempty"`
}

// Replayable reports whether an entry re-runs during replay:
// deterministic completions only (ok and ordinary errors). Shed,
// cancelled and deadline outcomes depend on load and caller behavior,
// not on the query, so they are recorded but not replayed.
func (e *Entry) Replayable() bool {
	return e.Outcome == "" || e.Outcome == "error"
}

// Workload is a parsed workload: its header and entries in capture
// order.
type Workload struct {
	Header  Header
	Entries []Entry
}

// Sessions returns the distinct session ids referenced by the workload
// (excluding StatelessSession), in first-appearance order.
func (w *Workload) Sessions() []int {
	seen := map[int]bool{}
	var out []int
	for i := range w.Entries {
		id := w.Entries[i].Session
		if id == StatelessSession || seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, id)
	}
	return out
}

// Encode writes the workload as JSONL: the header line, then one line
// per entry.
func (w *Workload) Encode(out io.Writer) error {
	bw := bufio.NewWriter(out)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(w.Header); err != nil {
		return err
	}
	for i := range w.Entries {
		if err := enc.Encode(&w.Entries[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxLineBytes bounds one JSONL line Parse accepts; a longer line is a
// named error, not a truncated entry.
const maxLineBytes = 1024 * 1024

// Parse reads a JSONL workload, validating the header magic and
// version.
func Parse(r io.Reader) (*Workload, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("workload: line 1: %w", err)
		}
		return nil, fmt.Errorf("workload: empty input")
	}
	var hdr Header
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("workload: bad header: %w", err)
	}
	if hdr.Format != formatName {
		return nil, fmt.Errorf("workload: not a workload file (format %q)", hdr.Format)
	}
	if hdr.Version != FormatVersion {
		return nil, fmt.Errorf("workload: version %d not supported (this reader handles %d)", hdr.Version, FormatVersion)
	}
	w := &Workload{Header: hdr}
	line := 1
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e Entry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("workload: line %d: %w", line, err)
		}
		w.Entries = append(w.Entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: line %d: %w", line+1, err)
	}
	return w, nil
}

// CapInput truncates s to at most cap bytes (DefaultInputCap when cap
// <= 0), cutting on a rune boundary and appending an ellipsis marker
// naming how many bytes were dropped. Inputs within budget come back
// unchanged.
func CapInput(s string, capBytes int) string {
	if capBytes <= 0 {
		capBytes = DefaultInputCap
	}
	if len(s) <= capBytes {
		return s
	}
	cut := capBytes
	for cut > 0 && !utf8.RuneStart(s[cut]) {
		cut--
	}
	return fmt.Sprintf("%s…(+%d bytes)", s[:cut], len(s)-cut)
}

// Recorder captures finished queries into a bounded in-memory workload,
// optionally streaming each line through a write-through sink (atlasd
// -record-workload). Safe for concurrent use.
type Recorder struct {
	mu      sync.Mutex
	hdr     Header
	entries []Entry
	max     int
	cap     int
	dropped int64
	sink    io.Writer
	sinkHdr bool
	sinkErr error
}

// RecorderOptions tune a recorder; zero values use the defaults.
type RecorderOptions struct {
	// MaxEntries bounds the in-memory capture (DefaultMaxEntries when
	// <= 0).
	MaxEntries int
	// InputCap bounds one recorded input in bytes (DefaultInputCap when
	// <= 0).
	InputCap int
}

// NewRecorder starts a capture over the named table; the capture clock
// starts now.
func NewRecorder(table string, opts RecorderOptions) *Recorder {
	max := opts.MaxEntries
	if max <= 0 {
		max = DefaultMaxEntries
	}
	ic := opts.InputCap
	if ic <= 0 {
		ic = DefaultInputCap
	}
	return &Recorder{
		hdr: Header{Format: formatName, Version: FormatVersion, Table: table, Start: time.Now()},
		max: max,
		cap: ic,
	}
}

// SetSink adds a write-through sink: the header (immediately) and every
// later entry are written as JSONL lines. The first sink write error
// stops the stream; recording continues in memory.
func (r *Recorder) SetSink(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sink = w
	if w != nil && !r.sinkHdr {
		r.writeSinkLine(&r.hdr)
		r.sinkHdr = true
	}
}

func (r *Recorder) writeSinkLine(v any) {
	if r.sink == nil || r.sinkErr != nil {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		r.sinkErr = err
		return
	}
	if _, err := r.sink.Write(append(data, '\n')); err != nil {
		r.sinkErr = err
	}
}

// Observe records one finished (or shed) query. The input is capped at
// the recorder's byte budget; the arrival offset is computed from the
// duration so the recorded timeline reflects when queries arrived, not
// when they finished. Past MaxEntries the entry is dropped from memory
// (counted) but still streamed to the sink.
func (r *Recorder) Observe(op, input string, session int, outcome string, dur time.Duration, led *obsv.LedgerSnapshot) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	off := time.Since(r.hdr.Start) - dur
	if off < 0 {
		off = 0
	}
	e := Entry{
		Seq:      len(r.entries) + int(r.dropped),
		OffsetNs: off.Nanoseconds(),
		Op:       op,
		Input:    CapInput(input, r.cap),
		Session:  session,
		DurNs:    dur.Nanoseconds(),
		Outcome:  outcome,
		Ledger:   SummarizeLedger(led),
	}
	r.writeSinkLine(&e)
	if len(r.entries) >= r.max {
		r.dropped++
		return
	}
	r.entries = append(r.entries, e)
}

// Dropped counts entries past the in-memory bound.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Len returns the in-memory entry count.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Snapshot copies the capture so far.
func (r *Recorder) Snapshot() *Workload {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &Workload{Header: r.hdr, Entries: append([]Entry(nil), r.entries...)}
}

// Export encodes the capture so far as JSONL.
func (r *Recorder) Export(w io.Writer) error {
	return r.Snapshot().Encode(w)
}
