package engine

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/query"
	"repro/internal/storage"
)

// This file is the EXPLAIN surface of the engine: a dry run of the
// fused conjunctive scan that compiles the query's predicates and
// replays the chunk loop against zone maps ALONE — no chunk payload is
// ever fetched or decoded, so explaining a query against a cold remote
// fabric costs zero chunk-plane I/O. A shard set's zone maps and
// dictionaries are its manifest's, so explaining opens no shard.

// ChunkVerdict is a zone map's answer for one chunk, as EXPLAIN
// reports it.
type ChunkVerdict string

const (
	// VerdictScan: the chunk may hold both matching and non-matching
	// rows; the scan would fetch and test it.
	VerdictScan ChunkVerdict = "scan"
	// VerdictPrune: no row of the chunk can match; the scan would skip
	// it without I/O.
	VerdictPrune ChunkVerdict = "prune"
	// VerdictFull: every row of the chunk matches; the scan would keep
	// its bits without I/O.
	VerdictFull ChunkVerdict = "full"
	// VerdictUnsampled: the chunk holds no row of the sample; the scan
	// never visits it, and no predicate judges it.
	VerdictUnsampled ChunkVerdict = "unsampled"
)

// PredExplain is one predicate's compile + zone-map summary.
type PredExplain struct {
	// Attr is the predicate's attribute.
	Attr string `json:"attr"`
	// Pred is the predicate rendered in CQL syntax.
	Pred string `json:"pred"`
	// Never marks predicates proven unsatisfiable at compile time (an
	// In set with no dictionary hits): the scan clears the selection
	// without touching any chunk.
	Never bool `json:"never,omitempty"`
	// Prune, Full, Scan count this predicate's chunk verdicts. Chunks a
	// preceding predicate already pruned are not re-judged: the first
	// prune decides the chunk's plan.
	Prune int `json:"prune"`
	Full  int `json:"full"`
	Scan  int `json:"scan"`
}

// QueryExplain is the dry-run plan of one conjunctive query against
// one table: per-predicate and combined chunk verdicts, and the I/O
// the scan would cost, all read off zone maps before any chunk is
// touched.
type QueryExplain struct {
	// Table is the table name, Rows its row count.
	Table string `json:"table"`
	Rows  int    `json:"rows"`
	// NumChunks and ChunkSize describe the chunk grid.
	NumChunks int `json:"numChunks,omitempty"`
	ChunkSize int `json:"chunkSize,omitempty"`
	// Unsampled counts the chunks a sampled plan skips: they hold no
	// sampled row.
	Unsampled int `json:"unsampled,omitempty"`
	// Preds summarizes each predicate in query order.
	Preds []PredExplain `json:"preds"`
	// ChunksPruned / ChunksFull / ChunksScanned are the combined
	// per-chunk outcomes over the chunks the scan visits: a chunk is
	// pruned when any predicate prunes it, full when every predicate
	// proves full match, scanned otherwise.
	ChunksPruned  int `json:"chunksPruned"`
	ChunksFull    int `json:"chunksFull"`
	ChunksScanned int `json:"chunksScanned"`
	// Verdicts is the combined verdict per chunk, in chunk order.
	Verdicts []ChunkVerdict `json:"verdicts,omitempty"`
	// EstChunkFetches counts the distinct (column, chunk) payloads a
	// cold scan would fetch; EstBytesDecoded estimates their decoded
	// size from the column type widths (8 bytes per int64/float64 row,
	// 4 per dictionary code, 1 per bool).
	EstChunkFetches int   `json:"estChunkFetches"`
	EstBytesDecoded int64 `json:"estBytesDecoded"`
}

// typeWidth is the decoded per-row byte width EXPLAIN estimates with.
func typeWidth(t storage.DataType) int64 {
	switch t {
	case storage.Int64, storage.Float64:
		return 8
	case storage.String:
		return 4
	case storage.Bool:
		return 1
	default:
		return 8
	}
}

// ExplainQuery dry-runs q against t over the rows of sample, or every
// row when sample is nil: predicates are compiled exactly as
// EvalAndIntoOpts compiles them, then each chunk holding a sampled row
// is judged against zone maps only. No chunk payload is fetched — on a
// lazy store the decoded-chunk counter does not move.
func ExplainQuery(t *storage.Table, q query.Query, sample *bitvec.Vector) (*QueryExplain, error) {
	if sample != nil && sample.Len() != t.NumRows() {
		return nil, fmt.Errorf("engine: sample of %d rows over %d rows", sample.Len(), t.NumRows())
	}
	cps, err := compileQuery(t, q)
	if err != nil {
		return nil, err
	}
	ex := &QueryExplain{Table: t.Name(), Rows: t.NumRows(), Preds: make([]PredExplain, len(cps))}
	for i, p := range q.Preds {
		ex.Preds[i] = PredExplain{Attr: p.Attr, Pred: p.String(), Never: cps[i].never}
	}
	ck := t.Chunking()
	numChunks := ck.NumChunks(t.NumRows())
	ex.NumChunks = numChunks
	ex.ChunkSize = ck.Size
	if len(cps) == 0 || numChunks == 0 {
		return ex, nil
	}
	ex.Verdicts = make([]ChunkVerdict, numChunks)
	type colChunk struct{ ci, k int }
	fetched := make(map[colChunk]struct{})
	verdict := chunkVerdict(t)
	lastRows := t.NumRows() - (numChunks-1)*ck.Size
	for k := 0; k < numChunks; k++ {
		chunkRows := ck.Size
		if k == numChunks-1 {
			chunkRows = lastRows
		}
		if sample != nil && !sampled(sample, k, ck.Size) {
			ex.Verdicts[k] = VerdictUnsampled
			ex.Unsampled++
			continue
		}
		plan := planChunk(cps, verdict, k)
	preds:
		for i := range cps {
			cp := &cps[i]
			switch verdict(cp, k) {
			case zonePrune:
				ex.Preds[i].Prune++
				break preds // the first prune decides the plan
			case zoneFull:
				ex.Preds[i].Full++
			default:
				ex.Preds[i].Scan++
				if plan == zoneScan && cp.runs.Fetches() {
					cc := colChunk{cp.colIdx, k}
					if _, ok := fetched[cc]; !ok {
						fetched[cc] = struct{}{}
						ex.EstBytesDecoded += typeWidth(t.Schema().Field(cp.colIdx).Type) * int64(chunkRows)
					}
				}
			}
		}
		switch plan {
		case zonePrune:
			ex.Verdicts[k] = VerdictPrune
			ex.ChunksPruned++
		case zoneFull:
			ex.Verdicts[k] = VerdictFull
			ex.ChunksFull++
		default:
			ex.Verdicts[k] = VerdictScan
			ex.ChunksScanned++
		}
	}
	ex.EstChunkFetches = len(fetched)
	return ex, nil
}

// sampled reports whether chunk k, of size rows, holds a row of sample.
func sampled(sample *bitvec.Vector, k, size int) bool {
	w0, words := sample.Window()
	wordsPerChunk := size / 64
	a, b := max(k*wordsPerChunk, w0), min((k+1)*wordsPerChunk, w0+len(words))
	return a < b && anyWords(words[a-w0:b-w0])
}
