package remote

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"math/bits"
	"testing"

	"repro/internal/colstore"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/storage"
)

// Fuzz targets for the fabric's byte-facing decoders: whatever a shard
// (or something posing as one) sends, the coordinator's parsers return a
// named error or a result that honours the request — they never panic.
// Seed corpora live under testdata/fuzz.

// frame encodes one chunk-plane frame around raw.
func frame(k int, raw []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(k))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(raw)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(raw))
	return append(b, raw...)
}

// FuzzChunkFrames: a chunk-plane body answering a request for count
// chunks from first on either parses into one CRC-checked frame per
// requested chunk, in order, none longer than a chunk can encode to and
// with nothing left over — or fails with an error.
func FuzzChunkFrames(f *testing.F) {
	f.Add(append(frame(0, []byte("chunk zero")), frame(1, []byte("chunk one"))...), uint16(0), uint8(2))
	f.Add(frame(3, []byte{1, 2, 3}), uint16(3), uint8(1))
	f.Add(frame(5, nil), uint16(4), uint8(2))
	f.Add([]byte{1, 0, 0, 0, 255, 255, 255, 255}, uint16(1), uint8(1))
	const chunkRows = 64
	limit := func(int) int { return colstore.MaxChunkBytes(chunkRows) }
	f.Fuzz(func(t *testing.T, body []byte, first uint16, count uint8) {
		ks := make([]int, count%(16+1))
		for i := range ks {
			ks[i] = int(first) + i
		}
		raws, err := parseFrames(body, ks, limit)
		if err != nil {
			if err.Error() == "" {
				t.Fatal("unnamed error")
			}
			return
		}
		if len(raws) != len(ks) {
			t.Fatalf("%d frames for %d requested chunks", len(raws), len(ks))
		}
		total := 0
		for i, raw := range raws {
			if len(raw) > limit(ks[i]) {
				t.Fatalf("frame %d of %d bytes passed a %d-byte bound", i, len(raw), limit(ks[i]))
			}
			total += frameHeaderLen + len(raw)
		}
		if total != len(body) {
			t.Fatalf("frames cover %d of %d body bytes", total, len(body))
		}
	})
}

// cutFuzzSchema is the shard FuzzCutFrames parses against: one column
// of each type over cutFuzzRows rows, whose last selection word has
// tail bits.
var cutFuzzSchema = storage.MustSchema(
	storage.Field{Name: "i", Type: storage.Int64},
	storage.Field{Name: "f", Type: storage.Float64},
	storage.Field{Name: "s", Type: storage.String},
	storage.Field{Name: "b", Type: storage.Bool},
)

const cutFuzzRows = 130

// appendCutAnswer encodes a, the answer to req over cutFuzzSchema, under
// its CRC, as the server frames it.
func appendCutAnswer(dst []byte, req shard.CutRequest, a *shard.CutAnswer) []byte {
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	return sealCutAnswer(appendCutPayload(dst, req, cutFuzzSchema, a), at)
}

// FuzzCutFrames: a cut request either parses into one the shard can
// answer — a kind that fits its column, a selection within its words
// with no bit past its last row, predicates for a partition — or fails
// with a named error; and an answer to a parsed request either decodes
// consistently with it — its CRC matching, one value per present bit,
// every bitmap within the selection, regions disjoint, counts no more
// than the selected rows — or fails with a named error. Neither panics.
func FuzzCutFrames(f *testing.F) {
	// seed adds a request and the answer a to it.
	seed := func(req shard.CutRequest, a *shard.CutAnswer) {
		f.Add(appendCutRequest(nil, req, cutFuzzSchema.Field(req.Cols[0]).Type), appendCutAnswer(nil, req, a))
	}
	sel := []uint64{0b1011, 0b11}
	seed(shard.CutRequest{Kind: shard.CutValues, Cols: []int{1}},
		&shard.CutAnswer{Values: []shard.ValueRun{{Vals: []float64{1.5, -2}, Present: []uint64{0b11, 0, 0}, Sum: engine.NumericSummary{Min: -2, Max: 1.5}}}})
	seed(shard.CutRequest{Kind: shard.CutValues, Cols: []int{0, 1}, W0: 1, Sel: sel},
		&shard.CutAnswer{Values: []shard.ValueRun{
			{Vals: []float64{math.NaN(), 7}, Present: []uint64{0b10, 1}, Sum: engine.NumericSummary{NaN: 1, Min: 7, Max: 7}},
			{Vals: []float64{-1}, Present: []uint64{0b1000, 0}, Sum: engine.NumericSummary{Min: -1, Max: -1}},
		}})
	seed(shard.CutRequest{Kind: shard.CutPartition, Cols: []int{2}, W0: 1, Sel: sel,
		Preds: []query.Predicate{query.NewIn("s", "a", "b"), query.NewIn("s", "c")}},
		&shard.CutAnswer{Bits: [][]uint64{{0b11, 0}, {0b1000, 1}}})
	seed(shard.CutRequest{Kind: shard.CutCategories, Cols: []int{2}},
		&shard.CutAnswer{Counts: []int{3, 0, 4}})
	seed(shard.CutRequest{Kind: shard.CutBools, Cols: []int{3}, W0: 2, Sel: []uint64{0b11}},
		&shard.CutAnswer{Falses: 1, Trues: 1})
	seed(shard.CutRequest{Kind: shard.CutPartition, Cols: []int{3},
		Preds: []query.Predicate{query.NewBoolEq("b", false), query.NewBoolEq("b", true)}},
		&shard.CutAnswer{Bits: [][]uint64{{1, 0, 0}, {2, 0, 0}}})
	seed(shard.CutRequest{Kind: shard.CutSummary, Cols: []int{0, 1, 2, 3}},
		&shard.CutAnswer{Summaries: []shard.Summary{
			{Count: 3, Sum: 6, Stats: engine.NumericSummary{Min: 1, Max: 3}},
			{Count: 2, Sum: math.NaN(), Stats: engine.NumericSummary{NaN: 1, Min: -0.5, Max: -0.5}},
			{Count: 4, Counts: []int{3, 1}},
			{Count: 4, Falses: 1, Trues: 3},
		}})
	bins := make([]int, shard.SummaryBins)
	bins[0], bins[shard.SummaryBins-1] = 1, 1
	seed(shard.CutRequest{Kind: shard.CutSummary, Cols: []int{1, 0}, W0: 1, Sel: sel, Ranges: [][2]float64{{-2, 5}, {4, 4}}},
		&shard.CutAnswer{Summaries: []shard.Summary{
			{Count: 2, Sum: 3, Stats: engine.NumericSummary{Min: -2, Max: 5}, Finite: engine.NumericSummary{Min: -2, Max: 5}, Bins: bins},
			{Count: 1, Sum: 4, Stats: engine.NumericSummary{Min: 4, Max: 4}, Finite: engine.NumericSummary{Min: 4, Max: 4}, Bins: []int{1}},
		}})
	// Infinities are counted apart, and only the finite value is binned.
	oneBin := make([]int, shard.SummaryBins)
	oneBin[3] = 1
	seed(shard.CutRequest{Kind: shard.CutSummary, Cols: []int{1}, Ranges: [][2]float64{{0, 64}}},
		&shard.CutAnswer{Summaries: []shard.Summary{
			{Count: 4, Sum: math.NaN(), Stats: engine.NumericSummary{Min: math.Inf(-1), Max: math.Inf(1)},
				NegInf: 1, PosInf: 2, Finite: engine.NumericSummary{Min: 3.5, Max: 3.5}, Bins: oneBin},
		}})
	f.Fuzz(func(t *testing.T, reqBody, answer []byte) {
		req, err := parseCutRequest(reqBody, cutFuzzSchema, cutFuzzRows)
		if err != nil {
			if err.Error() == "" {
				t.Fatal("unnamed request error")
			}
			return
		}
		for _, ci := range req.Cols {
			if !req.Kind.Fits(cutFuzzSchema.Field(ci).Type) {
				t.Fatalf("kind %d accepted for column %d", req.Kind, ci)
			}
		}
		if len(req.Cols) == 0 || !req.Kind.ManyColumns() && len(req.Cols) != 1 {
			t.Fatalf("kind %d accepted over %d columns", req.Kind, len(req.Cols))
		}
		if req.Ranges != nil {
			if req.Kind != shard.CutSummary || len(req.Ranges) != len(req.Cols) {
				t.Fatalf("kind %d accepted with %d ranges for %d columns", req.Kind, len(req.Ranges), len(req.Cols))
			}
			for c, r := range req.Ranges {
				if !cutFuzzSchema.Field(req.Cols[c]).Type.IsNumeric() || !(r[0] <= r[1]) {
					t.Fatalf("range %v accepted for column %d", r, req.Cols[c])
				}
			}
		}
		const words = (cutFuzzRows + 63) / 64
		if req.Sel != nil {
			if len(req.Sel) == 0 || req.W0+len(req.Sel) > words {
				t.Fatalf("selection words [%d,%d) accepted over %d", req.W0, req.W0+len(req.Sel), words)
			}
			if req.W0+len(req.Sel) == words && tailBits(req.Sel[len(req.Sel)-1], cutFuzzRows) != 0 {
				t.Fatal("selection past the last row accepted")
			}
		}
		if (req.Kind == shard.CutPartition) != (len(req.Preds) > 0) {
			t.Fatalf("kind %d with %d predicates", req.Kind, len(req.Preds))
		}
		var a shard.CutAnswer
		if err := parseCutAnswer(answer, req, cutFuzzSchema, cutFuzzRows, &a); err != nil {
			if err.Error() == "" {
				t.Fatal("unnamed answer error")
			}
			return
		}
		if crc32.ChecksumIEEE(answer[4:]) != binary.LittleEndian.Uint32(answer) {
			t.Fatal("answer with a bad checksum accepted")
		}
		nw := reqWords(req, cutFuzzRows)
		selWord := func(j int) uint64 {
			if req.Sel != nil {
				return req.Sel[j]
			}
			if j == nw-1 {
				return 1<<(cutFuzzRows%64) - 1
			}
			return ^uint64(0)
		}
		selected := 0
		for j := 0; j < nw; j++ {
			selected += bits.OnesCount64(selWord(j))
		}
		switch req.Kind {
		case shard.CutValues:
			if len(a.Values) != len(req.Cols) {
				t.Fatalf("%d value runs for %d columns", len(a.Values), len(req.Cols))
			}
			for _, v := range a.Values {
				if len(v.Present) != nw {
					t.Fatalf("%d present words for %d selection words", len(v.Present), nw)
				}
				n := 0
				for j, w := range v.Present {
					if w&^selWord(j) != 0 {
						t.Fatalf("present word %d outside the selection", j)
					}
					n += bits.OnesCount64(w)
				}
				if n != len(v.Vals) || v.Sum.NaN > n {
					t.Fatalf("%d values, %d NaN, for %d present rows", len(v.Vals), v.Sum.NaN, n)
				}
			}
		case shard.CutCategories:
			total := 0
			for _, c := range a.Counts {
				total += c
			}
			if total > selected {
				t.Fatalf("counts total %d over %d selected rows", total, selected)
			}
		case shard.CutBools:
			if a.Falses+a.Trues > selected {
				t.Fatalf("%d+%d tallies over %d selected rows", a.Falses, a.Trues, selected)
			}
		case shard.CutPartition:
			if len(a.Bits) != len(req.Preds) {
				t.Fatalf("%d bitmaps for %d predicates", len(a.Bits), len(req.Preds))
			}
			seen := make([]uint64, nw)
			for _, b := range a.Bits {
				if len(b) != nw {
					t.Fatalf("bitmap of %d words for %d", len(b), nw)
				}
				for j, w := range b {
					if w&^selWord(j) != 0 || w&seen[j] != 0 {
						t.Fatalf("region word %d outside the selection or overlapping", j)
					}
					seen[j] |= w
				}
			}
		case shard.CutSummary:
			if len(a.Summaries) != len(req.Cols) {
				t.Fatalf("%d summaries for %d columns", len(a.Summaries), len(req.Cols))
			}
			for c, sum := range a.Summaries {
				bins := 0
				for _, n := range sum.Bins {
					bins += n
				}
				finite := sum.Count - sum.Stats.NaN - sum.NegInf - sum.PosInf
				if sum.Count > selected || sum.Stats.NaN > sum.Count || sum.NegInf < 0 || sum.PosInf < 0 ||
					finite < 0 || bins > finite || sum.Falses+sum.Trues > selected {
					t.Fatalf("column %d: summary %+v over %d selected rows", req.Cols[c], sum, selected)
				}
				if req.Ranges != nil {
					h, _ := shard.SummaryHist(req.Ranges[c][0], req.Ranges[c][1])
					if len(sum.Bins) != h.NumBins() {
						t.Fatalf("column %d: %d bins for %d", req.Cols[c], len(sum.Bins), h.NumBins())
					}
				}
			}
		}
	})
}

// FuzzShardMeta: a meta answer either builds a snapshot every one of
// whose zone-map records passes the checks a shard file's reader applies —
// sized to the shard's chunks and, for code sets, to the column's
// dictionary — or fails with an error. Seeded with a real server's
// answer.
func FuzzShardMeta(f *testing.F) {
	f.Add(servedMeta(f, f.TempDir()))
	f.Add([]byte(`{"rows":1,"chunkSize":64,"version":3,"columns":[{"name":"s","type":"string","dict":["a"],"zones":"BQEBAQEAAAAAAAAA"}]}`))
	f.Add([]byte(`{"rows":9223372036854775807,"chunkSize":64,"version":3,"columns":[{"name":"n","type":"int64","zones":"AAAA"}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var dto metaDTO
		if json.Unmarshal(body, &dto) != nil {
			return
		}
		meta, err := dto.snapshot()
		if err != nil {
			if err.Error() == "" {
				t.Fatal("unnamed error")
			}
			return
		}
		numChunks := (meta.Rows + meta.ChunkSize - 1) / meta.ChunkSize
		for ci, f := range meta.Schema.Fields() {
			if f.Type != storage.String && meta.Dicts[ci] != nil {
				t.Fatalf("column %q: dictionary on a %v column", f.Name, f.Type)
			}
			if len(meta.Zones[ci]) != numChunks {
				t.Fatalf("column %q: %d zone maps for %d chunks", f.Name, len(meta.Zones[ci]), numChunks)
			}
			for k, zm := range meta.Zones[ci] {
				if err := zm.Check(f.Type, len(meta.Dicts[ci]), min(meta.ChunkSize, meta.Rows-k*meta.ChunkSize)); err != nil {
					t.Fatalf("column %q chunk %d accepted: %v", f.Name, k, err)
				}
			}
		}
	})
}
