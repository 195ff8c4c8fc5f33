package remote

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"testing"

	"repro/internal/colstore"
	"repro/internal/shard"
	"repro/internal/stats"
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

// FuzzBatchStats: a batchstats body decodes into consistent statistics
// — every categorical answer with one count per dictionary entry — or
// fails with an error.
func FuzzBatchStats(f *testing.F) {
	ok, err := encodeBatch(batchHeaderDTO{Stats: []batchStatDTO{
		{Attr: "age", Kind: "numeric", Off: 0, Count: 2},
		{Attr: "sex", Kind: "cat", Dict: []string{"F", "M"}, Counts: []int{3, 4}},
		{Attr: "ok", Kind: "bool", Falses: 1, Trues: 2},
	}}, encodeFloats([]float64{1.5, -2}))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ok)
	f.Add(ok[:len(ok)-3])
	f.Add([]byte{255, 255, 255, 127})
	f.Add([]byte("\x10\x00\x00\x00{\"stats\":null}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		num, cat, boolc, err := parseBatchStats(data)
		if err != nil {
			if err.Error() == "" {
				t.Fatal("unnamed error")
			}
			return
		}
		if num == nil || cat == nil || boolc == nil {
			t.Fatal("a successful parse left a statistics map nil")
		}
		for attr, dto := range cat {
			if len(dto.Dict) != len(dto.Counts) {
				t.Fatalf("%q: %d dictionary entries with %d counts", attr, len(dto.Dict), len(dto.Counts))
			}
		}
	})
}

// FuzzPartials: a partials answer to a request for n columns decodes
// into exactly n bundles, each histogram with one count per bin — or
// fails with an error.
func FuzzPartials(f *testing.F) {
	ok, err := json.Marshal([]partialDTO{
		partialToDTO(&shard.ColumnPartial{Rows: 4, Nulls: 1, Count: 3, Sum: 6, Min: 1, Max: 3, HasMinMax: true,
			Hist: &stats.Histogram{Edges: []float64{1, 2, 3}, Counts: []int{1, 2}}}),
		partialToDTO(&shard.ColumnPartial{Rows: 4, Count: 4, CatCounts: []int{3, 1}}),
		partialToDTO(&shard.ColumnPartial{Rows: 4, Count: 4, Falses: 1, Trues: 3}),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ok, uint8(3))
	f.Add(ok, uint8(2))
	f.Add(ok[:len(ok)-5], uint8(3))
	f.Add([]byte(`[{"rows":1,"histEdges":["0"],"histCounts":[]}]`), uint8(1))
	f.Add([]byte(`[{"rows":1,"hasMinMax":true,"min":"zz"}]`), uint8(1))
	f.Add([]byte(`null`), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		parts, err := parsePartials(data, int(n))
		if err != nil {
			if err.Error() == "" {
				t.Fatal("unnamed error")
			}
			return
		}
		if len(parts) != int(n) {
			t.Fatalf("%d partials for %d specs", len(parts), n)
		}
		for i, p := range parts {
			if p == nil {
				t.Fatalf("partial %d is nil", i)
			}
			if h := p.Hist; h != nil && (len(h.Edges) < 2 || len(h.Counts) != len(h.Edges)-1) {
				t.Fatalf("partial %d: histogram of %d edges with %d counts", i, len(h.Edges), len(h.Counts))
			}
		}
	})
}
