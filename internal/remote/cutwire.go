package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"

	"repro/internal/colstore"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/storage"
)

// The cut frames: POST /shard/v1/cut carries one shard.CutRequest and is
// answered by one CutAnswer, both binary and little-endian. Bitmaps and
// values travel as whole word runs (colstore.AppendWords), so encoding
// and decoding them is a memory copy.
//
// Request:
//
//	u8 kind, u8 flags (bit 0: a selection follows, bit 1: ranges
//	follow), u32 m, m u32 columns
//	[selection]  u32 w0, u32 n, then n u64 words
//	[ranges]     m pairs of u64 lo bits, u64 hi bits (summary only)
//	[partition]  u32 k, then k predicates: for a string column u32 m and
//	             m values (u32 length, bytes); for a bool column one u8
//
// Answer: a u32 CRC-32 (IEEE) of everything after it, then by kind:
//
//	values      per requested column: u32 n, u64 NaN count, u64 min
//	            bits, u64 max bits, one present word per request word,
//	            n u64 values
//	categories  u32 m, m u64 counts
//	bools       u64 falses, u64 trues
//	partition   u32 k, k bitmaps of one word per request word
//	summary     per requested column, by its type: for a numeric one
//	            u64 count, u64 NaN count, u64 −Inf count, u64 +Inf
//	            count, u64 sum bits, u64 min bits, u64 max bits, u64
//	            finite min bits, u64 finite max bits, then with ranges
//	            one u64 count per bin of shard.SummaryHist(lo, hi); for
//	            a string one u32 m, m u64 counts; for a bool one u64
//	            falses, u64 trues
//
// where the request's words are its selection's, or all the shard's when
// it sent none. Nothing may follow; the parsers below check every count
// against the bytes and the selection, so a bad frame is a named error.

// The request flags: a selection follows, ranges follow.
const (
	cutRequestFlagSel    = 1
	cutRequestFlagRanges = 2
)

// appendCutRequest encodes req, a cut of columns whose first has type
// typ.
func appendCutRequest(dst []byte, req shard.CutRequest, typ storage.DataType) []byte {
	flags := byte(0)
	if req.Sel != nil {
		flags |= cutRequestFlagSel
	}
	if req.Ranges != nil {
		flags |= cutRequestFlagRanges
	}
	dst = append(dst, byte(req.Kind), flags)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(req.Cols)))
	for _, ci := range req.Cols {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(ci))
	}
	if req.Sel != nil {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(req.W0))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(req.Sel)))
		dst = colstore.AppendWords(dst, req.Sel)
	}
	for _, r := range req.Ranges {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r[0]))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r[1]))
	}
	if req.Kind == shard.CutPartition {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(req.Preds)))
		for _, p := range req.Preds {
			if typ == storage.Bool {
				dst = append(dst, b2byte(p.BoolVal))
				continue
			}
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p.Values)))
			for _, v := range p.Values {
				dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v)))
				dst = append(dst, v...)
			}
		}
	}
	return dst
}

func b2byte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// frameReader reads little-endian fields off a frame, failing once with
// a named error when the frame runs out.
type frameReader struct {
	b   []byte
	err error
}

func (r *frameReader) take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.err = fmt.Errorf("truncated frame: %s needs %d bytes, %d left", what, n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *frameReader) u8(what string) byte {
	if b := r.take(1, what); b != nil {
		return b[0]
	}
	return 0
}

func (r *frameReader) u32(what string) int {
	if b := r.take(4, what); b != nil {
		return int(binary.LittleEndian.Uint32(b))
	}
	return 0
}

func (r *frameReader) u64(what string) uint64 {
	if b := r.take(8, what); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// readWords decodes n 8-byte words off r into dst's storage.
func readWords[T uint64 | float64](r *frameReader, dst []T, n int, what string) []T {
	b := r.take(8*n, what)
	if b == nil {
		return dst[:0]
	}
	dst = slices.Grow(dst[:0], n)[:n]
	colstore.DecodeWords(dst, b)
	return dst
}

// done fails when bytes follow the frame's last field.
func (r *frameReader) done() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("%d trailing bytes after the frame", len(r.b))
	}
	return r.err
}

// parseCutRequest decodes and validates a cut request against the
// shard's schema and row count: a known kind that applies to the
// column's type, a selection that lies within the shard's words and
// sets no bit past its last row, well-formed predicates, and ranges
// only for a summary of numeric columns, each with lo <= hi.
func parseCutRequest(body []byte, schema *storage.Schema, rows int) (shard.CutRequest, error) {
	r := &frameReader{b: body}
	var req shard.CutRequest
	req.Kind = shard.CutKind(r.u8("kind"))
	flags := r.u8("flags")
	m := r.u32("column count")
	if r.err != nil {
		return req, r.err
	}
	if req.Kind < shard.CutValues || req.Kind > shard.CutSummary {
		return req, fmt.Errorf("unknown cut kind %d", req.Kind)
	}
	if flags&^(cutRequestFlagSel|cutRequestFlagRanges) != 0 {
		return req, fmt.Errorf("unknown cut request flags %#x", flags)
	}
	if flags&cutRequestFlagRanges != 0 && req.Kind != shard.CutSummary {
		return req, fmt.Errorf("cut kind %d with ranges", req.Kind)
	}
	if m == 0 || m > schema.NumFields() || !req.Kind.ManyColumns() && m > 1 {
		return req, fmt.Errorf("cut kind %d of %d columns", req.Kind, m)
	}
	for i := 0; i < m; i++ {
		ci := r.u32("column")
		if r.err != nil {
			return req, r.err
		}
		if ci >= schema.NumFields() {
			return req, fmt.Errorf("column %d out of range", ci)
		}
		if typ := schema.Field(ci).Type; !req.Kind.Fits(typ) {
			return req, fmt.Errorf("cut kind %d does not apply to %v column %d", req.Kind, typ, ci)
		}
		req.Cols = append(req.Cols, ci)
	}
	typ := schema.Field(req.Cols[0]).Type
	words := (rows + 63) / 64
	if flags&cutRequestFlagSel != 0 {
		req.W0 = r.u32("selection start")
		n := r.u32("selection length")
		if r.err == nil && (n == 0 || req.W0+n > words) {
			return req, fmt.Errorf("selection words [%d,%d) outside the shard's %d", req.W0, req.W0+n, words)
		}
		req.Sel = readWords(r, []uint64(nil), n, "selection")
		if r.err == nil && req.W0+n == words && tailBits(req.Sel[n-1], rows) != 0 {
			return req, fmt.Errorf("selection sets bits past row %d", rows)
		}
	}
	if flags&cutRequestFlagRanges != 0 {
		req.Ranges = make([][2]float64, m)
		for c, ci := range req.Cols {
			lo, hi := math.Float64frombits(r.u64("range")), math.Float64frombits(r.u64("range"))
			if r.err != nil {
				return req, r.err
			}
			if !schema.Field(ci).Type.IsNumeric() || !(lo <= hi) {
				return req, fmt.Errorf("range [%g, %g] of %v column %d", lo, hi, schema.Field(ci).Type, ci)
			}
			req.Ranges[c] = [2]float64{lo, hi}
		}
	}
	if req.Kind == shard.CutPartition {
		k := r.u32("predicate count")
		if r.err == nil && k == 0 {
			return req, errors.New("partition of no predicate")
		}
		attr := schema.Field(req.Cols[0]).Name
		for i := 0; i < k && r.err == nil; i++ {
			if typ == storage.Bool {
				switch v := r.u8("bool predicate"); v {
				case 0, 1:
					req.Preds = append(req.Preds, query.NewBoolEq(attr, v == 1))
				default:
					return req, fmt.Errorf("bool predicate value %d", v)
				}
				continue
			}
			m := r.u32("value count")
			if m > len(r.b)/4 {
				r.take(4*m, "values")
				break
			}
			vals := make([]string, m)
			for j := range vals {
				vals[j] = string(r.take(r.u32("value length"), "value"))
			}
			req.Preds = append(req.Preds, query.NewIn(attr, vals...))
		}
	}
	return req, r.done()
}

// tailBits returns the bits of a shard's last selection word that lie
// past its last row.
func tailBits(last uint64, rows int) uint64 {
	if r := rows % 64; r != 0 {
		return last >> uint(r)
	}
	return 0
}

// sealCutAnswer fills in the CRC of the answer that starts at dst[at]
// with 4 bytes reserved for it.
func sealCutAnswer(dst []byte, at int) []byte {
	binary.LittleEndian.PutUint32(dst[at:], crc32.ChecksumIEEE(dst[at+4:]))
	return dst
}

// appendCutPayload encodes a's answer to req, a cut of a shard with
// schema, without the CRC. The value runs of a CutValues answer may be
// appended a few at a time.
func appendCutPayload(dst []byte, req shard.CutRequest, schema *storage.Schema, a *shard.CutAnswer) []byte {
	switch req.Kind {
	case shard.CutValues:
		for _, v := range a.Values {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v.Vals)))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.Sum.NaN))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Sum.Min))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Sum.Max))
			dst = colstore.AppendWords(dst, v.Present)
			dst = colstore.AppendWords(dst, v.Vals)
		}
	case shard.CutCategories:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(a.Counts)))
		for _, c := range a.Counts {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(c))
		}
	case shard.CutBools:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(a.Falses))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(a.Trues))
	case shard.CutPartition:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(a.Bits)))
		for _, b := range a.Bits {
			dst = colstore.AppendWords(dst, b)
		}
	case shard.CutSummary:
		for c, s := range a.Summaries {
			switch schema.Field(req.Cols[c]).Type {
			case storage.String:
				dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.Counts)))
				for _, n := range s.Counts {
					dst = binary.LittleEndian.AppendUint64(dst, uint64(n))
				}
			case storage.Bool:
				dst = binary.LittleEndian.AppendUint64(dst, uint64(s.Falses))
				dst = binary.LittleEndian.AppendUint64(dst, uint64(s.Trues))
			default:
				dst = binary.LittleEndian.AppendUint64(dst, uint64(s.Count))
				dst = binary.LittleEndian.AppendUint64(dst, uint64(s.Stats.NaN))
				dst = binary.LittleEndian.AppendUint64(dst, uint64(s.NegInf))
				dst = binary.LittleEndian.AppendUint64(dst, uint64(s.PosInf))
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.Sum))
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.Stats.Min))
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.Stats.Max))
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.Finite.Min))
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.Finite.Max))
				for _, n := range s.Bins {
					dst = binary.LittleEndian.AppendUint64(dst, uint64(n))
				}
			}
		}
	}
	return dst
}

// cutAnswerLimit is the most bytes an answer to req over a shard of rows
// rows can take, or 0 when only the shard's dictionaries bound it (a
// categories or summary answer).
func cutAnswerLimit(req shard.CutRequest, rows int) int64 {
	n := int64(reqWords(req, rows))
	switch req.Kind {
	case shard.CutValues:
		return 4 + int64(len(req.Cols))*(4+24+8*n+8*min(64*n, int64(rows)))
	case shard.CutBools:
		return 4 + 16
	case shard.CutPartition:
		return 4 + 4 + 8*n*int64(len(req.Preds))
	}
	return 0
}

// reqWords is the number of selection words req covers.
func reqWords(req shard.CutRequest, rows int) int {
	if req.Sel == nil {
		return (rows + 63) / 64
	}
	return len(req.Sel)
}

// parseCutAnswer decodes the answer to req from a shard of rows rows
// with schema into a, trusting nothing: the CRC must match, every count
// agree with the bytes that carry it and total no more than the rows it
// counts, every bitmap lie within the request's selection — which also
// keeps it clear of the bits past the shard's last row — and present
// words hold exactly one bit per value. a's slices are reused; none
// aliases body.
func parseCutAnswer(body []byte, req shard.CutRequest, schema *storage.Schema, rows int, a *shard.CutAnswer) error {
	if len(body) < 4 {
		return fmt.Errorf("cut answer of %d bytes has no checksum", len(body))
	}
	if crc32.ChecksumIEEE(body[4:]) != binary.LittleEndian.Uint32(body) {
		return errors.New("cut answer checksum mismatch")
	}
	r := &frameReader{b: body[4:]}
	nw := reqWords(req, rows)
	sel := func(j int) uint64 {
		if req.Sel != nil {
			return req.Sel[j]
		}
		if j == nw-1 {
			if r := rows % 64; r != 0 {
				return 1<<uint(r) - 1
			}
		}
		return ^uint64(0)
	}
	// within checks that words lie within the selection and returns
	// their bit count.
	within := func(words []uint64, what string) (int, error) {
		n := 0
		for j, w := range words {
			if w&^sel(j) != 0 {
				return 0, fmt.Errorf("%s word %d marks rows outside the selection", what, j)
			}
			n += bits.OnesCount64(w)
		}
		return n, nil
	}
	selected := 0
	for j := 0; j < nw; j++ {
		selected += bits.OnesCount64(sel(j))
	}
	a.W0 = req.W0
	switch req.Kind {
	case shard.CutValues:
		a.Values = slices.Grow(a.Values[:0], len(req.Cols))[:len(req.Cols)]
		for c := range a.Values {
			v := &a.Values[c]
			n := r.u32("value count")
			nan := r.u64("NaN count")
			v.Sum.Min = math.Float64frombits(r.u64("min"))
			v.Sum.Max = math.Float64frombits(r.u64("max"))
			v.Present = readWords(r, v.Present, nw, "present words")
			v.Vals = readWords(r, v.Vals, n, "values")
			if r.err != nil {
				return r.err
			}
			got, err := within(v.Present, "present")
			if err != nil {
				return err
			}
			if got != n {
				return fmt.Errorf("column %d: %d values for %d present rows", req.Cols[c], n, got)
			}
			if nan > uint64(n) {
				return fmt.Errorf("column %d: %d NaN among %d values", req.Cols[c], nan, n)
			}
			v.Sum.NaN = int(nan)
		}
		if err := r.done(); err != nil {
			return err
		}
	case shard.CutCategories:
		counts, err := readCounts(r, a.Counts[:0], r.u32("category count"), selected, "category counts")
		if err != nil {
			return err
		}
		if err := r.done(); err != nil {
			return err
		}
		a.Counts = counts
	case shard.CutBools:
		f, t, err := readBools(r, selected)
		if err != nil {
			return err
		}
		if err := r.done(); err != nil {
			return err
		}
		a.Falses, a.Trues = f, t
	case shard.CutPartition:
		k := r.u32("region count")
		if r.err == nil && k != len(req.Preds) {
			return fmt.Errorf("%d region bitmaps for %d predicates", k, len(req.Preds))
		}
		a.Bits = slices.Grow(a.Bits[:0], k)[:k]
		for i := range a.Bits {
			a.Bits[i] = readWords(r, a.Bits[i], nw, "region bitmap")
		}
		if err := r.done(); err != nil {
			return err
		}
		for i, b := range a.Bits {
			if _, err := within(b, "region"); err != nil {
				return err
			}
			for _, prev := range a.Bits[:i] {
				for j := range b {
					if b[j]&prev[j] != 0 {
						return fmt.Errorf("region %d overlaps an earlier region at word %d", i, j)
					}
				}
			}
		}
	case shard.CutSummary:
		a.Summaries = slices.Grow(a.Summaries[:0], len(req.Cols))[:len(req.Cols)]
		for c, ci := range req.Cols {
			s := &a.Summaries[c]
			*s = shard.Summary{}
			var err error
			switch schema.Field(ci).Type {
			case storage.String:
				s.Counts, err = readCounts(r, nil, r.u32("category count"), selected, "category counts")
				for _, n := range s.Counts {
					s.Count += n
				}
			case storage.Bool:
				s.Falses, s.Trues, err = readBools(r, selected)
				s.Count = s.Falses + s.Trues
			default:
				err = readNumericSummary(r, req, c, selected, s)
			}
			if err != nil {
				return fmt.Errorf("column %d: %w", ci, err)
			}
		}
		if err := r.done(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown cut kind %d", req.Kind)
	}
	return nil
}

// readCounts appends m counts off r to dst, failing when they total
// more than limit.
func readCounts(r *frameReader, dst []int, m, limit int, what string) ([]int, error) {
	raw := r.take(8*m, what)
	if r.err != nil {
		return dst, r.err
	}
	total := uint64(0)
	for j := 0; j < m; j++ {
		c := binary.LittleEndian.Uint64(raw[8*j:])
		if total += c; c > uint64(limit) || total > uint64(limit) {
			return dst, fmt.Errorf("%s total more than the %d selected rows", what, limit)
		}
		dst = append(dst, int(c))
	}
	return dst, nil
}

// readBools reads a bool column's tallies off r, failing when they
// total more than the selected rows.
func readBools(r *frameReader, selected int) (falses, trues int, err error) {
	f, t := r.u64("falses"), r.u64("trues")
	if r.err != nil {
		return 0, 0, r.err
	}
	if f > uint64(selected) || t > uint64(selected)-f {
		return 0, 0, fmt.Errorf("%d falses and %d trues among %d selected rows", f, t, selected)
	}
	return int(f), int(t), nil
}

// readNumericSummary reads the summary of req's c-th column, a numeric
// one, off r into s: no more values than selected rows, no more NaN and
// infinities than values, and with a range, bins holding no more than
// the finite values.
func readNumericSummary(r *frameReader, req shard.CutRequest, c, selected int, s *shard.Summary) error {
	n, nan, negInf, posInf := r.u64("value count"), r.u64("NaN count"), r.u64("-Inf count"), r.u64("+Inf count")
	s.Sum = math.Float64frombits(r.u64("sum"))
	s.Stats.Min = math.Float64frombits(r.u64("min"))
	s.Stats.Max = math.Float64frombits(r.u64("max"))
	s.Finite.Min = math.Float64frombits(r.u64("finite min"))
	s.Finite.Max = math.Float64frombits(r.u64("finite max"))
	if r.err != nil {
		return r.err
	}
	if n > uint64(selected) || nan > n || negInf > n-nan || posInf > n-nan-negInf {
		return fmt.Errorf("%d values, %d NaN, %d -Inf, %d +Inf, among %d selected rows", n, nan, negInf, posInf, selected)
	}
	s.Count, s.Stats.NaN, s.Finite.NaN = int(n), int(nan), int(nan)
	s.NegInf, s.PosInf = int(negInf), int(posInf)
	if req.Ranges == nil {
		return nil
	}
	h, err := shard.SummaryHist(req.Ranges[c][0], req.Ranges[c][1])
	if err != nil {
		return err
	}
	s.Bins, err = readCounts(r, h.Counts[:0], len(h.Counts), s.Count-s.Stats.NaN-s.NegInf-s.PosInf, "bin counts")
	return err
}
