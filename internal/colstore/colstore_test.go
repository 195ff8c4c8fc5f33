package colstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/storage"
)

func crc32ChecksumIEEE(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// mixedTable builds a table exercising all four column types, NULLs,
// empty strings (distinct from NULL) and unicode categories.
func mixedTable(t testing.TB, n int) *storage.Table {
	t.Helper()
	schema := storage.MustSchema(
		storage.Field{Name: "id", Type: storage.Int64},
		storage.Field{Name: "score", Type: storage.Float64},
		storage.Field{Name: "city", Type: storage.String},
		storage.Field{Name: "active", Type: storage.Bool},
	)
	cities := []string{"zürich", "東京", "saō paulo", "", "naïrobi"}
	b := storage.NewBuilder("mixed", schema)
	for i := 0; i < n; i++ {
		id := any(int64(i * 3))
		score := any(float64(i) / 7)
		city := any(cities[i%len(cities)])
		active := any(i%2 == 0)
		if i%5 == 1 {
			score = nil
		}
		if i%11 == 4 {
			city = nil
		}
		if i%13 == 6 {
			active = nil
		}
		if i%17 == 9 {
			id = nil
		}
		b.MustAppendRow(id, score, city, active)
	}
	return b.MustBuild()
}

func roundTrip(t testing.TB, tbl *storage.Table, chunkSize int) *storage.Table {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, tbl, chunkSize); err != nil {
		t.Fatal(err)
	}
	s, err := Read(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return s.Table()
}

// assertTablesEqual compares two tables cell-for-cell through the boxed
// accessor, which distinguishes NULL (nil) from zero values and empty
// strings.
func assertTablesEqual(t *testing.T, got, want *storage.Table) {
	t.Helper()
	if got.Name() != want.Name() {
		t.Fatalf("name = %q, want %q", got.Name(), want.Name())
	}
	if !got.Schema().Equal(want.Schema()) {
		t.Fatalf("schema mismatch")
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("rows = %d, want %d", got.NumRows(), want.NumRows())
	}
	for c := 0; c < want.NumCols(); c++ {
		gc, wc := got.Column(c), want.Column(c)
		for r := 0; r < want.NumRows(); r++ {
			if gv, wv := gc.Value(r), wc.Value(r); !reflect.DeepEqual(gv, wv) {
				t.Fatalf("col %d row %d: %v != %v", c, r, gv, wv)
			}
		}
	}
}

func TestRoundTripMixed(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 500} {
		tbl := mixedTable(t, n)
		got := roundTrip(t, tbl, 64)
		assertTablesEqual(t, got, tbl)
		if got.Chunking() == nil {
			t.Fatalf("n=%d: store table has no chunk metadata", n)
		}
	}
}

func TestRoundTripChunkBoundaries(t *testing.T) {
	// Rows exactly at, one under and one over a chunk boundary.
	for _, n := range []int{128, 127, 129, 192} {
		tbl := mixedTable(t, n)
		got := roundTrip(t, tbl, 128)
		assertTablesEqual(t, got, tbl)
		wantChunks := (n + 127) / 128
		if got := got.Chunking().NumChunks(n); got != wantChunks {
			t.Errorf("n=%d: chunks = %d, want %d", n, got, wantChunks)
		}
	}
}

// TestZoneMapsSurviveReload: reopened zone maps must equal the ones
// computed at ingest (no rescan on open).
func TestZoneMapsSurviveReload(t *testing.T) {
	tbl := mixedTable(t, 300)
	want, err := storage.ComputeChunking(tbl, 64)
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, tbl, 64).Chunking()
	if got.Size != want.Size {
		t.Fatalf("chunk size = %d, want %d", got.Size, want.Size)
	}
	if !reflect.DeepEqual(got.Zones, want.Zones) {
		t.Errorf("zone maps differ after reload:\n got %+v\nwant %+v", got.Zones, want.Zones)
	}
}

func TestRoundTripNaNAndExtremes(t *testing.T) {
	schema := storage.MustSchema(
		storage.Field{Name: "f", Type: storage.Float64},
		storage.Field{Name: "i", Type: storage.Int64},
	)
	b := storage.NewBuilder("x", schema)
	b.MustAppendRow(math.NaN(), int64(math.MaxInt64))
	b.MustAppendRow(math.Inf(1), int64(math.MinInt64))
	b.MustAppendRow(math.Inf(-1), int64(0))
	b.MustAppendRow(math.Copysign(0, -1), int64(-1))
	tbl := b.MustBuild()
	got := roundTrip(t, tbl, 64)
	gf := got.Column(0).(*storage.Float64Column)
	if !math.IsNaN(gf.At(0)) {
		t.Error("NaN not preserved")
	}
	if !math.IsInf(gf.At(1), 1) || !math.IsInf(gf.At(2), -1) {
		t.Error("infinities not preserved")
	}
	if math.Signbit(gf.At(3)) != true {
		t.Error("-0.0 sign not preserved")
	}
	gi := got.Column(1).(*storage.Int64Column)
	if gi.At(0) != math.MaxInt64 || gi.At(1) != math.MinInt64 {
		t.Error("int64 extremes not preserved")
	}
}

func TestOpenWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mixed.atl")
	tbl := mixedTable(t, 200)
	if err := WriteFile(path, tbl, 0); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Path != path {
		t.Errorf("Path = %q", s.Path)
	}
	if s.ChunkSize != DefaultChunkSize {
		t.Errorf("ChunkSize = %d, want default %d", s.ChunkSize, DefaultChunkSize)
	}
	assertTablesEqual(t, s.Table(), tbl)
}

func TestCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, mixedTable(t, 100), 64); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	flip := append([]byte(nil), data...)
	flip[len(flip)/2] ^= 0xFF
	if _, err := Read(flip); err == nil {
		t.Error("bit flip in body must fail the checksum")
	}

	trunc := data[:len(data)-10]
	if _, err := Read(trunc); err == nil {
		t.Error("truncated file must fail")
	}

	badMagic := append([]byte(nil), data...)
	copy(badMagic, "NOPE")
	if _, err := Read(badMagic); err == nil {
		t.Error("bad magic must fail")
	}

	if _, err := Read([]byte("AT")); err == nil {
		t.Error("tiny file must fail")
	}
}

// TestBadVersionRejected: every version but the current one — future
// files and the pre-directory versions 1 and 2 alike — fails with
// ErrVersion and a re-ingest hint, eagerly and lazily.
func TestBadVersionRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, mixedTable(t, 10), 64); err != nil {
		t.Fatal(err)
	}
	for _, v := range []byte{99, 1, 2} {
		data := append([]byte(nil), buf.Bytes()...)
		data[4] = v // version byte
		// Re-seal the checksum so only the version check can reject it.
		reseal(data)
		path := filepath.Join(t.TempDir(), "old.atl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, eagerErr := Read(data)
		_, lazyErr := OpenWith(path, Options{Mode: ModeLazy})
		for _, err := range []error{eagerErr, lazyErr} {
			if !errors.Is(err, ErrVersion) || !strings.Contains(fmt.Sprint(err), "atlas ingest") {
				t.Errorf("version %d: err = %v, want ErrVersion with a re-ingest hint", v, err)
			}
		}
	}
}

// TestV2CodeSetsRoundTrip: the writer persists code sets and the reader
// hands them back exactly as ingest computed them.
func TestV2CodeSetsRoundTrip(t *testing.T) {
	schema := storage.MustSchema(
		storage.Field{Name: "n", Type: storage.Int64},
		storage.Field{Name: "s", Type: storage.String},
	)
	b := storage.NewBuilder("old", schema)
	for i := 0; i < 500; i++ {
		b.MustAppendRow(int64(i), []string{"x", "y", "z"}[i%3])
	}
	tbl := b.MustBuild()
	want, err := storage.ComputeChunking(tbl, 128)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, tbl, 128); err != nil {
		t.Fatal(err)
	}
	st, err := Read(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got := st.Table().Chunking()
	si := tbl.Schema().Index("s")
	for k, zm := range got.Zones[si] {
		if !reflect.DeepEqual(zm.CodeSet, want.Zones[si][k].CodeSet) {
			t.Fatalf("chunk %d: code set %v, want %v", k, zm.CodeSet, want.Zones[si][k].CodeSet)
		}
		if zm.CodeSet == nil {
			t.Fatalf("chunk %d: no code set", k)
		}
	}
}

// TestImplausibleRowCountRejected: a crafted header claiming a huge row
// count must error, not panic in makeslice or OOM.
func TestImplausibleRowCountRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, mixedTable(t, 10), 64); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	// Header layout: magic(4) version(1) nameLen name rows ... — the
	// table name "mixed" is 5 bytes with a 1-byte varint length, so rows
	// starts at offset 11. 10 rows encodes as one varint byte; a crafted
	// large count needs the buffer rebuilt, so patch via re-encode.
	crafted := append([]byte(nil), data[:11]...)
	crafted = append(crafted, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40) // uvarint ~1<<62
	crafted = append(crafted, data[12:]...)
	crafted = append(crafted[:len(crafted)-4], 0, 0, 0, 0)
	reseal(crafted)
	_, err := Read(crafted)
	if err == nil {
		t.Fatal("implausible row count must be rejected")
	}
	// A count past the plausibility cap but under makeslice limits must
	// also fail on the remaining-bytes check.
	crafted2 := append([]byte(nil), data[:11]...)
	crafted2 = append(crafted2, 0x80, 0x80, 0x80, 0x80, 0x08) // uvarint 1<<31
	crafted2 = append(crafted2, data[12:]...)
	reseal(crafted2)
	if _, err := Read(crafted2); err == nil {
		t.Fatal("row count exceeding remaining bytes must be rejected")
	}
}

// TestNullRowCodesClamped: a file whose NULL rows carry out-of-range
// dictionary codes must open with those codes clamped in-range, so scan
// kernels can index the dictionary before the null check.
func TestNullRowCodesClamped(t *testing.T) {
	schema := storage.MustSchema(storage.Field{Name: "s", Type: storage.String})
	b := storage.NewBuilder("t", schema)
	b.MustAppendRow("a")
	b.MustAppendRow(nil)
	b.MustAppendRow("b")
	var buf bytes.Buffer
	if err := Write(&buf, b.MustBuild(), 64); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	// The code payload is the last 12 bytes before the v3 directory
	// (3 × u32); the directory offset sits in the 8 bytes before the
	// CRC. Poison the NULL row's code.
	dirOff := int(binary.LittleEndian.Uint64(data[len(data)-16:]))
	codeOff := dirOff - 12 + 4
	data[codeOff] = 0xFF
	data[codeOff+1] = 0xFF
	reseal(data)
	s, err := Read(data)
	if err != nil {
		t.Fatalf("null-row code out of range must be tolerated, got %v", err)
	}
	col := s.Table().Column(0).(*storage.StringColumn)
	if got := col.Codes()[1]; got != 0 {
		t.Errorf("null-row code = %d, want clamped 0", got)
	}
	// Non-null out-of-range codes stay fatal.
	data2 := append([]byte(nil), buf.Bytes()...)
	data2[dirOff-4] = 0xFF // last row ("b"), not null
	reseal(data2)
	if _, err := Read(data2); err == nil {
		t.Error("non-null out-of-range code must be rejected")
	}
}

// TestWriteFileAtomic: a failed ingest must not clobber an existing
// store file at the same path.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.atl")
	if err := WriteFile(path, mixedTable(t, 50), 64); err != nil {
		t.Fatal(err)
	}
	// Second ingest with an invalid chunk size fails before writing.
	if err := WriteFile(path, mixedTable(t, 80), 100); err == nil {
		t.Fatal("invalid chunk size must fail")
	}
	s, err := Open(path)
	if err != nil {
		t.Fatalf("original store destroyed by failed ingest: %v", err)
	}
	if s.Table().NumRows() != 50 {
		t.Errorf("rows = %d, want the original 50", s.Table().NumRows())
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want 1 (no temp files)", len(entries))
	}
	// A successful re-ingest replaces the file.
	if err := WriteFile(path, mixedTable(t, 80), 64); err != nil {
		t.Fatal(err)
	}
	s, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Table().NumRows() != 80 {
		t.Errorf("rows = %d, want 80 after re-ingest", s.Table().NumRows())
	}
}

func TestBadChunkSizeRejected(t *testing.T) {
	if err := Write(&bytes.Buffer{}, mixedTable(t, 10), 100); err == nil {
		t.Error("chunk size not a multiple of 64 must fail at write")
	}
}

// reseal recomputes the CRC trailer after a test mutates the body.
func reseal(data []byte) {
	body := data[:len(data)-4]
	sum := crc32ChecksumIEEE(body)
	data[len(data)-4] = byte(sum)
	data[len(data)-3] = byte(sum >> 8)
	data[len(data)-2] = byte(sum >> 16)
	data[len(data)-1] = byte(sum >> 24)
}
