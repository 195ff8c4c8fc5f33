package colstore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/storage"
)

// FuzzReadAtl feeds the same image to eager Read and to lazy opens with
// and without mmap. Neither may panic, and they must agree: both fail,
// or both yield cell-identical tables (a lazy open fails when any of its
// chunks fails to fetch). The image's checksums are resealed first (see
// sealAtl) so mutations reach the header, directory and chunk parsers
// behind them.
func FuzzReadAtl(f *testing.F) {
	for _, rows := range []int{0, 70} {
		var buf bytes.Buffer
		if err := Write(&buf, mixedTable(f, rows), 64); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		img := sealAtl(data)
		eager, eagerErr := Read(img)
		path := filepath.Join(t.TempDir(), "fuzz.atl")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, disableMmap := range []bool{false, true} {
			s, err := OpenWith(path, Options{Mode: ModeLazy, DisableMmap: disableMmap})
			if err == nil {
				// Touch every chunk: a lazy open has failed if any chunk does.
				_, err = s.Table().Materialize()
			}
			switch {
			case eagerErr != nil && err != nil:
			case eagerErr == nil && err != nil && strings.Contains(err.Error(), "checksum mismatch"):
				// sealAtl could not make this image's chunk CRCs consistent
				// (chunk ranges overlapping the directory): eager reads skip
				// chunk CRCs, which the whole-file CRC already covers.
			case eagerErr != nil:
				t.Fatalf("mmap=%v: lazy open succeeded where Read failed: %v", !disableMmap, eagerErr)
			case err != nil:
				t.Fatalf("mmap=%v: Read succeeded where the lazy open failed: %v", !disableMmap, err)
			default:
				if eager.Table().Name() != s.Table().Name() {
					t.Fatalf("table name %q vs %q", eager.Table().Name(), s.Table().Name())
				}
				tablesEqual(t, eager.Table(), s.Table(), "lazy")
			}
			if s != nil {
				s.Close()
			}
		}
	})
}

// sealAtl returns a copy of an .atl image whose checksums agree with its
// bytes — each chunk CRC its directory records, the directory CRC and
// the trailer — as far as the header and directory parse.
func sealAtl(data []byte) []byte {
	img := append([]byte(nil), data...)
	n := len(img)
	if n < len(magic)+1+footerLen {
		return img
	}
	if dirOff := binary.LittleEndian.Uint64(img[n-footerLen:]); dirOff <= uint64(n-footerLen) {
		dir := img[dirOff : n-footerLen]
		if h, err := parseHeader(&decoder{data: img[:n-4], off: 4}); err == nil {
			d := &decoder{data: dir}
		walk:
			for _, f := range h.fields {
				if f.Type == storage.String {
					d.uv()
					d.uv()
				}
				for k := 0; k < h.numChunks(); k++ {
					off, length := d.uv(), d.uv()
					at := d.off
					d.u32()
					if _, err := d.zoneHeader(f, -1, min(h.chunkSize, h.rows-k*h.chunkSize), k); err != nil {
						break walk
					}
					if off <= uint64(n) && length <= uint64(n)-off {
						binary.LittleEndian.PutUint32(dir[at:], crc32.ChecksumIEEE(img[off:off+length]))
					}
				}
			}
		}
		binary.LittleEndian.PutUint32(img[n-12:], crc32.ChecksumIEEE(dir))
	}
	binary.LittleEndian.PutUint32(img[n-4:], crc32.ChecksumIEEE(img[:n-4]))
	return img
}
