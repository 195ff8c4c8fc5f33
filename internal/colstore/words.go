package colstore

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// littleEndianHost reports whether this machine stores 8-byte words in
// the .atl byte order (little-endian). There a chunk's value run decodes
// as one memory copy — the bit patterns are the values — instead of a
// load and a bounds check per row.
var littleEndianHost = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// wordBytes views the backing memory of a slice of 8-byte words as bytes.
func wordBytes[T int64 | float64](words []T) []byte {
	if len(words) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), 8*len(words))
}

// decodeInt64s fills dst from the first 8*len(dst) bytes of src, little-
// endian.
func decodeInt64s(dst []int64, src []byte) {
	if littleEndianHost {
		copy(wordBytes(dst), src)
		return
	}
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(src[i*8:]))
	}
}

// decodeFloat64s fills dst from the first 8*len(dst) bytes of src: IEEE-
// 754 bit patterns, little-endian.
func decodeFloat64s(dst []float64, src []byte) {
	if littleEndianHost {
		copy(wordBytes(dst), src)
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
	}
}
