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
func wordBytes[T uint64 | int64 | float64](words []T) []byte {
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

// AppendWords appends words to dst as little-endian 8-byte patterns —
// the layout of every bulk value and bitmap on disk and on the wire —
// in one memory copy on a little-endian host.
func AppendWords[T uint64 | int64 | float64](dst []byte, words []T) []byte {
	if littleEndianHost {
		return append(dst, wordBytes(words)...)
	}
	for i := range words {
		dst = binary.LittleEndian.AppendUint64(dst, *(*uint64)(unsafe.Pointer(&words[i])))
	}
	return dst
}

// DecodeWords fills dst from the first 8*len(dst) bytes of src, as
// AppendWords laid them out.
func DecodeWords[T uint64 | int64 | float64](dst []T, src []byte) {
	if littleEndianHost {
		copy(wordBytes(dst), src)
		return
	}
	for i := range dst {
		*(*uint64)(unsafe.Pointer(&dst[i])) = binary.LittleEndian.Uint64(src[i*8:])
	}
}
