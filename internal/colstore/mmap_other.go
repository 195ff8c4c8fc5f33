//go:build !unix

package colstore

import "os"

// mmapFile is unavailable on this platform; lazy stores fall back to
// pread.
func mmapFile(*os.File, int64) []byte { return nil }

// munmapFile matches mmap_unix.go; nothing to release.
func munmapFile([]byte) error { return nil }
