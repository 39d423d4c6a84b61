//go:build !unix

package mmapfile

import (
	"errors"
	"os"
)

// mapFile on platforms without syscall.Mmap support always fails, so
// Open takes the aligned read-all path: same bytes, same alignment
// guarantees, heap residency.
func mapFile(*os.File, int) ([]byte, error) {
	return nil, errors.New("mmapfile: memory mapping unsupported on this platform")
}

func unmap([]byte) error { return nil }
