//go:build unix

package mmapfile

import (
	"os"
	"syscall"
)

// mapFile maps fh read-only via mmap(2). The mapping is PROT_READ and
// MAP_SHARED, so pages are the page cache's — shared across processes
// mapping the same spill file and reclaimable under pressure.
func mapFile(fh *os.File, size int) ([]byte, error) {
	return syscall.Mmap(int(fh.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
}

func unmap(data []byte) error { return syscall.Munmap(data) }
