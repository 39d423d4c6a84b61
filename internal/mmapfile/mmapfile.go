// Package mmapfile memory-maps files read-only, with a portable
// read-all fallback. It exists for one purpose: letting a spilled
// release's summed-area table be served straight from the page cache,
// so the paper's constant-time query evaluation (§V — every range-count
// is O(2^d) lookups into the precomputed table) survives eviction and
// restart without re-paying the O(domain) decode + prefix-sum rebuild.
// A mapped release's resident cost is the pages queries actually touch,
// and the kernel reclaims them under memory pressure — the store's
// MaxResident budget stops being the hard ceiling on how many tenants
// can be served at once.
//
// Both paths hand out 8-byte-aligned bytes, so codec.DecodeMapped wraps
// the float64 sections zero-copy either way: Open maps the file (or,
// where mapping is unavailable or fails, reads it into an aligned heap
// buffer), and ReadAligned does the same for a stream — a release
// arriving over the network.
//
// Lifetime is finalizer-managed: Open sets a finalizer that unmaps when
// the File becomes unreachable. Callers that hand out views of Data()
// must keep the File reachable from those views (matrix.Wrap's pin does
// exactly this), which makes use-after-unmap unrepresentable without an
// explicit Close to misuse. The flip side is that a mapping outlives
// its last strong use until a GC cycle runs: when the store evicts a
// mapped release it keeps only a weak reference to the payload, a
// reload before the next collection reinstalls that same payload (no
// second mapping of the file), and once the collector finds the
// payload unreachable the finalizer unmaps it.
package mmapfile

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"unsafe"
)

// File is a read-only view of a file's contents — either a memory
// mapping or an aligned heap copy. The zero value is an empty file.
type File struct {
	data   []byte
	mapped bool
}

// Open returns path's contents, memory-mapped where the platform
// supports it and read into an aligned heap buffer where it does not
// (or where the map call itself fails): the caller asked for the bytes,
// not for a specific residency story. The returned bytes are read-only
// in either case: mutating them is undefined (a true mapping will
// fault).
func Open(path string) (*File, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	st, err := fh.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size != int64(int(size)) || size < 0 {
		return nil, fmt.Errorf("mmapfile: %s: size %d not addressable", path, size)
	}
	if size == 0 {
		return &File{}, nil
	}
	if data, err := mapFile(fh, int(size)); err == nil {
		f := &File{data: data, mapped: true}
		runtime.SetFinalizer(f, (*File).finalize)
		return f, nil
	}
	data, err := ReadAligned(fh)
	if err != nil {
		return nil, fmt.Errorf("mmapfile: %s: %w", path, err)
	}
	return &File{data: data}, nil
}

// Data returns the file contents. The slice must be treated as
// read-only and must not outlive every reference to f (keep f pinned,
// e.g. via matrix.Wrap).
func (f *File) Data() []byte { return f.data }

// Mapped reports whether Data is a true memory mapping (resident cost
// accrues to the page cache) as opposed to a heap copy.
func (f *File) Mapped() bool { return f.mapped }

// finalize unmaps when the File becomes unreachable. Every consumer of
// Data() must therefore keep the File pinned (matrix.Wrap does), which
// is what makes the no-explicit-Close design safe.
func (f *File) finalize() {
	if f.mapped && f.data != nil {
		_ = unmap(f.data)
		f.data = nil
		f.mapped = false
	}
}

// chunkSize is the size of the chunks ReadAligned stages a stream in
// before it knows the stream's length.
const chunkSize = 64 << 10

// chunkPool recycles staging chunks across reads, so in steady state a
// stream's only fresh allocation is its final exact-size buffer.
var chunkPool = sync.Pool{New: func() any { return new([chunkSize]byte) }}

// ReadAligned reads r to EOF into an 8-byte-aligned heap buffer — the
// stream counterpart of Open, so codec.DecodeMapped can wrap the
// float64 sections of a received release zero-copy. The stream is
// staged in pooled chunks, then copied once into a buffer whose
// capacity is exactly its length rounded up to 8: no growth slack is
// retained, and reading allocates that buffer plus, at most, one
// chunk for every chunkSize bytes the pool cannot supply.
func ReadAligned(r io.Reader) ([]byte, error) {
	var chunks []*[chunkSize]byte
	defer func() {
		for _, c := range chunks {
			chunkPool.Put(c)
		}
	}()
	total := 0
	for {
		c := chunkPool.Get().(*[chunkSize]byte)
		chunks = append(chunks, c)
		k, err := io.ReadFull(r, c[:])
		total += k
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	out := alignedBytes(total)
	for i, c := range chunks {
		copy(out[i*chunkSize:], c[:])
	}
	return out, nil
}

// alignedBytes returns n bytes backed by a float64 slice, which the Go
// allocator guarantees is 8-byte aligned; the capacity is n rounded up
// to 8.
func alignedBytes(n int) []byte {
	if n == 0 {
		return nil
	}
	words := make([]float64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8)[:n]
}
