package mmapfile

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

func dataAddr(b []byte) uintptr { return uintptr(unsafe.Pointer(&b[0])) }

func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "f.bin")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenRoundTrip(t *testing.T) {
	want := []byte("0123456789abcdef-tail") // deliberately not 8-aligned length
	f, err := Open(writeTemp(t, want))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Data(), want) {
		t.Fatalf("got %q want %q", f.Data(), want)
	}
}

// onlyReader hides every method but Read, so ReadAligned cannot learn
// the length up front — the shape of an HTTP request body.
type onlyReader struct{ r io.Reader }

func (o onlyReader) Read(p []byte) (int, error) { return o.r.Read(p) }

// TestReadAllAligned checks the aligned read-all behind both
// ReadAligned and Open's heap fallback: the contents come back intact,
// 8-byte aligned, with capacity exactly the length rounded up to 8 —
// at, below and above chunk boundaries.
func TestReadAllAligned(t *testing.T) {
	for _, n := range []int{0, 1, 52, chunkSize - 3, chunkSize, 2*chunkSize + 5, 3<<20 + 5} {
		want := make([]byte, n)
		for i := range want {
			want[i] = byte(i*7 + 1)
		}
		got, err := ReadAligned(onlyReader{bytes.NewReader(want)})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: contents differ", n)
		}
		if n == 0 {
			continue
		}
		if addr := dataAddr(got); addr%8 != 0 {
			t.Fatalf("n=%d: buffer misaligned: %#x", n, addr)
		}
		if c := cap(got); c != (n+7)/8*8 {
			t.Fatalf("n=%d: capacity %d, want %d", n, c, (n+7)/8*8)
		}
	}
}

// TestReadAlignedAllocation pins the memory bound: reading a stream of
// unknown length allocates its final buffer plus, at most, staging
// chunks for every byte of it.
func TestReadAlignedAllocation(t *testing.T) {
	const n = 8 << 20
	src := make([]byte, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := ReadAligned(onlyReader{bytes.NewReader(src)})
	runtime.ReadMemStats(&after)
	if err != nil || len(got) != n {
		t.Fatalf("len %d, err %v", len(got), err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 2*n+2*chunkSize {
		t.Fatalf("reading %d bytes allocated %d", n, alloc)
	}
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("boom") }

func TestReadAlignedError(t *testing.T) {
	if _, err := ReadAligned(io.MultiReader(strings.NewReader("abc"), failingReader{})); err == nil {
		t.Fatal("a failing reader must surface its error")
	}
}

func TestOpenEmpty(t *testing.T) {
	f, err := Open(writeTemp(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Data()) != 0 || f.Mapped() {
		t.Fatalf("empty file: size=%d mapped=%v", len(f.Data()), f.Mapped())
	}
}

func TestOpenMissing(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("expected error for missing file")
	}
}
