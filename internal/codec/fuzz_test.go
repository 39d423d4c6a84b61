package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dataset"
)

// hugeHeader is a complete 52-byte version-1 header — one ordinal
// attribute of size 2²⁵, dims [2²⁵] — followed by no entries at all: a
// 256 MiB matrix declared by a few dozen bytes.
func hugeHeader() []byte {
	raw := []byte(magic)
	raw = binary.LittleEndian.AppendUint16(raw, version1)
	raw = append(raw, 0)                   // mechanism ""
	raw = append(raw, make([]byte, 32)...) // epsilon, rho, lambda, bound
	raw = append(raw, 1, 1, 'A', 0)        // one attribute "A", ordinal
	raw = binary.AppendUvarint(raw, 1<<25)
	raw = append(raw, 1) // one dim
	return binary.AppendUvarint(raw, 1<<25)
}

// allocated reports the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeHugeHeaderBoundedAlloc is the regression for allocating
// from the header: the decoder must see that the input lacks the n×8
// bytes a float section needs before it allocates that section.
func TestDecodeHugeHeaderBoundedAlloc(t *testing.T) {
	raw := hugeHeader()
	if len(raw) != 52 {
		t.Fatalf("header is %d bytes, want 52", len(raw))
	}
	var err error
	alloc := allocated(func() { _, _, err = DecodeMapped(raw, nil) })
	if err == nil || errors.Is(err, ErrTable) {
		t.Fatalf("decoding a header without entries: err = %v, want a hard error", err)
	}
	if alloc >= 1<<20 {
		t.Fatalf("decoding %d bytes allocated %d bytes", len(raw), alloc)
	}
}

// Allocation bound of FuzzDecode: float sections get 3× the input, the
// schema's hierarchy nodes (each at least 2 input bytes) get nodeBytes
// apiece, and fuzzAllocSlack covers the small fixed structures.
const (
	nodeBytes      = 256
	fuzzAllocSlack = 64 << 10
)

// FuzzDecode feeds arbitrary bytes to the codec's one decoder — the
// boundary every spill file, replication push and repair pull crosses —
// and to DecodeHeader, its head alone, which store recovery runs on
// every spill file. Decoding must never panic; its allocation must stay
// within a constant factor of the input, never follow the header's
// declared sizes; DecodeHeader must accept exactly the inputs
// DecodeMapped returns a payload for, with the same meta and dims; and
// a payload DecodeMapped accepts must re-encode to bytes that decode to
// the same bits (and re-encode identically once more). The seed corpus
// in testdata/fuzz/FuzzDecode holds the golden testdata/*.prvl files, a
// version-2 encoding of samplePayload, and hugeHeader.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		// An aligned copy takes the zero-copy path a mapped spill file and
		// store.DecodeRelease's aligned read take.
		words := make([]float64, len(raw)/8+1)
		buf := alignedBytes(words, len(raw))
		copy(buf, raw)
		var p *Payload
		var err error
		alloc := allocated(func() { p, _, err = DecodeMapped(buf, nil) })
		nodes := len(raw) / 2 // a failed decode may have built this many
		if p != nil {
			nodes = hierarchyNodes(p)
		}
		limit := 3*uint64(len(raw)) + nodeBytes*uint64(nodes) + fuzzAllocSlack
		if alloc > limit {
			t.Fatalf("decoding %d bytes (%d hierarchy nodes) allocated %d > %d", len(raw), nodes, alloc, limit)
		}
		var meta Meta
		var schema *dataset.Schema
		var herr error
		if alloc := allocated(func() { meta, schema, herr = DecodeHeader(buf) }); alloc > limit {
			t.Fatalf("decoding the header of %d bytes allocated %d > %d", len(raw), alloc, limit)
		}
		if (herr == nil) != (p != nil) {
			t.Fatalf("DecodeHeader err = %v, but DecodeMapped returned payload %v (err %v)", herr, p != nil, err)
		}
		if err != nil && !errors.Is(err, ErrTable) {
			return
		}
		if p == nil {
			t.Fatalf("ErrTable decode returned no payload: %v", err)
		}
		if !sameMeta(meta, p.Meta) || !slices.Equal(schema.Dims(), p.Schema.Dims()) {
			t.Fatalf("DecodeHeader read %+v %v, DecodeMapped %+v %v", meta, schema.Dims(), p.Meta, p.Schema.Dims())
		}
		var once bytes.Buffer
		if err := Encode(&once, p); err != nil {
			t.Fatalf("re-encoding an accepted payload: %v", err)
		}
		q, _, err := DecodeMapped(once.Bytes(), nil)
		if err != nil {
			t.Fatalf("decoding a re-encoded payload: %v", err)
		}
		sameBits(t, p, q)
		var twice bytes.Buffer
		if err := Encode(&twice, q); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("second re-encode changed the bytes")
		}
	})
}

// hierarchyNodes counts the nodes of every nominal attribute's hierarchy.
func hierarchyNodes(p *Payload) int {
	n := 0
	for i := 0; i < p.Schema.NumAttrs(); i++ {
		if h := p.Schema.Attr(i).Hier; h != nil {
			n += h.NodeCount()
		}
	}
	return n
}

// sameBits fails unless a and b carry bit-identical accounting, matrix
// and (when present) table and total.
func sameBits(t *testing.T, a, b *Payload) {
	t.Helper()
	if !sameMeta(a.Meta, b.Meta) {
		t.Fatalf("meta changed across a round trip: %+v vs %+v", a.Meta, b.Meta)
	}
	if !sameFloats(a.Noisy.Data(), b.Noisy.Data()) {
		t.Fatal("matrix changed across a round trip")
	}
	if (a.Table == nil) != (b.Table == nil) {
		t.Fatal("table presence changed across a round trip")
	}
	if a.Table != nil && (!sameFloats(a.Table.Data(), b.Table.Data()) ||
		math.Float64bits(a.Total) != math.Float64bits(b.Total)) {
		t.Fatal("table changed across a round trip")
	}
}

// sameMeta reports whether a and b carry the same mechanism and
// bit-identical accounting floats.
func sameMeta(a, b Meta) bool {
	return a.Mechanism == b.Mechanism && sameFloats(
		[]float64{a.Epsilon, a.Rho, a.Lambda, a.Bound},
		[]float64{b.Epsilon, b.Rho, b.Lambda, b.Bound})
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
