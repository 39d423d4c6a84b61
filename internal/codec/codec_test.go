package codec

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/dataset"
	"repro/internal/hierarchy"
	"repro/internal/matrix"
	"repro/internal/rng"
)

func samplePayload(t testing.TB) *Payload {
	t.Helper()
	h, err := hierarchy.ThreeLevel(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	schema := dataset.MustSchema(
		dataset.OrdinalAttr("Age", 5),
		dataset.NominalAttr("Occ", h),
	)
	m := matrix.MustNew(5, 6)
	r := rng.New(3)
	data := m.Data()
	for i := range data {
		data[i] = r.Float64()*100 - 50
	}
	return &Payload{
		Meta:   Meta{Mechanism: "privelet+", Epsilon: 1.25, Rho: 9, Lambda: 14.4, Bound: 12345.5},
		Schema: schema,
		Noisy:  m,
	}
}

// decode is DecodeMapped over raw without a pin, for tests that only
// need the payload.
func decode(raw []byte) (*Payload, error) {
	p, _, err := DecodeMapped(raw, nil)
	return p, err
}

func TestRoundTrip(t *testing.T) {
	p := samplePayload(t)
	var buf bytes.Buffer
	if err := Encode(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != p.Meta {
		t.Fatalf("meta round trip: %+v vs %+v", got.Meta, p.Meta)
	}
	if !got.Noisy.AlmostEqual(p.Noisy, 0) {
		t.Fatal("matrix round trip lost precision")
	}
	if got.Schema.NumAttrs() != 2 {
		t.Fatal("schema arity lost")
	}
	if got.Schema.Attr(0).Name != "Age" || got.Schema.Attr(0).Size != 5 {
		t.Fatalf("ordinal attribute lost: %+v", got.Schema.Attr(0))
	}
	occ := got.Schema.Attr(1)
	if occ.Kind != dataset.Nominal || occ.Hier.Height() != 3 || occ.Hier.LeafCount() != 6 {
		t.Fatalf("nominal attribute lost: %+v h=%d leaves=%d", occ, occ.Hier.Height(), occ.Hier.LeafCount())
	}
	// Hierarchy labels preserved.
	if occ.Hier.Find("g1") == nil {
		t.Fatal("hierarchy labels lost")
	}
}

func TestRoundTripNegativeAndSpecialFloats(t *testing.T) {
	schema := dataset.MustSchema(dataset.OrdinalAttr("A", 3))
	m := matrix.MustNew(3)
	m.Set(-0.0, 0)
	m.Set(1e-300, 1)
	m.Set(-12345.678, 2)
	p := &Payload{Meta: Meta{Mechanism: "basic"}, Schema: schema, Noisy: m}
	var buf bytes.Buffer
	if err := Encode(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Noisy.AlmostEqual(m, 0) {
		t.Fatal("special float values lost")
	}
}

func TestEncodeNilComponents(t *testing.T) {
	if err := Encode(io.Discard, nil); err == nil {
		t.Error("nil payload should fail")
	}
	if err := Encode(io.Discard, &Payload{}); err == nil {
		t.Error("empty payload should fail")
	}
}

func TestDecodeBadMagic(t *testing.T) {
	if _, err := decode([]byte("NOPE....")); err == nil {
		t.Error("bad magic should fail")
	}
	if _, err := decode([]byte("PR")); err == nil {
		t.Error("truncated magic should fail")
	}
}

func TestDecodeBadVersion(t *testing.T) {
	p := samplePayload(t)
	var buf bytes.Buffer
	if err := Encode(&buf, p); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 99 // clobber the version
	if _, err := decode(raw); err == nil {
		t.Error("unknown version should fail")
	}
}

func TestDecodeTruncated(t *testing.T) {
	p := samplePayload(t)
	var buf bytes.Buffer
	if err := Encode(&buf, p); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Truncation at every prefix length must error, never panic.
	for cut := 0; cut < len(raw); cut += 7 {
		if _, err := decode(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d bytes decoded successfully", cut)
		}
	}
}

func TestDecodeCorruptedDims(t *testing.T) {
	// Flip bytes throughout the payload; decoding must either error or
	// produce a structurally valid payload — never panic.
	p := samplePayload(t)
	var buf bytes.Buffer
	if err := Encode(&buf, p); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for pos := 4; pos < len(raw); pos += 11 {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0xFF
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("panic decoding corrupted byte %d: %v", pos, rec)
				}
			}()
			payload, err := decode(mut)
			if err == nil && payload != nil {
				// Structurally valid decode of corrupt data is fine as
				// long as invariants hold.
				if payload.Schema.DomainSize() != payload.Noisy.Len() {
					t.Fatalf("corrupt decode broke invariants at byte %d", pos)
				}
			}
		}()
	}
}

func TestDeterministicEncoding(t *testing.T) {
	p := samplePayload(t)
	var a, b bytes.Buffer
	if err := Encode(&a, p); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&b, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("encoding is not deterministic")
	}
}

func TestSizeOverhead(t *testing.T) {
	// The format should be close to 8 bytes per matrix entry plus a
	// small header: no accidental quadratic blowup.
	p := samplePayload(t)
	var buf bytes.Buffer
	if err := Encode(&buf, p); err != nil {
		t.Fatal(err)
	}
	raw := buf.Len()
	matrixBytes := p.Noisy.Len() * 8
	if raw > matrixBytes+1024 {
		t.Fatalf("encoded size %d far exceeds matrix payload %d", raw, matrixBytes)
	}
}
